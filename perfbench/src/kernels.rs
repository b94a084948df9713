//! The standalone kernel pass: lower-layer public functions timed alone,
//! on inputs shaped like the workload's.

use crate::engine::EngineWorkload;
use crate::{stats, Report};
use platoon_crypto::cert::{Certificate, CertificateAuthority, PrincipalId};
use platoon_crypto::keys::KeyPair;
use platoon_crypto::sha256::Sha256;
use platoon_crypto::signature::Signer;
use platoon_detect::pipeline::{Pipeline, PipelineConfig};
use platoon_proto::envelope::Envelope;
use platoon_proto::messages::{Beacon, PlatoonMessage};
use platoon_sim::prelude::{AuthMaterial, AuthMode};
use platoon_v2x::message::Position;
use platoon_v2x::spatial::SpatialGrid;
use std::hint::black_box;
use std::time::Instant;

/// Radius of the corridor's radio horizon, used for the grid kernels.
const HORIZON_M: f64 = platoon_core::experiments::corridor::CORRIDOR_HORIZON_M;

/// Per-op times of the kernels, in nanoseconds.
pub struct Kernels {
    pub schnorr_verify_ns: f64,
    pub sha256_ns: f64,
}

/// Median ns per call of `f`: batches sized to take at least 2 ms, seven
/// of them.
fn ns_per_op(mut f: impl FnMut()) -> f64 {
    let mut batch = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        if t.elapsed().as_micros() >= 2000 {
            break;
        }
        batch *= 2;
    }
    let samples: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    stats::median(&samples)
}

/// Times every kernel row on the workload's inputs and reports it.
pub fn measure(wl: &EngineWorkload, report: &mut Report) -> Kernels {
    let engine = wl.build(1, None);
    let world = engine.world();
    let sender = &world.vehicles[1];
    // The workload's own PKI material where it has some; otherwise a CA
    // and a signer derived from the workload seed the same way.
    let (ca, signer, certificate) = match &sender.auth {
        AuthMaterial::Pki {
            signer,
            certificate,
        } => (engine.ca().clone(), *signer, *certificate),
        _ => standalone_pki(wl.seed, sender.principal),
    };
    let beacon = PlatoonMessage::Beacon(Beacon {
        sender: sender.principal,
        platoon: sender.platoon,
        role: sender.role,
        seq: 1,
        timestamp: 0.0,
        position: sender.vehicle.state.position,
        speed: sender.vehicle.state.speed,
        accel: sender.vehicle.state.accel,
        length: sender.vehicle.params.length,
    });
    let signed = Envelope::sign(sender.principal, &beacon, &signer, certificate);
    // The bytes a receiver decodes and digests: the beacon as the
    // workload seals it.
    let wire = match engine.scenario().auth {
        AuthMode::Pki => signed.encode(),
        _ => Envelope::plain(sender.principal, &beacon).encode(),
    };
    let image = beacon.encode();
    let signature = signer.sign_deterministic(&image);
    let public = signer.public();

    let kernels = Kernels {
        schnorr_verify_ns: ns_per_op(|| {
            black_box(black_box(&signature).verify(&public, black_box(&image)));
        }),
        sha256_ns: ns_per_op(|| {
            black_box(Sha256::digest(black_box(&wire)));
        }),
    };
    report.value("crypto.schnorr_verify_ns", "ns", kernels.schnorr_verify_ns);
    report.value(
        "crypto.schnorr_sign_ns",
        "ns",
        ns_per_op(|| {
            black_box(signer.sign_deterministic(black_box(&image)));
        }),
    );
    report.value("crypto.sha256_ns", "ns", kernels.sha256_ns);
    report.value(
        "proto.verify_signed_ns",
        "ns",
        ns_per_op(|| {
            let verdict = black_box(&signed).verify_signed(&ca.public(), ca.id(), 1.0);
            assert!(verdict.is_ok(), "the benchmark's own envelope verifies");
        }),
    );
    report.value(
        "proto.encode_ns",
        "ns",
        ns_per_op(|| {
            black_box(black_box(&signed).encode());
        }),
    );
    report.value(
        "proto.decode_ns",
        "ns",
        ns_per_op(|| {
            black_box(Envelope::decode(black_box(&wire)).expect("own encoding decodes"));
        }),
    );

    let positions: Vec<Position> = world.vehicles.iter().map(|v| v.position()).collect();
    report.value(
        "v2x.grid_build_us",
        "us",
        ns_per_op(|| {
            black_box(SpatialGrid::build(HORIZON_M, black_box(&positions)));
        }) / 1e3,
    );
    let grid = SpatialGrid::build(HORIZON_M, &positions);
    let mut out = Vec::new();
    report.value(
        "v2x.grid_query_ns",
        "ns",
        ns_per_op(|| {
            for &p in &positions {
                grid.query_within(p, HORIZON_M, &mut out);
                black_box(&out);
            }
        }) / positions.len() as f64,
    );

    report.value("detect.ingest_ns_per_obs", "ns", ingest_ns_per_obs(wl));
    kernels
}

/// A CA and a certified signer derived from `seed`, for workloads that
/// deploy no PKI of their own.
fn standalone_pki(seed: u64, subject: PrincipalId) -> (CertificateAuthority, Signer, Certificate) {
    let mut ca = CertificateAuthority::new(PrincipalId(1_000_000), KeyPair::from_seed(!seed));
    let keys = KeyPair::from_seed(seed);
    let certificate = ca.issue(subject, keys.public(), 0.0, 3600.0);
    (ca, Signer::new(keys), certificate)
}

/// Observations captured from a run shaped like the workload, replayed
/// through fresh default-profile pipelines: median ns per observation.
fn ingest_ns_per_obs(wl: &EngineWorkload) -> f64 {
    let batches = wl.observations();
    let count: usize = batches.iter().map(Vec::len).sum();
    assert!(count > 0, "the capture run delivers observations");
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let mut pipeline = Pipeline::new(PipelineConfig::default_profile());
            let t = Instant::now();
            for batch in &batches {
                pipeline.ingest_messages(black_box(batch));
            }
            let ns = t.elapsed().as_nanos() as f64;
            black_box(&pipeline);
            ns / count as f64
        })
        .collect();
    stats::median(&samples)
}
