//! Integration: the scenario configuration grid, run through the parallel
//! experiment harness and pinned by a golden summary snapshot.
//!
//! Every combination of controller family, key deployment and channel
//! deployment must produce a functioning platoon — the engine may not have
//! hidden coupling between those axes. The 48-cell grid runs across the
//! harness worker pool (per-cell seeds derived from the cell label, so the
//! report is scheduling-independent) and the resulting [`BatchReport`] is
//! asserted against `tests/golden/scenario_matrix.json`. Refresh the golden
//! after an intended behaviour change with `UPDATE_GOLDEN=1 cargo test`.

use platoon_security::prelude::*;
use platoon_sim::harness::golden;
use std::path::Path;

const GRID_BASE_SEED: u64 = 99;

fn grid_batch() -> Batch<RunSummary> {
    let controllers = [
        ControllerKind::Acc,
        ControllerKind::Cacc,
        ControllerKind::Ploeg,
        ControllerKind::Consensus,
    ];
    let auths = [
        AuthMode::None,
        AuthMode::GroupMac,
        AuthMode::EncryptedGroupMac,
        AuthMode::Pki,
    ];
    let comms = [
        CommsMode::DsrcOnly,
        CommsMode::HybridVlc,
        CommsMode::HybridCv2x,
    ];

    let mut batch = Batch::new(GRID_BASE_SEED);
    for controller in controllers {
        for auth in auths {
            for comm in comms {
                batch.push_scenario(
                    Scenario::builder()
                        .label(format!("{controller:?}/{auth:?}/{comm:?}"))
                        .vehicles(4)
                        .controller(controller)
                        .auth(auth)
                        .comms(comm)
                        .duration(15.0)
                        .build(),
                );
            }
        }
    }
    batch
}

fn golden_path(name: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

#[test]
fn controller_auth_comms_grid_is_sound() {
    let report = grid_batch().run_report(4);
    assert_eq!(
        report.entries.len(),
        48,
        "4 controllers × 4 auths × 3 comms"
    );

    // Semantic invariants per cell, independent of the snapshot. Grid cells
    // carry no injected failures, so every outcome must be Ok.
    for entry in &report.entries {
        let s = entry
            .value
            .as_ok()
            .unwrap_or_else(|| panic!("{} failed unexpectedly", entry.label));
        assert_eq!(s.collisions, 0, "{} crashed", entry.label);
        assert_eq!(
            s.rejected_messages, 0,
            "{} rejected honest traffic",
            entry.label
        );
        assert!(s.min_gap > 0.5, "{} unsafe gap {}", entry.label, s.min_gap);
    }

    // Snapshot regression: every metric of every cell is pinned.
    golden::assert_matches(
        &golden_path("scenario_matrix.json"),
        &report.to_canonical_json(),
    );
}

#[test]
fn platoon_size_scales() {
    let mut batch = Batch::new(5);
    for n in [2usize, 4, 8, 12, 16] {
        batch.push_scenario(
            Scenario::builder()
                .label(format!("size/{n}"))
                .vehicles(n)
                .max_platoon_size(n.max(16))
                .duration(20.0)
                .build(),
        );
    }
    let report = batch.run_report(4);
    for (n, entry) in [2usize, 4, 8, 12, 16].into_iter().zip(&report.entries) {
        let s = entry
            .value
            .as_ok()
            .unwrap_or_else(|| panic!("size {n} failed unexpectedly"));
        assert_eq!(s.collisions, 0, "size {n} crashed");
        // Long strings accumulate sensor/channel noise; accept either the
        // strict amplification criterion or tightly-bounded absolute errors.
        assert!(
            s.string_stable || s.max_spacing_error < 2.0,
            "size {n} unstable: amp {}, err {}",
            s.worst_amplification,
            s.max_spacing_error
        );
    }
}

#[test]
fn car_platoons_work_like_truck_platoons() {
    let scenario = Scenario::builder()
        .params(VehicleParams::car())
        .vehicles(6)
        .desired_gap(6.0)
        .duration(30.0)
        .build();
    let s = Engine::new(scenario).run();
    assert_eq!(s.collisions, 0);
    assert!(s.max_spacing_error < 3.0);
}

#[test]
fn runs_are_bitwise_deterministic_across_the_full_stack() {
    let run = || {
        let mut engine = Engine::new(
            Scenario::builder()
                .vehicles(5)
                .auth(AuthMode::Pki)
                .duration(20.0)
                .seed(1234)
                .build(),
        );
        engine.add_attack(Box::new(ReplayAttack::new(ReplayConfig {
            replay_from: 8.0,
            ..Default::default()
        })));
        engine.add_defense(Box::new(AntiReplayDefense::timestamp()));
        engine.add_defense(Box::new(
            MitigationDefense::new(MitigationConfig::default()),
        ));
        engine.run()
    };
    let a = run();
    let b = run();
    assert_eq!(
        a.oscillation_energy.to_bits(),
        b.oscillation_energy.to_bits()
    );
    assert_eq!(a.max_spacing_error.to_bits(), b.max_spacing_error.to_bits());
    assert_eq!(a.rejected_messages, b.rejected_messages);
    assert_eq!(a.leader_tail_pdr.to_bits(), b.leader_tail_pdr.to_bits());
}

#[test]
fn longer_runs_remain_stable() {
    // 5 simulated minutes: no slow divergence, counter overflow or drift.
    let scenario = Scenario::builder()
        .vehicles(6)
        .duration(300.0)
        .seed(8)
        .build();
    let s = Engine::new(scenario).run();
    assert_eq!(s.collisions, 0);
    assert!(s.string_stable);
    assert!(
        s.max_spacing_error < 2.0,
        "drift detected: {}",
        s.max_spacing_error
    );
}
