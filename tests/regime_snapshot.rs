//! Property tests: an engine snapshot taken at *any* point of a
//! regime-diverse, faulted, attacked, traced run restores to a
//! continuation that is byte-identical to the uninterrupted run — same
//! [`RunSummary`], same trace digest, same perf counters, same end-state
//! digest — for any seed, any engine thread count, any split point.
//!
//! This is the contract the `regimes --resume-check` CI gate relies on:
//! `Engine::snapshot` captures the *entire* simulation state (world, rng
//! stream position, detector tracks, fusion scores, regime bookkeeping,
//! trace digest), so a restored engine can neither lose nor replay a tick.

use platoon_security::prelude::*;
use proptest::prelude::*;

const STEP: f64 = 0.1;
const DURATION: f64 = 6.0;

/// A small but fully-loaded engine: a three-phase regime plan, a channel
/// fault, an insider attack, the stock detector bank, and a trace
/// recorder — every subsystem a snapshot must carry.
fn build_engine(seed: u64, threads: usize) -> Engine {
    let plan = RegimePlan::new(vec![
        RegimePhase::new("cruise", 2.5).with_profile(SpeedProfile::Constant { speed: 22.0 }),
        RegimePhase::new("stop-and-go", 2.0)
            .with_profile(SpeedProfile::UrbanDrive {
                min: 4.0,
                max: 18.0,
                phase: 1.0,
                seed: 5,
            })
            .with_noise(2.0),
        RegimePhase::new("tunnel", 1.5)
            .with_noise(10.0)
            .with_beacon_every(2),
    ]);
    let scenario = Scenario::builder()
        .label(format!("regime-snap/{seed:#x}"))
        .vehicles(4)
        .duration(DURATION)
        .seed(seed)
        .regimes(plan)
        .build();
    let mut engine = Engine::new(scenario);
    engine.set_threads(threads);
    engine.add_fault(Box::new(NoiseFloorRamp::new(1.0, 2.0, 6.0)));
    engine.add_attack(Box::new(FalsificationAttack::new(FalsificationConfig {
        start: 2.0,
        ..Default::default()
    })));
    engine.attach_detector_config(PipelineConfig::default_profile());
    engine.attach_tracer(TraceRecorder::new());
    engine
}

proptest! {
    #[test]
    fn snapshot_restore_resume_is_byte_identical(
        seed in any::<u64>(),
        threads in prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
        split_tenths in 1u64..10,
    ) {
        let mut straight = build_engine(seed, threads);
        let straight_summary = straight.run();

        let mut interrupted = build_engine(seed, threads);
        let total = steps_for(DURATION, STEP);
        interrupted.fast_forward(total * split_tenths / 10);
        let snapshot = interrupted.snapshot().expect("loaded engine snapshots");
        prop_assert_eq!(snapshot.tick(), total * split_tenths / 10);
        drop(interrupted);

        let mut resumed = snapshot.restore().expect("snapshot restores");
        let resumed_summary = resumed.run();

        // RunSummary equality covers every metric, the perf counters, and
        // the trace digest (a tracer was attached, so the digest pins the
        // full record stream of both runs).
        prop_assert_eq!(&straight_summary, &resumed_summary);
        prop_assert!(straight_summary.trace.is_some());
        // The engines also agree on their complete end state.
        prop_assert_eq!(straight.state_digest(), resumed.state_digest());
        prop_assert_eq!(straight.perf(), resumed.perf());
        prop_assert_eq!(straight.alerts(), resumed.alerts());
    }

    #[test]
    fn snapshot_is_reusable_and_tolerates_repeated_restores(seed in any::<u64>()) {
        let mut engine = build_engine(seed, 2);
        engine.fast_forward(20);
        let snapshot = engine.snapshot().expect("engine snapshots");
        // Restoring is non-destructive: two rehydrations from the same
        // snapshot run to identical conclusions.
        let mut a = snapshot.restore().expect("first restore");
        let mut b = snapshot.restore().expect("second restore");
        let sa = a.run();
        let sb = b.run();
        prop_assert_eq!(sa, sb);
        prop_assert_eq!(a.state_digest(), b.state_digest());
        // And the original engine is untouched by the snapshot: it can
        // keep stepping and lands in the same place.
        let original = engine.run();
        prop_assert_eq!(original, a.summary());
    }
}
