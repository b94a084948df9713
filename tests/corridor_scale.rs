//! Tier-1 guarantees for the highway-scale corridor (ISSUE 6's acceptance
//! criteria): intra-run parallel stepping is byte-identical to serial
//! stepping, the spatial-index fast path is exact when the horizon covers
//! the world, a 5000-vehicle corridor runs with far fewer medium pair
//! samples than the all-pairs scan would take, and the world's O(1)
//! lookup maps stay consistent through joins and splits.

use platoon_core::experiments::common::{arm_params, Effort};
use platoon_core::experiments::corridor::{
    corridor_arm, corridor_scenario, CORRIDOR_BASE_SEED, CORRIDOR_HORIZON_M,
};
use platoon_detect::pipeline::PipelineConfig;
use platoon_sim::engine::Engine;
use platoon_sim::prelude::Scenario;
use platoon_sim::trace::TraceRecorder;

/// One corridor arm at an explicit engine-thread count (2 platoons of
/// 5 trucks, split + merge + joiner all exercised).
fn small_corridor(threads: usize) -> platoon_core::experiments::corridor::CorridorRun {
    corridor_arm(
        "corridor/scale/2x5",
        5,
        2,
        10.0,
        CORRIDOR_HORIZON_M,
        threads,
        CORRIDOR_BASE_SEED,
    )
}

#[test]
fn corridor_is_byte_identical_at_1_vs_4_engine_threads() {
    let serial = small_corridor(1);
    let sharded = small_corridor(4);
    assert_eq!(
        serial.summary, sharded.summary,
        "RunSummary must not depend on the engine thread count"
    );
    let d1 = serial.summary.trace.expect("tracer attached");
    let dn = sharded.summary.trace.expect("tracer attached");
    assert_eq!(
        (d1.records, d1.dropped, d1.hash),
        (dn.records, dn.dropped, dn.hash),
        "per-tick trace digests must be byte-identical at 1 vs 4 threads"
    );
    assert_eq!(serial.pairs_considered, sharded.pairs_considered);
    // The run is not degenerate: the split and the join both happened.
    assert!(serial.summary.maneuvers.splits >= 1);
    assert!(serial.summary.maneuvers.joins_accepted >= 1);
}

/// Runs the default-style attacked + detected scenario at a given radio
/// horizon and returns (summary, medium pair samples).
fn attacked_run(horizon: f64) -> (platoon_sim::prelude::RunSummary, u64) {
    let effort = Effort::quick();
    let scenario = Scenario::builder()
        .label("corridor/horizon-equivalence")
        .vehicles(6)
        .duration(effort.duration)
        .seed(2021)
        .radio_horizon(horizon)
        .build();
    let mut engine = Engine::new(scenario);
    let sybil = arm_params("sybil").expect("an attack arm");
    engine.add_attack(sybil.build(effort.duration));
    engine.attach_detector_config(PipelineConfig::default_profile());
    let summary = engine.run();
    (summary, engine.medium_pairs_considered())
}

#[test]
fn covering_horizon_is_exactly_equivalent_to_all_pairs() {
    // A horizon far beyond the world span admits every (frame, receiver)
    // pair, so the indexed path must reproduce the legacy scan bit for
    // bit: same summary, same number of pairs sampled, same rng stream.
    let (all_pairs, pairs_scan) = attacked_run(f64::INFINITY);
    let (indexed, pairs_indexed) = attacked_run(50_000.0);
    assert_eq!(
        all_pairs, indexed,
        "a covering horizon must not change the run"
    );
    assert_eq!(pairs_scan, pairs_indexed);
    assert!(pairs_scan > 0, "the run exchanged frames");
}

#[test]
fn five_thousand_vehicle_corridor_runs_indexed() {
    // 500 platoons of 10 trucks: the ISSUE's highway scale. Two comm
    // ticks are enough to prove the world builds, steps, and that the
    // spatial index keeps the medium's pair sampling far below the
    // all-pairs bound (~frames x receivers per tick).
    let run = corridor_arm(
        "corridor/scale/500x10",
        10,
        500,
        0.2,
        CORRIDOR_HORIZON_M,
        4,
        CORRIDOR_BASE_SEED,
    );
    assert_eq!(run.vehicles, 5000);
    assert_eq!(run.summary.collisions, 0);
    // All-pairs would sample >= vehicles * (vehicles - 1) pairs per tick;
    // with a 750 m horizon over a ~200 km corridor the index must cut
    // that by well over an order of magnitude.
    let ticks = 2u64;
    let all_pairs_bound = ticks * 5000 * 4999;
    assert!(
        run.pairs_considered > 0,
        "frames were exchanged on the corridor"
    );
    assert!(
        run.pairs_considered * 10 < all_pairs_bound,
        "spatial index only sampled {} pairs vs all-pairs bound {}",
        run.pairs_considered,
        all_pairs_bound
    );
}

#[test]
fn lookup_maps_survive_joins_and_splits() {
    // Drive a corridor world through its split + merge + join lifecycle
    // and check, at every tick, that the O(1) principal/node lookup maps
    // agree with a linear scan for every vehicle on the road.
    let scenario = corridor_scenario("corridor/scale/lookup", 6, 2, 12.0, CORRIDOR_HORIZON_M)
        .seed(CORRIDOR_BASE_SEED)
        .build();
    let comm_step = scenario.comm_step;
    let mut engine = Engine::new(scenario);
    engine.attach_tracer(TraceRecorder::new());
    engine.add_attack(Box::new(platoon_core::experiments::common::legit_joiner(
        0.5,
    )));
    let steps = (12.0 / comm_step).round() as u64;
    for step in 0..steps {
        if step == steps / 3 {
            let _ = engine.command_split(3);
        }
        if step == steps * 2 / 3 {
            let _ = engine.command_merge();
        }
        engine.step();
        let world = engine.world();
        for (i, v) in world.vehicles.iter().enumerate() {
            assert_eq!(
                world.index_of(v.principal),
                Some(i),
                "principal lookup diverged at tick {step} for vehicle {i}"
            );
            assert_eq!(
                world.index_of_node(v.node),
                Some(i),
                "node lookup diverged at tick {step} for vehicle {i}"
            );
        }
    }
    let summary = engine.summary();
    assert!(
        summary.maneuvers.joins_accepted >= 1,
        "the joiner was accepted mid-run, so the maps saw a membership change"
    );
}

#[test]
fn platoon_layout_matches_legacy_scans_on_a_split_world() {
    // platoon_layout() is the one-pass replacement for the per-vehicle
    // platoon_local_index / platoon_leader_index scans; on a world that
    // has split into multiple platoon ids the two must agree everywhere.
    let scenario = corridor_scenario("corridor/scale/layout", 6, 2, 4.0, CORRIDOR_HORIZON_M)
        .seed(CORRIDOR_BASE_SEED)
        .build();
    let comm_step = scenario.comm_step;
    let mut engine = Engine::new(scenario);
    let steps = (4.0 / comm_step).round() as u64;
    for step in 0..steps {
        if step == 2 {
            let _ = engine.command_split(3);
        }
        engine.step();
    }
    let world = engine.world();
    let platoon_ids: std::collections::HashSet<_> =
        world.vehicles.iter().map(|v| v.platoon).collect();
    assert!(
        platoon_ids.len() >= 3,
        "split produced a third platoon id alongside the corridor's two"
    );
    let layout = world.platoon_layout();
    assert_eq!(layout.local_index.len(), world.vehicles.len());
    for i in 0..world.vehicles.len() {
        assert_eq!(layout.local_index[i], world.platoon_local_index(i));
        assert_eq!(layout.leader_index[i], world.platoon_leader_index(i));
    }
}
