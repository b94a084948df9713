//! Every Table II/III arm can be snapshotted mid-run: fast-forwarded a
//! third of the way, snapshotted, restored and run to the end, each arm
//! reports the canonical `RunSummary` and the impact bits of its straight
//! run. Scenario fuzzing and divergence bisection both start from such a
//! snapshot, so an arm that refuses one cannot be explored that way.

use platoon_core::experiments::common::{
    arm_params, build_arm, impact_of, Effort, EXPERIMENT_BASE_SEED,
};
use platoon_core::experiments::table3::{distinct_attacks, pairs};
use platoon_sim::harness::{json, write_run_summary};
use platoon_sim::prelude::{steps_for, RunSummary};

fn canonical(summary: &RunSummary) -> String {
    let mut w = json::Writer::new();
    w.obj(|w| write_run_summary(w, summary));
    w.finish()
}

#[test]
fn every_table_arm_resumes_exactly_from_a_snapshot() {
    let effort = Effort::quick();
    // Table III's batch: each distinct attack undefended, then every
    // (mechanism, attack) pair under its mechanism variant.
    let mut arms: Vec<(String, Option<String>)> =
        distinct_attacks().into_iter().map(|a| (a, None)).collect();
    arms.extend(
        pairs()
            .into_iter()
            .map(|(_, a, variant)| (a, Some(variant))),
    );
    assert_eq!(arms.len(), 35, "the Table II/III arm list changed");

    let mut failures = Vec::new();
    for (attack, mechanism) in &arms {
        let mechanism = mechanism.as_deref();
        let label = format!("{attack}/{}", mechanism.unwrap_or("undefended"));
        let params = arm_params(attack);
        let build = || {
            build_arm(
                &label,
                attack,
                params.as_ref(),
                mechanism,
                effort,
                EXPERIMENT_BASE_SEED,
            )
        };

        let mut straight = build();
        let straight_summary = straight.run();

        let mut interrupted = build();
        let scenario = interrupted.scenario();
        let total = steps_for(scenario.duration, scenario.comm_step);
        interrupted.fast_forward(total / 3);
        let restored = interrupted
            .snapshot()
            .and_then(|snapshot| snapshot.restore());
        let mut resumed = match restored {
            Ok(engine) => engine,
            Err(e) => {
                failures.push(format!("{label}: {e}"));
                continue;
            }
        };
        let resumed_summary = resumed.run();

        if canonical(&straight_summary) != canonical(&resumed_summary) {
            failures.push(format!("{label}: the resumed RunSummary differs"));
        }
        let straight_impact = impact_of(attack, &straight, &straight_summary);
        let resumed_impact = impact_of(attack, &resumed, &resumed_summary);
        if straight_impact.to_bits() != resumed_impact.to_bits() {
            failures.push(format!(
                "{label}: impact {straight_impact} straight, {resumed_impact} resumed"
            ));
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}
