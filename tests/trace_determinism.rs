//! Tier-1 guarantees for the trace subsystem: the `trace` experiment's
//! JSONL is byte-identical across worker counts, `trace-diff` pinpoints
//! the first diverging tick/phase between different-seed traces, and the
//! trace holds one record for every occurrence a run summary counts.

use platoon_attacks::prelude::{SensorAttackMode, SensorSpoofAttack, SensorSpoofConfig};
use platoon_core::experiments::common::{
    arm_params, base_scenario, build_arm, Effort, EXPERIMENT_BASE_SEED,
};
use platoon_core::experiments::table4::profile_for;
use platoon_core::experiments::trace::{run_with, to_canonical_json, DEFAULT_ATTACK};
use platoon_sim::prelude::{Engine, RunSummary, TraceRecorder};
use platoon_sim::trace::diff_traces;

#[test]
fn trace_jsonl_is_byte_identical_across_1_and_8_workers() {
    let serial = run_with(true, 1, DEFAULT_ATTACK, None);
    let parallel = run_with(true, 8, DEFAULT_ATTACK, None);
    assert!(!serial.jsonl.is_empty(), "the traced arm emits records");
    assert_eq!(
        serial.jsonl, parallel.jsonl,
        "TRACE JSONL must be byte-identical at 1 vs 8 workers"
    );
    assert_eq!(
        to_canonical_json(&serial),
        to_canonical_json(&parallel),
        "the canonical document (digest included) must match too"
    );
    // trace-diff on the pair reports no divergence.
    assert_eq!(diff_traces(&serial.jsonl, &parallel.jsonl), None);
    // The digest in the summary is the digest of the emitted stream.
    let summary = serial.report.summary(&format!("trace/{DEFAULT_ATTACK}"));
    let digest = summary.trace.expect("tracer attached");
    assert_eq!(digest.records, serial.jsonl.lines().count() as u64);
    assert_eq!(digest.dropped, 0);
}

#[test]
fn trace_diff_pinpoints_the_first_diverging_tick_between_seeds() {
    let a = run_with(true, 2, DEFAULT_ATTACK, Some(EXPERIMENT_BASE_SEED));
    let b = run_with(true, 2, DEFAULT_ATTACK, Some(EXPERIMENT_BASE_SEED + 7));
    let d = diff_traces(&a.jsonl, &b.jsonl)
        .expect("different seeds drive different channel noise: traces must diverge");
    assert!(
        d.tick.is_some(),
        "divergence names a tick: {}",
        d.describe()
    );
    let description = d.describe();
    assert!(
        description.contains("tick"),
        "human rendering names the tick: {description}"
    );
}

/// Runs `engine` traced and checks that the trace accounts for every
/// counted occurrence: one `defense_verdict` record per rejected message,
/// one `detector_alert` per detection (defense or pipeline) and one
/// collision `safety_event` per collision.
fn run_accounted(mut engine: Engine) -> RunSummary {
    engine.attach_tracer(TraceRecorder::new());
    let summary = engine.run();
    let trace = engine.take_tracer().expect("tracer attached");
    let label = &summary.label;
    assert_eq!(trace.digest().dropped, 0, "{label}: every record retained");
    let count = |needle: &str| trace.lines().iter().filter(|l| l.contains(needle)).count();
    assert_eq!(
        summary.rejected_messages,
        count(r#""kind": "defense_verdict""#),
        "{label}: rejections"
    );
    assert_eq!(
        summary.detections,
        count(r#""kind": "detector_alert""#),
        "{label}: detections"
    );
    assert_eq!(
        summary.collisions,
        count(r#""event": "collision""#),
        "{label}: collisions"
    );
    summary
}

#[test]
fn the_trace_accounts_for_every_counted_occurrence() {
    let effort = Effort::quick();
    let (mut rejections, mut defense_detections, mut alerts) = (0, 0, 0);
    for (attack, mechanism, profile) in [
        ("dos-join-flood", Some("rsu-gatekeeper"), None),
        ("replay", Some("keys"), None),
        ("sybil", Some("control-algorithms"), None),
        ("impersonation", Some("rsu-gatekeeper"), None),
        ("jamming", None, Some("default")),
        ("impersonation", None, Some("default")),
    ] {
        let label = format!("{attack}/{}", mechanism.or(profile).unwrap_or("none"));
        let params = arm_params(attack);
        let mut engine = build_arm(
            &label,
            attack,
            params.as_ref(),
            mechanism,
            effort,
            EXPERIMENT_BASE_SEED,
        );
        if let Some(profile) = profile {
            engine.attach_detector_config(profile_for(profile));
        }
        let summary = run_accounted(engine);
        rejections += summary.rejected_messages;
        if profile.is_some() {
            alerts += summary.detections;
        } else {
            defense_detections += summary.detections;
        }
    }
    assert!(rejections > 0, "the arms reject messages");
    assert!(defense_detections > 0, "the defenses raise detections");
    assert!(alerts > 0, "the pipelines raise alerts");

    // F6a's undefended point at the largest bias: the spoofed radar drives
    // a follower into its predecessor.
    let mut engine = Engine::new(base_scenario("F6/undefended/15", effort).build());
    engine.add_attack(Box::new(SensorSpoofAttack::new(SensorSpoofConfig {
        mode: SensorAttackMode::Spoof { bias: 15.0 },
        start: effort.duration * 0.2,
        ..Default::default()
    })));
    assert!(
        run_accounted(engine).collisions > 0,
        "a collision is counted"
    );
}
