//! Tier-1 guarantees for the trace subsystem (ISSUE 5's acceptance
//! criteria): the `trace` experiment's JSONL is byte-identical across
//! worker counts, `trace-diff` pinpoints the first diverging tick/phase
//! between different-seed traces, and a saturated `EventLog` can no
//! longer silently undercount a summary.

use platoon_core::experiments::common::EXPERIMENT_BASE_SEED;
use platoon_core::experiments::trace::{run_with, to_canonical_json, DEFAULT_ATTACK};
use platoon_sim::prelude::{Event, EventLog};
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

#[test]
fn saturated_event_log_fails_loudly_instead_of_undercounting() {
    // Regression pin for the EventLog-saturation fix: `count()` on a
    // saturated log used to silently return the retained-only tally.
    let mut log = EventLog::new(2);
    for i in 0..6 {
        log.push(i as f64, Event::Collision { rear_index: i });
    }
    assert_eq!(log.dropped(), 4);
    let panicked =
        std::panic::catch_unwind(|| log.count(|e| matches!(e, Event::Collision { .. }))).is_err();
    assert!(panicked, "count() must refuse to tally a truncated log");
    assert_eq!(
        log.count_retained(|e| matches!(e, Event::Collision { .. })),
        2,
        "the explicit lower-bound accessor still works"
    );
}
