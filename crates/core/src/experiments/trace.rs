//! Experiment T: deterministic per-tick tracing of one labeled scenario.
//!
//! The §V attack-effect claims are *temporal* — oscillation builds, joins
//! stay blocked, gaps open tick by tick — but every other experiment here
//! reports end-of-run aggregates. This experiment runs one canonical
//! attacked-and-faulted scenario with a [`TraceRecorder`] attached and
//! emits the full phase-scoped record stream (`TRACE_<label>.jsonl`)
//! alongside the canonical run document whose [`RunSummary`] carries the
//! trace digest. Because every record is stamped with tick-derived time
//! only, the JSONL is byte-identical across worker counts and machines —
//! and [`trace-diff`](DIFF_COMMAND) turns any divergence (a golden
//! mismatch, a nondeterminism regression) into a one-command answer:
//! the first differing tick and phase.

use super::common::{arm_params, base_scenario, Effort, EXPERIMENT_BASE_SEED};
use super::robustness::make_fault;
use super::table4::profile_for;
use platoon_sim::cli::{self, Args, Command, Exit, Flag};
use platoon_sim::harness::{golden, Batch, BatchReport, JobOutcome};
use platoon_sim::prelude::{Engine, RunSummary};
use platoon_sim::trace::{diff_traces, TraceRecorder};

/// The attack arm traced by default: reliably detected, so the trace
/// exercises every phase (fault, attack, medium, defense, detector).
pub const DEFAULT_ATTACK: &str = "impersonation";

/// The benign fault riding along (windowed radar outage), so fault-phase
/// records appear in the canonical trace.
pub const FAULT: &str = "sensor-outage";

/// One traced run: the summary (digest folded in) plus the JSONL stream.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRun {
    /// The run summary; `summary.trace` holds the digest of `jsonl`.
    pub summary: RunSummary,
    /// The retained trace as canonical JSONL.
    pub jsonl: String,
}

/// Runs the canonical traced scenario built by [`traced_engine`].
pub fn traced_arm(attack: &str, effort: Effort, seed: u64) -> TraceRun {
    let mut engine = traced_engine(attack, effort, seed);
    let summary = engine.run();
    let recorder = engine.take_tracer().expect("tracer attached above");
    debug_assert_eq!(summary.trace, Some(recorder.digest()));
    TraceRun {
        summary,
        jsonl: recorder.to_jsonl(),
    }
}

/// Builds the canonical traced scenario before its first step: the base
/// platoon under [`FAULT`] plus `attack` (or none for `"benign"`), the
/// default detector pipeline and a [`TraceRecorder`] attached.
pub fn traced_engine(attack: &str, effort: Effort, seed: u64) -> Engine {
    let params = arm_params(attack);
    let label = format!("trace/{attack}");
    let mut engine = Engine::new(base_scenario(&label, effort).seed(seed).build());
    engine.add_fault(make_fault(FAULT, effort));
    if let Some(p) = params {
        engine.add_attack(p.build(effort.duration));
    }
    engine.attach_detector_config(profile_for("default"));
    engine.attach_tracer(TraceRecorder::new());
    engine
}

/// A completed trace experiment: the canonical batch document plus the
/// JSONL stream of the traced arm.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceReport {
    /// Attack arm that was traced.
    pub attack: String,
    /// The batch document (one entry; its summary carries the digest).
    pub report: BatchReport,
    /// The traced arm's JSONL (empty when the job failed).
    pub jsonl: String,
}

/// Runs the trace experiment with an explicit worker count and seed.
///
/// The single job goes through the same crash-isolated [`Batch`] harness
/// as every other experiment, so the canonical document — and the JSONL
/// bytes — must come out identical at any worker count.
pub fn run_with(quick: bool, workers: usize, attack: &str, seed: Option<u64>) -> TraceReport {
    let effort = Effort::new(quick);
    let seed = seed.unwrap_or(EXPERIMENT_BASE_SEED);
    let mut batch: Batch<TraceRun> = Batch::new(EXPERIMENT_BASE_SEED);
    let attack_owned = attack.to_string();
    batch.push_with_seed(format!("trace/{attack}"), seed, move |seed| {
        traced_arm(&attack_owned, effort, seed)
    });
    let entries = batch.run_outcomes(workers);

    let mut jsonl = String::new();
    let report = BatchReport {
        base_seed: EXPERIMENT_BASE_SEED,
        entries: entries
            .into_iter()
            .map(|e| platoon_sim::harness::BatchEntry {
                label: e.label,
                seed: e.seed,
                value: match e.value {
                    JobOutcome::Ok(run) => {
                        jsonl = run.jsonl;
                        JobOutcome::Ok(run.summary)
                    }
                    JobOutcome::Failed { reason } => JobOutcome::Failed { reason },
                },
            })
            .collect(),
    };
    TraceReport {
        attack: attack.to_string(),
        report,
        jsonl,
    }
}

/// Runs the default traced arm at default width.
pub fn run(quick: bool) -> TraceReport {
    run_with(
        quick,
        platoon_sim::harness::default_workers(),
        DEFAULT_ATTACK,
        None,
    )
}

/// Canonical JSON rendering of the batch document (the golden-snapshot
/// unit; the digest rides in the entry's `trace` field).
pub fn to_canonical_json(report: &TraceReport) -> String {
    report.report.to_canonical_json()
}

/// The `trace` subcommand.
pub const COMMAND: Command = Command {
    name: "trace",
    summary: "deterministic per-tick trace of one scenario, written to TRACE_<label>.json/.jsonl",
    operands: &[],
    flags: &[
        cli::QUICK,
        cli::WORKERS,
        cli::OUT,
        cli::CHECK_GOLDEN,
        Flag::value(
            "--attack",
            "NAME",
            "attack arm to trace (default: impersonation; `benign` for none)",
        ),
        Flag::value(
            "--seed",
            "N",
            "pin the run seed (default: the experiment base seed)",
        ),
    ],
    run: cli_main,
};

fn cli_main(args: &mut Args) -> Result<(), Exit> {
    let workers = args.workers()?;
    let seed = args.parse("--seed")?;
    let attack = args.value("--attack").unwrap_or(DEFAULT_ATTACK).to_string();
    let label = args.label();
    eprintln!("tracing trace/{attack} ({label} effort, {workers} workers)...");
    let report = run_with(args.quick(), workers, &attack, seed);
    args.job_failures(report.report.failures());
    if let Some(s) = report.report.entries.first().and_then(|e| e.value.as_ok()) {
        println!("{}", s.one_line());
        if let Some(d) = &s.trace {
            println!(
                "trace: {} record(s), {} dropped, digest {:016x}",
                d.records, d.dropped, d.hash
            );
        }
    }
    let document = to_canonical_json(&report);
    args.write(&format!("TRACE_{label}.json"), &document)?;
    args.write(&format!("TRACE_{label}.jsonl"), &report.jsonl)?;
    args.check_golden(&document, golden::Tolerance::snapshot());
    Ok(())
}

/// The `trace-diff` subcommand: byte-compares two JSONL traces.
pub const DIFF_COMMAND: Command = Command {
    name: "trace-diff",
    summary: "first diverging tick/phase between two traces (exit 1 when they differ)",
    operands: &["LEFT.jsonl", "RIGHT.jsonl"],
    flags: &[],
    run: diff_cli_main,
};

fn diff_cli_main(args: &mut Args) -> Result<(), Exit> {
    let read = |path: &String| {
        std::fs::read_to_string(path).map_err(|e| Exit::Failed(format!("reading {path}: {e}")))
    };
    let left = read(&args.operands()[0])?;
    let right = read(&args.operands()[1])?;
    match diff_traces(&left, &right) {
        None => println!("traces identical ({} line(s))", left.lines().count()),
        Some(d) => {
            println!("traces diverge at {}", d.describe());
            args.fail("the traces differ");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use platoon_sim::harness::golden::Tolerance;
    use platoon_sim::trace::END_OF_TRACE;
    use std::path::{Path, PathBuf};

    fn golden_path() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/trace_quick.json")
    }

    #[test]
    fn quick_trace_covers_every_phase_and_matches_golden() {
        let report = run(true);
        assert!(
            report.report.failures().next().is_none(),
            "traced arm must complete"
        );
        let summary = report.report.summary("trace/impersonation");
        let digest = summary.trace.expect("digest folded into the summary");
        assert!(digest.records > 0);
        assert_eq!(digest.dropped, 0, "quick run fits the recorder bound");
        assert_eq!(
            report.jsonl.lines().count() as u64,
            digest.records,
            "every record retained"
        );
        // The canonical scenario exercises the full phase vocabulary.
        for phase in ["fault", "medium", "detector"] {
            assert!(
                report.jsonl.contains(&format!("\"phase\": \"{phase}\"")),
                "no {phase}-phase records in the trace"
            );
        }
        golden::assert_matches(
            &golden_path(),
            &to_canonical_json(&report),
            Tolerance::snapshot(),
        );
    }

    #[test]
    fn trace_is_byte_identical_across_worker_counts() {
        let serial = run_with(true, 1, DEFAULT_ATTACK, None);
        let parallel = run_with(true, 8, DEFAULT_ATTACK, None);
        assert_eq!(
            serial.jsonl, parallel.jsonl,
            "trace JSONL must be byte-identical across worker counts"
        );
        assert_eq!(to_canonical_json(&serial), to_canonical_json(&parallel));
        assert_eq!(diff_traces(&serial.jsonl, &parallel.jsonl), None);
    }

    #[test]
    fn different_seeds_diverge_at_a_named_tick_and_phase() {
        let a = run_with(true, 2, DEFAULT_ATTACK, Some(EXPERIMENT_BASE_SEED));
        let b = run_with(true, 2, DEFAULT_ATTACK, Some(EXPERIMENT_BASE_SEED + 1));
        let d = diff_traces(&a.jsonl, &b.jsonl)
            .expect("different channel noise must diverge the traces");
        assert!(d.line >= 1);
        assert!(
            d.tick.is_some(),
            "divergence names its tick: {}",
            d.describe()
        );
        if d.left != END_OF_TRACE && d.right != END_OF_TRACE {
            assert!(
                d.phase.is_some(),
                "divergence names its phase: {}",
                d.describe()
            );
        }
    }
}
