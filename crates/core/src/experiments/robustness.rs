//! Experiment R: robustness — detection quality under benign faults.
//!
//! Table IV measures how well the online detector catches attacks on a
//! *clean* platoon. The paper's open challenges (§VI-B) — sharpened by
//! Ghosh et al.'s detection-isolation scheme for changing driving
//! environments — ask the harder operational question: what happens to
//! those numbers when the environment itself degrades? A detector whose
//! false-positive rate explodes in rain fade, or that stops seeing an
//! impersonator because one radar blinked, is not deployable.
//!
//! This experiment sweeps the `platoon-faults` taxonomy (plus a no-fault
//! control) against a benign arm and a representative attack arm, with the
//! default detector pipeline attached. It doubles as the crash-isolation
//! proof for the harness: the grid runs through
//! [`Batch::run_outcomes`], so a panicking cell (see
//! [`run_with`]'s `inject_panic`) is recorded as a failed job in the
//! canonical document instead of taking the batch down, and every other
//! cell still reports.

use super::common::{arm_params, arm_truth, base_scenario, Effort, EXPERIMENT_BASE_SEED};
use super::table4::{self, profile_for};
use crate::tables::{num, TextTable};
use platoon_faults::{
    BurstPacketLoss, ClockSkew, FaultWindow, NoiseFloorRamp, RsuBlackout, SensorOutage,
};
use platoon_sim::cli::{self, Args, Command, Exit};
use platoon_sim::fault::{Fault, NoFault};
use platoon_sim::harness::{json, Batch};
use platoon_sim::prelude::{per_frame_ratio, score_alerts, DetectionSummary, Engine, RunSummary};

/// Fault arms swept by the experiment ("none" is the clean control).
pub const FAULTS: [&str; 6] = [
    "none",
    "burst-loss",
    "noise-ramp",
    "sensor-outage",
    "clock-skew",
    "rsu-blackout",
];

/// Attack arms: the false-positive floor and a reliably-detected attack
/// whose degradation is worth watching.
pub const ATTACKS: [&str; 2] = ["benign", "impersonation"];

/// Independent seeds per (fault, attack) cell.
pub const SEEDS_PER_ARM: u64 = 2;

/// Label of the deliberately panicking job [`run_with`] can append.
pub const INJECTED_JOB: &str = "inject/panic";

/// The canonical fault for a named arm, sized relative to the run length.
/// The clean control gets the no-op [`NoFault`].
pub fn make_fault(name: &str, effort: Effort) -> Box<dyn Fault> {
    let d = effort.duration;
    match name {
        "none" => Box::new(NoFault),
        "burst-loss" => Box::new(BurstPacketLoss::new(
            vec![FaultWindow::new(0.3 * d, 0.55 * d)],
            25.0,
        )),
        "noise-ramp" => Box::new(NoiseFloorRamp::new(0.25 * d, 0.6, 12.0)),
        "sensor-outage" => Box::new(SensorOutage::radar(
            2,
            vec![
                FaultWindow::new(0.3 * d, 0.5 * d),
                FaultWindow::new(0.65 * d, 0.75 * d),
            ],
        )),
        "clock-skew" => Box::new(ClockSkew::new(5, 0.25 * d, 2.0)),
        "rsu-blackout" => Box::new(RsuBlackout::new(vec![FaultWindow::new(0.3 * d, 0.6 * d)])),
        other => panic!("unknown fault arm {other}"),
    }
}

/// What one grid cell reports: the scored alert stream plus the full run
/// summary (the safety side of "degrades gracefully").
#[derive(Clone, Debug, PartialEq)]
pub struct RobustnessCell {
    /// Detection quality against ground truth.
    pub detection: DetectionSummary,
    /// The underlying run.
    pub summary: RunSummary,
}

/// Harness job body: one (fault, attack, seed) run with detectors attached.
pub fn robustness_arm(fault: &str, attack: &str, effort: Effort, seed: u64) -> RobustnessCell {
    let params = arm_params(attack);
    let label = format!("{fault}/{attack}");
    let mut builder = base_scenario(&label, effort).seed(seed);
    if fault == "rsu-blackout" {
        // Give the blackout infrastructure to take away.
        builder = builder.rsu((150.0, 8.0)).rsu((450.0, 8.0));
    }
    let mut engine = Engine::new(builder.build());
    engine.add_fault(make_fault(fault, effort));
    if let Some(p) = &params {
        engine.add_attack(p.build(effort.duration));
    }
    engine.attach_detector_config(profile_for("default"));
    let summary = engine.run();
    let truth = arm_truth(params.as_ref(), effort, &engine);
    RobustnessCell {
        detection: score_alerts(engine.alerts(), &truth),
        summary,
    }
}

/// One row of the robustness table: a (fault, attack) cell aggregated over
/// the seeds whose jobs completed.
#[derive(Clone, Debug, PartialEq)]
pub struct RobustnessRow {
    /// Fault arm name ("none" for the clean control).
    pub fault: String,
    /// Attack arm name ("benign" for the false-positive floor).
    pub attack: String,
    /// Seeds whose jobs completed and were aggregated.
    pub runs: u64,
    /// Seeds whose jobs failed (panic / blown budget) — excluded from the
    /// means, never silently absorbed into them.
    pub failed_runs: u64,
    /// Fraction of completed runs in which the attack was detected
    /// (canonical NaN when no run completed).
    pub detection_rate: f64,
    /// Median seconds from attack start to first true positive
    /// (`f64::INFINITY` when the median run never detects).
    pub median_latency_s: f64,
    /// Mean false positives per completed run.
    pub false_positives_per_run: f64,
    /// Mean per-sender attribution accuracy over runs that attributed
    /// anything (`f64::NAN` when none did).
    pub attribution_accuracy: f64,
    /// Mean minimum inter-vehicle gap (metres) over completed runs.
    pub mean_min_gap: f64,
    /// Total collisions across completed runs.
    pub collisions: u64,
}

/// The detection columns come from [`table4::aggregate`], so a robustness
/// row and a Table IV row over the same runs agree bit for bit.
fn aggregate(fault: &str, attack: &str, per_arm: u64, cells: &[RobustnessCell]) -> RobustnessRow {
    let runs = cells.len() as u64;
    let detections: Vec<DetectionSummary> = cells.iter().map(|c| c.detection.clone()).collect();
    let detection = table4::aggregate(attack, "default", &detections);
    RobustnessRow {
        fault: fault.to_string(),
        attack: attack.to_string(),
        runs,
        failed_runs: per_arm - runs,
        detection_rate: detection.detection_rate,
        median_latency_s: detection.median_latency_s,
        false_positives_per_run: detection.false_positives_per_run,
        attribution_accuracy: detection.attribution_accuracy,
        // A crash-isolated arm can lose every run: `per_frame_ratio` then
        // gives the canonical "nan", as the detection columns do.
        mean_min_gap: per_frame_ratio(cells.iter().map(|c| c.summary.min_gap).sum(), runs),
        collisions: cells.iter().map(|c| c.summary.collisions as u64).sum(),
    }
}

/// A completed robustness grid: aggregated rows plus every failed job.
#[derive(Clone, Debug, PartialEq)]
pub struct RobustnessReport {
    /// One row per (fault, attack) cell, fault-major order.
    pub rows: Vec<RobustnessRow>,
    /// `(label, reason)` for every job that did not complete.
    pub failed_jobs: Vec<(String, String)>,
}

/// Runs the robustness grid with explicit worker count and, optionally, a
/// deliberately panicking job appended to the batch.
///
/// The injected job (label `inject/panic`) is the unit tests' proof that
/// the harness is crash-isolated: the batch must still complete, report
/// every real cell, and record the failure under `failed_jobs` in the
/// canonical document. It is appended *after* the grid jobs, so the
/// positional aggregation of real arms is unaffected.
pub fn run_with(quick: bool, workers: usize, inject_panic: bool) -> RobustnessReport {
    let effort = Effort::new(quick);
    let mut batch: Batch<RobustnessCell> = Batch::new(EXPERIMENT_BASE_SEED);
    for fault in FAULTS {
        for attack in ATTACKS {
            for s in 0..SEEDS_PER_ARM {
                batch.push_with_seed(
                    format!("{fault}/{attack}/s{s}"),
                    EXPERIMENT_BASE_SEED + s,
                    move |seed| robustness_arm(fault, attack, effort, seed),
                );
            }
        }
    }
    if inject_panic {
        batch.push(INJECTED_JOB, |_seed| -> RobustnessCell {
            panic!("deliberately injected panic (crash-isolation check)")
        });
    }
    let entries = batch.run_outcomes(workers);

    let per_arm = SEEDS_PER_ARM as usize;
    let mut rows = Vec::new();
    for (fi, fault) in FAULTS.iter().enumerate() {
        for (ai, attack) in ATTACKS.iter().enumerate() {
            let base = (fi * ATTACKS.len() + ai) * per_arm;
            let cells: Vec<RobustnessCell> = entries[base..base + per_arm]
                .iter()
                .filter_map(|e| e.value.as_ok().cloned())
                .collect();
            rows.push(aggregate(fault, attack, SEEDS_PER_ARM, &cells));
        }
    }
    let failed_jobs = entries
        .iter()
        .filter_map(|e| e.value.failure().map(|r| (e.label.clone(), r.to_string())))
        .collect();
    RobustnessReport { rows, failed_jobs }
}

/// Runs the grid at default width with no injected failures.
pub fn run(quick: bool) -> RobustnessReport {
    run_with(quick, platoon_sim::harness::default_workers(), false)
}

/// Canonical JSON rendering — the golden-snapshot document. Exercises the
/// writer's non-finite encodings (benign arms never detect, so medians are
/// `"inf"` and attributions `"nan"`) and renders failed jobs explicitly.
pub fn to_canonical_json(report: &RobustnessReport) -> String {
    let mut w = json::Writer::new();
    w.obj(|w| {
        w.field_u64("base_seed", EXPERIMENT_BASE_SEED);
        w.field_u64("seeds_per_arm", SEEDS_PER_ARM);
        w.field_arr("rows", |w| {
            for r in &report.rows {
                w.elem(|w| {
                    w.obj(|w| {
                        w.field_str("fault", &r.fault);
                        w.field_str("attack", &r.attack);
                        w.field_u64("runs", r.runs);
                        w.field_u64("failed_runs", r.failed_runs);
                        w.field_f64("detection_rate", r.detection_rate);
                        w.field_f64("median_latency_s", r.median_latency_s);
                        w.field_f64("false_positives_per_run", r.false_positives_per_run);
                        w.field_f64("attribution_accuracy", r.attribution_accuracy);
                        w.field_f64("mean_min_gap", r.mean_min_gap);
                        w.field_u64("collisions", r.collisions);
                    })
                });
            }
        });
        w.field_arr("failed_jobs", |w| {
            for (label, reason) in &report.failed_jobs {
                w.elem(|w| {
                    w.obj(|w| {
                        w.field_str("label", label);
                        w.field_str("error", reason);
                    })
                });
            }
        });
    });
    w.finish()
}

/// Renders the robustness table.
pub fn render(report: &RobustnessReport) -> TextTable {
    let mut t = TextTable::new(
        "Robustness (measured) — detection quality under benign faults (default pipeline)",
        &[
            "Fault",
            "Attack",
            "Runs",
            "Failed",
            "Detection rate",
            "Median latency (s)",
            "FP/run",
            "Attribution",
            "Min gap (m)",
            "Collisions",
        ],
    );
    for r in &report.rows {
        t.row(vec![
            r.fault.clone(),
            r.attack.clone(),
            r.runs.to_string(),
            r.failed_runs.to_string(),
            num(r.detection_rate, 2),
            if r.median_latency_s.is_finite() {
                num(r.median_latency_s, 1)
            } else {
                "inf".to_string()
            },
            num(r.false_positives_per_run, 1),
            if r.attribution_accuracy.is_nan() {
                "-".to_string()
            } else {
                num(r.attribution_accuracy, 2)
            },
            num(r.mean_min_gap, 1),
            r.collisions.to_string(),
        ]);
    }
    t
}

/// The `robustness` subcommand.
pub const COMMAND: Command = Command {
    name: "robustness",
    summary: "detection quality under benign faults, written to ROBUSTNESS_<label>.json",
    operands: &[],
    flags: &[cli::QUICK, cli::WORKERS, cli::OUT],
    run: cli_main,
};

fn cli_main(args: &mut Args) -> Result<(), Exit> {
    let workers = args.workers()?;
    eprintln!(
        "running robustness grid ({} effort, {workers} workers)...",
        args.label()
    );
    let report = run_with(args.quick(), workers, false);
    println!("{}", render(&report).render());
    args.job_failures(
        report
            .failed_jobs
            .iter()
            .map(|(job, reason)| (job.as_str(), reason.as_str())),
    );
    args.write(
        &format!("ROBUSTNESS_{}.json", args.label()),
        to_canonical_json(&report),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use platoon_sim::harness::golden;
    use std::path::{Path, PathBuf};

    fn golden_path() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/robustness_quick.json")
    }

    #[test]
    fn quick_grid_degrades_gracefully_and_matches_golden() {
        let report = run(true);
        assert_eq!(report.rows.len(), FAULTS.len() * ATTACKS.len());
        assert!(report.failed_jobs.is_empty(), "{:?}", report.failed_jobs);
        for r in &report.rows {
            assert_eq!(r.runs, SEEDS_PER_ARM, "{}/{}", r.fault, r.attack);
            assert_eq!(r.failed_runs, 0);
            assert_eq!(
                r.collisions, 0,
                "benign faults must not crash trucks: {}/{}",
                r.fault, r.attack
            );
            assert!(
                r.mean_min_gap > 0.5,
                "{}/{} kept unsafe gaps: {}",
                r.fault,
                r.attack,
                r.mean_min_gap
            );
            if r.attack == "benign" {
                assert_eq!(
                    r.detection_rate, 0.0,
                    "a benign run can never be 'detected' ({})",
                    r.fault
                );
            }
        }
        let clean = report
            .rows
            .iter()
            .find(|r| r.fault == "none" && r.attack == "impersonation")
            .unwrap();
        assert!(
            clean.detection_rate > 0.0,
            "the control arm must detect the impersonator"
        );
        // Graceful, not catastrophic: the attack stays detectable in the
        // majority of degraded environments.
        let degraded_detecting = report
            .rows
            .iter()
            .filter(|r| r.attack == "impersonation" && r.fault != "none")
            .filter(|r| r.detection_rate > 0.0)
            .count();
        assert!(
            degraded_detecting >= 3,
            "detection collapsed under faults: only {degraded_detecting}/5 arms still detect"
        );
        golden::assert_matches(&golden_path(), &to_canonical_json(&report));
    }

    #[test]
    fn report_is_worker_count_invariant_and_tolerates_injected_panics() {
        let serial = run_with(true, 1, true);
        let parallel = run_with(true, 3, true);
        assert_eq!(
            to_canonical_json(&serial),
            to_canonical_json(&parallel),
            "robustness document must be byte-identical across worker counts"
        );
        assert_eq!(serial.failed_jobs.len(), 1);
        assert_eq!(serial.failed_jobs[0].0, INJECTED_JOB);
        assert!(serial.failed_jobs[0].1.contains("deliberately injected"));
        // The injected crash must not leak into any aggregated arm.
        for r in &serial.rows {
            assert_eq!(r.runs, SEEDS_PER_ARM, "{}/{}", r.fault, r.attack);
            assert_eq!(r.failed_runs, 0);
        }
        let text = to_canonical_json(&serial);
        assert!(text.contains("\"label\": \"inject/panic\""), "{text}");
        assert!(text.contains("deliberately injected"), "{text}");
    }
}
