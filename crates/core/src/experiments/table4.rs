//! Experiment T4: "Table IV" — detection quality of the online
//! misbehavior-detection subsystem.
//!
//! The paper's Tables II/III say what each attack *does* and which
//! mechanism *prevents* it; this table answers the open-challenge question
//! the paper leaves implicit (§VI-B): if a platoon runs an online
//! misbehaviour detector instead of (or alongside) hard prevention, how
//! reliably — and how *fast* — does each catalogued attack get caught, and
//! who gets blamed?
//!
//! Every arm is built by [`build_arm`] and runs with the
//! [`platoon_detect`] pipeline attached. It is labelled with ground truth
//! from [`AttackParams::truth`](platoon_attacks::params::AttackParams::truth)
//! (through [`arm_truth`]), and its alert stream is scored with
//! [`score_alerts`]. Rows aggregate a few seeds per
//! (attack × detector-config) cell plus a benign arm per config whose only
//! job is to expose the false-positive floor.
//!
//! Honest coverage gaps are part of the result: the passive eavesdropper
//! and the one-shot fake-manoeuvre forgery are expected to sail past a
//! plausibility pipeline (rate 0, latency ∞) — exactly the blind spots
//! Table III's cryptographic rows exist to close.

use super::common::{arm_params, arm_truth, build_arm, Effort, EXPERIMENT_BASE_SEED};
use crate::tables::{num, TextTable};
use platoon_detect::pipeline::PipelineConfig;
use platoon_sim::harness::{json, Batch};
use platoon_sim::prelude::{per_frame_ratio, score_alerts, DetectionSummary};

/// Detector configurations swept by the experiment.
pub const CONFIGS: [&str; 2] = ["default", "strict"];

/// Independent seeds per (attack, config) cell.
pub const SEEDS_PER_ARM: u64 = 3;

/// The pipeline configuration for a named detector profile. Attach it via
/// [`Engine::attach_detector_config`](platoon_sim::engine::Engine::attach_detector_config)
/// so scenario-dependent tuning (the frequency detector's nominal beacon
/// rate) is resolved against the scenario rather than left at the 10 Hz
/// default.
pub fn profile_for(config: &str) -> PipelineConfig {
    match config {
        "default" => PipelineConfig::default_profile(),
        "strict" => PipelineConfig::strict(),
        // Regime-experiment profiles (not part of the Table IV sweep —
        // CONFIGS stays as-is so the golden document keeps its shape).
        "cruise" => super::regimes::cruise_profile(),
        "regime-aware" => super::regimes::regime_aware_profile(),
        other => panic!("unknown detector config {other}"),
    }
}

/// Harness job body: one (attack, config, seed) detection run, scored
/// against [`arm_truth`].
pub fn detection_arm(attack: &str, config: &str, effort: Effort, seed: u64) -> DetectionSummary {
    let params = arm_params(attack);
    let label = format!("{attack}/{config}");
    let mut engine = build_arm(&label, attack, params.as_ref(), None, effort, seed);
    engine.attach_detector_config(profile_for(config));
    engine.run();
    let truth = arm_truth(params.as_ref(), effort, &engine);
    score_alerts(engine.alerts(), &truth)
}

/// One row of the measured Table IV: an (attack, detector-config) cell
/// aggregated over [`SEEDS_PER_ARM`] seeds.
#[derive(Clone, Debug, PartialEq)]
pub struct Table4Row {
    /// Attack machine name ("benign" for the false-positive floor arm).
    pub attack: String,
    /// Detector configuration name.
    pub config: String,
    /// Seeds aggregated.
    pub runs: u64,
    /// Fraction of runs in which the attack was detected at all.
    pub detection_rate: f64,
    /// Median seconds from attack start to the first true positive
    /// (`f64::INFINITY` when the median run never detects).
    pub median_latency_s: f64,
    /// Mean false positives per run (every alert, for the benign arm).
    pub false_positives_per_run: f64,
    /// Mean alerts per run.
    pub alerts_per_run: f64,
    /// Mean per-sender attribution accuracy over runs that attributed
    /// anything (`f64::NAN` when no run did — e.g. pure channel alarms).
    pub attribution_accuracy: f64,
}

/// Aggregates one (attack, config) cell's per-seed summaries into a row.
/// Public so the dataset experiment scores its learned detector, and the
/// robustness experiment its faulted cells, with the identical
/// aggregation.
///
/// Every mean runs through [`per_frame_ratio`]: a crash-isolated cell can
/// lose every seed, and its columns must then carry the canonical "nan"
/// rather than a platform NaN.
pub fn aggregate(attack: &str, config: &str, cells: &[DetectionSummary]) -> Table4Row {
    let runs = cells.len() as u64;
    let detected = cells.iter().filter(|c| c.detected).count();
    let mut latencies: Vec<f64> = cells.iter().map(|c| c.first_detection_latency).collect();
    latencies.sort_by(f64::total_cmp);
    let median_latency_s = latencies
        .get(latencies.len() / 2)
        .copied()
        .unwrap_or(f64::NAN);
    let mean =
        |f: &dyn Fn(&DetectionSummary) -> f64| per_frame_ratio(cells.iter().map(f).sum(), runs);
    let attributed: Vec<f64> = cells
        .iter()
        .map(|c| c.attribution_accuracy)
        .filter(|a| !a.is_nan())
        .collect();
    Table4Row {
        attack: attack.to_string(),
        config: config.to_string(),
        runs,
        detection_rate: per_frame_ratio(detected as f64, runs),
        median_latency_s,
        false_positives_per_run: mean(&|c| c.false_positives as f64),
        alerts_per_run: mean(&|c| c.alerts as f64),
        attribution_accuracy: per_frame_ratio(attributed.iter().sum(), attributed.len() as u64),
    }
}

/// The arm list: every catalogued attack plus the benign floor. Public so
/// the job service can enumerate the Table IV grid without re-deriving it.
pub fn arm_names() -> Vec<String> {
    let mut v: Vec<String> = platoon_attacks::registry::catalog()
        .iter()
        .map(|d| d.name.to_string())
        .collect();
    v.push("benign".to_string());
    v
}

/// Runs the full Table IV measurement on the experiment harness.
///
/// Arm labels (`attack/config/s<i>`) pin the per-arm seeds, so the table is
/// identical for any worker count.
pub fn run(quick: bool) -> Vec<Table4Row> {
    let effort = Effort::new(quick);
    let arm_names = arm_names();
    let mut batch: Batch<DetectionSummary> = Batch::new(EXPERIMENT_BASE_SEED);
    for config in CONFIGS {
        for attack in &arm_names {
            for s in 0..SEEDS_PER_ARM {
                let attack = attack.clone();
                batch.push_with_seed(
                    format!("{attack}/{config}/s{s}"),
                    EXPERIMENT_BASE_SEED + s,
                    move |seed| detection_arm(&attack, config, effort, seed),
                );
            }
        }
    }
    let entries = batch.run(platoon_sim::harness::default_workers());

    let mut rows = Vec::new();
    let per_arm = SEEDS_PER_ARM as usize;
    for (ci, config) in CONFIGS.iter().enumerate() {
        for (ai, attack) in arm_names.iter().enumerate() {
            let base = (ci * arm_names.len() + ai) * per_arm;
            let cells: Vec<DetectionSummary> = entries[base..base + per_arm]
                .iter()
                .map(|e| e.value.clone())
                .collect();
            rows.push(aggregate(attack, config, &cells));
        }
    }
    rows
}

/// Canonical JSON rendering of the measured rows — the golden-snapshot
/// document for the detection-quality runs. Exercises the writer's
/// non-finite encodings: never-detected cells carry `"inf"` latencies and
/// channel-only cells a `"nan"` attribution.
pub fn to_canonical_json(rows: &[Table4Row]) -> String {
    let mut w = json::Writer::new();
    w.obj(|w| {
        w.field_u64("base_seed", EXPERIMENT_BASE_SEED);
        w.field_u64("seeds_per_arm", SEEDS_PER_ARM);
        w.field_arr("rows", |w| {
            for r in rows {
                w.elem(|w| {
                    w.obj(|w| {
                        w.field_str("attack", &r.attack);
                        w.field_str("config", &r.config);
                        w.field_f64("detection_rate", r.detection_rate);
                        w.field_f64("median_latency_s", r.median_latency_s);
                        w.field_f64("false_positives_per_run", r.false_positives_per_run);
                        w.field_f64("alerts_per_run", r.alerts_per_run);
                        w.field_f64("attribution_accuracy", r.attribution_accuracy);
                    })
                });
            }
        });
    });
    w.finish()
}

/// Renders the measured Table IV.
pub fn render(rows: &[Table4Row]) -> TextTable {
    let mut t = TextTable::new(
        "Table IV (measured) — online detection quality per attack × detector config",
        &[
            "Attack",
            "Config",
            "Detection rate",
            "Median latency (s)",
            "FP/run",
            "Alerts/run",
            "Attribution",
        ],
    );
    for r in rows {
        t.row(vec![
            r.attack.clone(),
            r.config.clone(),
            num(r.detection_rate, 2),
            if r.median_latency_s.is_finite() {
                num(r.median_latency_s, 1)
            } else {
                "inf".to_string()
            },
            num(r.false_positives_per_run, 1),
            num(r.alerts_per_run, 1),
            if r.attribution_accuracy.is_nan() {
                "-".to_string()
            } else {
                num(r.attribution_accuracy, 2)
            },
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row<'a>(rows: &'a [Table4Row], attack: &str, config: &str) -> &'a Table4Row {
        rows.iter()
            .find(|r| r.attack == attack && r.config == config)
            .unwrap()
    }

    #[test]
    fn detection_quality_meets_the_design_floor() {
        let rows = run(true);
        assert_eq!(
            rows.len(),
            CONFIGS.len() * (platoon_attacks::registry::catalog().len() + 1)
        );

        // The benign floor: an honest platoon must stay quiet.
        for config in CONFIGS {
            let b = row(&rows, "benign", config);
            assert_eq!(b.detection_rate, 0.0, "{config}: benign runs detected?");
            assert!(
                b.false_positives_per_run < 1.0,
                "{config}: benign FP floor too high: {}",
                b.false_positives_per_run
            );
        }

        // Attacks squarely inside the pipeline's coverage must be caught in
        // every seed under the default config, promptly.
        for attack in ["sybil", "dos-join-flood", "impersonation", "insider-fdi"] {
            let r = row(&rows, attack, "default");
            assert_eq!(r.detection_rate, 1.0, "{attack} must always be detected");
            assert!(
                r.median_latency_s < 10.0,
                "{attack} latency {}",
                r.median_latency_s
            );
        }

        // The passive eavesdropper is an honest coverage gap: nothing to
        // observe, nothing detected, latency infinite.
        let e = row(&rows, "eavesdrop", "default");
        assert_eq!(e.detection_rate, 0.0);
        assert!(e.median_latency_s.is_infinite());

        // The strict profile trades threshold for recall: it never detects
        // less than the default profile does.
        for attack in arm_names() {
            let d = row(&rows, &attack, "default");
            let s = row(&rows, &attack, "strict");
            assert!(
                s.detection_rate >= d.detection_rate,
                "{attack}: strict {} < default {}",
                s.detection_rate,
                d.detection_rate
            );
        }

        let rendered = render(&rows).render();
        assert!(rendered.contains("Table IV"));
        assert!(rendered.contains("benign"));
    }

    #[test]
    fn quick_table_matches_golden() {
        use platoon_sim::harness::golden::{self, Tolerance};
        let rows = run(true);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/golden/table4_quick.json");
        golden::assert_matches(&path, &to_canonical_json(&rows), Tolerance::snapshot());
    }
}
