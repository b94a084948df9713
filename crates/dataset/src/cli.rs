//! The `dataset` subcommand: runs the factory and writes the train/test
//! shards plus the canonical `DATASET_<label>.json` summary, which this
//! module's test pins against a golden snapshot.

use crate::columnar::Shard;
use crate::factory::{run_with, scoring_seeds, seeds_per_cell, DatasetReport};
use platoon_core::experiments::common::EXPERIMENT_BASE_SEED;
use platoon_core::tables::{num, TextTable};
use platoon_detect::features::FEATURE_NAMES;
use platoon_sim::cli::{self, Args, Command, Exit};
use platoon_sim::harness::json;

/// Canonical JSON rendering of a dataset run — the golden-snapshot
/// document. Shard content is pinned indirectly through the row counts,
/// positive counts and FNV-1a digests; the model, its row-level test
/// metrics and the Table IV-style comparison rows are pinned in full.
pub fn to_canonical_json(report: &DatasetReport, quick: bool) -> String {
    let mut w = json::Writer::new();
    w.obj(|w| {
        w.field_u64("base_seed", EXPERIMENT_BASE_SEED);
        w.field_u64("seeds_per_cell", seeds_per_cell(quick));
        w.field_u64("scoring_seeds", scoring_seeds(quick));
        w.field_str("split", "even seed offsets train, odd test (whole cells)");
        w.field_arr("features", |w| {
            for name in FEATURE_NAMES {
                w.elem(|w| w.push_str(name));
            }
        });
        let shard_summary = |w: &mut json::Writer, shard: &Shard| {
            w.field_u64("cells", shard.cells.len() as u64);
            w.field_u64("rows", shard.rows() as u64);
            w.field_u64("positives", shard.positives());
            w.field_str("digest", &format!("{:016x}", shard.digest()));
            w.field_u64("bytes", shard.encode().len() as u64);
        };
        w.field_obj("train", |w| shard_summary(w, &report.train));
        w.field_obj("test", |w| shard_summary(w, &report.test));
        w.field_obj("model", |w| {
            w.field_f64("bias", report.model.bias);
            w.field_arr("weights", |w| {
                for &weight in &report.model.weights {
                    w.elem(|w| w.push_f64(weight));
                }
            });
        });
        w.field_obj("eval", |w| {
            w.field_u64("rows", report.eval.rows);
            w.field_u64("true_positives", report.eval.true_positives);
            w.field_u64("false_positives", report.eval.false_positives);
            w.field_u64("true_negatives", report.eval.true_negatives);
            w.field_u64("false_negatives", report.eval.false_negatives);
            w.field_f64("precision", report.eval.precision());
            w.field_f64("recall", report.eval.recall());
            w.field_f64("f1", report.eval.f1());
            w.field_f64("accuracy", report.eval.accuracy());
        });
        w.field_arr("rows", |w| {
            for r in &report.rows {
                w.elem(|w| {
                    w.obj(|w| {
                        w.field_str("attack", &r.attack);
                        w.field_str("config", &r.config);
                        w.field_u64("runs", r.runs);
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

/// Renders the learned-vs-rule-based comparison table.
pub fn render(report: &DatasetReport) -> TextTable {
    let mut t = TextTable::new(
        "Dataset (measured) — learned detector vs rule-based default pipeline",
        &[
            "Attack",
            "Config",
            "Runs",
            "Detection rate",
            "Median latency (s)",
            "FP/run",
            "Alerts/run",
            "Attribution",
        ],
    );
    for r in &report.rows {
        t.row(vec![
            r.attack.clone(),
            r.config.clone(),
            r.runs.to_string(),
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

/// The `dataset` subcommand; it also writes `dataset_{train,test}_<label>.bin`.
pub const COMMAND: Command = Command {
    name: "dataset",
    summary: "labeled train/test shards and the learned detector baseline, written to DATASET_<label>.json",
    operands: &[],
    flags: &[cli::QUICK, cli::WORKERS, cli::OUT],
    run: cli_main,
};

fn cli_main(args: &mut Args) -> Result<(), Exit> {
    let workers = args.workers()?;
    let (quick, label) = (args.quick(), args.label());
    eprintln!("running dataset factory ({label} effort, {workers} workers)...");
    let report = run_with(quick, workers);
    println!("{}", render(&report).render());
    eprintln!(
        "train: {} rows ({} positive), test: {} rows ({} positive)",
        report.train.rows(),
        report.train.positives(),
        report.test.rows(),
        report.test.positives()
    );
    args.write(
        &format!("DATASET_{label}.json"),
        to_canonical_json(&report, quick),
    )?;
    args.write(&format!("dataset_train_{label}.bin"), report.train.encode())?;
    args.write(&format!("dataset_test_{label}.bin"), report.test.encode())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::COMPARED_CONFIGS;
    use platoon_core::experiments::table4;
    use platoon_sim::harness::default_workers;
    use platoon_sim::harness::golden;
    use std::path::{Path, PathBuf};

    fn golden_path() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/dataset_quick.json")
    }

    #[test]
    fn quick_run_trains_a_useful_model_and_matches_golden() {
        let report = run_with(true, default_workers());
        let arms = table4::arm_names();
        assert_eq!(report.rows.len(), arms.len() * COMPARED_CONFIGS.len());

        // The split holds whole cells and never the same cell twice.
        let train_labels: Vec<&str> = report
            .train
            .cells
            .iter()
            .map(|c| c.label.as_str())
            .collect();
        for cell in &report.test.cells {
            assert!(
                !train_labels.contains(&cell.label.as_str()),
                "cell {} leaked across the split",
                cell.label
            );
        }
        assert!(report.train.rows() > 0 && report.test.rows() > 0);
        assert!(
            report.train.positives() > 0,
            "attack arms must contribute malicious training rows"
        );

        // The learned baseline must beat the always-benign majority-class
        // baseline and must never convict the benign arm.
        let majority = (report.eval.true_negatives + report.eval.false_positives) as f64
            / report.eval.rows as f64;
        assert!(
            report.eval.accuracy() > majority.max(0.8),
            "row accuracy collapsed: {:?}",
            report.eval
        );
        assert!(
            report.eval.precision() > 0.5,
            "the model flags mostly-benign rows: {:?}",
            report.eval
        );
        for r in &report.rows {
            if r.attack == "benign" {
                assert_eq!(
                    r.detection_rate, 0.0,
                    "a benign run can never be 'detected' ({})",
                    r.config
                );
            }
        }
        let learned_detecting = report
            .rows
            .iter()
            .filter(|r| r.config == "learned" && r.attack != "benign")
            .filter(|r| r.detection_rate > 0.0)
            .count();
        assert!(
            learned_detecting >= 3,
            "the learned detector should catch at least a few attack arms, got {learned_detecting}"
        );

        golden::assert_matches(&golden_path(), &to_canonical_json(&report, true));
    }
}
