//! The export grid and the learned-vs-rule-based comparison.
//!
//! One export cell = one (attack arm × seed) simulation run of the
//! Table IV arm ([`build_arm`]) with a passive [`ObservationSink`] tap:
//! every accepted beacon is rendered into the shared feature vector
//! ([`platoon_detect::features`]) in arrival order, then labeled post-run
//! from the arm's [`TruthLabels`](platoon_sim::metrics::TruthLabels)
//! ([`arm_truth`], the same truth Table IV scores against) — a row is
//! malicious iff its reception time is at or
//! after `truth.start` *and* its claimed sender is guilty (explicit
//! guilty set or the `guilty_from` identity floor). Channel-level attacks
//! (jamming) remove beacons rather than forging them, so their rows are
//! benign by construction — the honest label, not a gap.
//!
//! Cells run on the deterministic [`Batch`] harness with pinned per-cell
//! seeds, so the assembled shards are byte-identical at any worker count.
//! The split rule is by seed offset: even offsets train, odd offsets
//! test — whole cells, never individual rows, so no row can leak across
//! the split.
//!
//! The learned half: logistic regression trained on the train shard
//! (deterministic SGD, [`platoon_detect::learned`]), wrapped as a
//! [`Detector`] in a single-detector pipeline, and scored on fresh
//! engine runs with the identical Table IV machinery and aggregation as
//! the rule-based `default` profile.

use crate::columnar::{CellBlock, Shard};
use platoon_core::experiments::common::{
    arm_params, arm_truth, build_arm, Effort, EXPERIMENT_BASE_SEED,
};
use platoon_core::experiments::table4;
use platoon_crypto::cert::PrincipalId;
use platoon_detect::detector::Detector;
use platoon_detect::features::{FeatureExtractor, NUM_FEATURES};
use platoon_detect::fusion::FusionConfig;
use platoon_detect::learned::{train, LearnedConfig, LearnedDetector, LogisticModel, TrainConfig};
use platoon_detect::observation::MessageObservation;
use platoon_detect::pipeline::Pipeline;
use platoon_sim::engine::ObservationSink;
use platoon_sim::harness::Batch;
use platoon_sim::prelude::{score_alerts, DetectionSummary};

/// Export seeds per attack arm (half train, half test).
pub fn seeds_per_cell(quick: bool) -> u64 {
    if quick {
        2
    } else {
        4
    }
}

/// Seeds per (attack, config) scoring arm of the comparison.
pub fn scoring_seeds(quick: bool) -> u64 {
    if quick {
        2
    } else {
        table4::SEEDS_PER_ARM
    }
}

/// Detector configurations compared in the report rows.
pub const COMPARED_CONFIGS: [&str; 2] = ["default", "learned"];

/// The streaming recorder attached to each export run: extracts feature
/// rows beacon-by-beacon and remembers (time, sender) for post-run
/// labeling.
#[derive(Debug, Default)]
struct BeaconRecorder {
    extractor: FeatureExtractor,
    features: Vec<[f64; NUM_FEATURES]>,
    meta: Vec<(f64, u64)>,
}

impl ObservationSink for BeaconRecorder {
    fn on_messages(&mut self, batch: &[MessageObservation]) {
        for obs in batch {
            if let MessageObservation::Beacon(b) = obs {
                self.features.push(self.extractor.extract(b));
                self.meta.push((b.time, b.sender.0));
            }
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Harness job body: one export cell — run, tap, label.
pub fn export_cell(attack: &str, effort: Effort, seed: u64, label: &str) -> CellBlock {
    let params = arm_params(attack);
    let arm_label = format!("{attack}/dataset");
    let mut engine = build_arm(&arm_label, attack, params.as_ref(), None, effort, seed);
    engine.attach_observation_sink(Box::new(BeaconRecorder::default()));
    engine.run();
    let truth = arm_truth(params.as_ref(), effort, &engine);
    let sink = engine.take_observation_sink().expect("sink attached");
    let recorder = sink
        .as_any()
        .downcast_ref::<BeaconRecorder>()
        .expect("recorder type");
    let features: Vec<[f32; NUM_FEATURES]> = recorder
        .features
        .iter()
        .map(|row| {
            let mut out = [0.0f32; NUM_FEATURES];
            for (o, &v) in out.iter_mut().zip(row.iter()) {
                *o = v as f32;
            }
            out
        })
        .collect();
    let labels: Vec<u8> = recorder
        .meta
        .iter()
        .map(|&(time, sender)| {
            u8::from(time >= truth.start && truth.is_guilty(PrincipalId(sender)))
        })
        .collect();
    CellBlock {
        label: label.to_string(),
        seed,
        features,
        labels,
    }
}

/// Harness job body: one learned-detector scoring run — the trained model
/// standing alone in a pipeline, fused and scored exactly like the stock
/// bank.
pub fn learned_arm(
    attack: &str,
    effort: Effort,
    seed: u64,
    model: LogisticModel,
) -> DetectionSummary {
    let params = arm_params(attack);
    let label = format!("{attack}/learned");
    let mut engine = build_arm(&label, attack, params.as_ref(), None, effort, seed);
    let detector: Box<dyn Detector> =
        Box::new(LearnedDetector::new(model, LearnedConfig::default()));
    engine.attach_detectors(Pipeline::with_detectors(
        vec![detector],
        FusionConfig::default(),
    ));
    engine.run();
    let truth = arm_truth(params.as_ref(), effort, &engine);
    score_alerts(engine.alerts(), &truth)
}

/// Row-level confusion metrics of the trained model on the test shard at
/// probability threshold 0.5.
#[derive(Clone, Debug, PartialEq)]
pub struct EvalMetrics {
    /// Test rows scored.
    pub rows: u64,
    /// Malicious rows scored ≥ 0.5.
    pub true_positives: u64,
    /// Benign rows scored ≥ 0.5.
    pub false_positives: u64,
    /// Benign rows scored < 0.5.
    pub true_negatives: u64,
    /// Malicious rows scored < 0.5.
    pub false_negatives: u64,
}

impl EvalMetrics {
    /// Fraction of flagged rows that were malicious (NaN when none were
    /// flagged).
    pub fn precision(&self) -> f64 {
        let flagged = self.true_positives + self.false_positives;
        self.true_positives as f64 / flagged as f64
    }

    /// Fraction of malicious rows that were flagged (NaN when there were
    /// none).
    pub fn recall(&self) -> f64 {
        let malicious = self.true_positives + self.false_negatives;
        self.true_positives as f64 / malicious as f64
    }

    /// Harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        2.0 * p * r / (p + r)
    }

    /// Fraction of rows classified correctly.
    pub fn accuracy(&self) -> f64 {
        (self.true_positives + self.true_negatives) as f64 / self.rows as f64
    }
}

/// Scores a model over a shard's rows at threshold 0.5.
pub fn evaluate(model: &LogisticModel, shard: &Shard) -> EvalMetrics {
    let mut m = EvalMetrics {
        rows: 0,
        true_positives: 0,
        false_positives: 0,
        true_negatives: 0,
        false_negatives: 0,
    };
    for cell in &shard.cells {
        for (row, &y) in cell.features.iter().zip(&cell.labels) {
            let mut x = [0.0f64; NUM_FEATURES];
            for (o, &v) in x.iter_mut().zip(row.iter()) {
                *o = v as f64;
            }
            let flagged = model.score(&x) >= 0.5;
            m.rows += 1;
            match (flagged, y == 1) {
                (true, true) => m.true_positives += 1,
                (true, false) => m.false_positives += 1,
                (false, false) => m.true_negatives += 1,
                (false, true) => m.false_negatives += 1,
            }
        }
    }
    m
}

/// The full dataset run: shards, the trained model, row-level eval, and
/// the Table IV-style comparison rows.
#[derive(Clone, Debug, PartialEq)]
pub struct DatasetReport {
    /// Train split (even seed offsets), grid order.
    pub train: Shard,
    /// Test split (odd seed offsets), grid order.
    pub test: Shard,
    /// The model trained on the train shard.
    pub model: LogisticModel,
    /// Row-level confusion of the model on the test shard.
    pub eval: EvalMetrics,
    /// Table IV-style rows, attack-major, `default` then `learned` per
    /// attack — the head-to-head comparison.
    pub rows: Vec<table4::Table4Row>,
}

/// Phase one alone: runs the export grid and splits it into (train, test)
/// shards by seed offset — even offsets train, odd test. Deterministic for
/// any `workers`.
pub fn export_grid(quick: bool, workers: usize) -> (Shard, Shard) {
    let effort = Effort::new(quick);
    let arms = table4::arm_names();
    let per_cell = seeds_per_cell(quick);

    let mut batch: Batch<CellBlock> = Batch::new(EXPERIMENT_BASE_SEED);
    for attack in &arms {
        for s in 0..per_cell {
            let attack = attack.clone();
            let label = format!("{attack}/s{s}");
            let cell_label = label.clone();
            batch.push_with_seed(label, EXPERIMENT_BASE_SEED + s, move |seed| {
                export_cell(&attack, effort, seed, &cell_label)
            });
        }
    }
    let entries = batch.run(workers);

    let mut train_shard = Shard::default();
    let mut test_shard = Shard::default();
    for (idx, entry) in entries.into_iter().enumerate() {
        let s = idx as u64 % per_cell;
        if s.is_multiple_of(2) {
            train_shard.cells.push(entry.value);
        } else {
            test_shard.cells.push(entry.value);
        }
    }
    (train_shard, test_shard)
}

/// Runs the full dataset pipeline: export grid → split → train → eval →
/// comparison grid. Deterministic for any `workers`.
pub fn run_with(quick: bool, workers: usize) -> DatasetReport {
    let effort = Effort::new(quick);
    let arms = table4::arm_names();
    let (train_shard, test_shard) = export_grid(quick, workers);

    let mut rows_f64: Vec<[f64; NUM_FEATURES]> = Vec::with_capacity(train_shard.rows());
    let mut labels: Vec<u8> = Vec::with_capacity(train_shard.rows());
    for cell in &train_shard.cells {
        for (row, &y) in cell.features.iter().zip(&cell.labels) {
            let mut x = [0.0f64; NUM_FEATURES];
            for (o, &v) in x.iter_mut().zip(row.iter()) {
                *o = v as f64;
            }
            rows_f64.push(x);
            labels.push(y);
        }
    }
    let model = train(&rows_f64, &labels, TrainConfig::default());
    let eval = evaluate(&model, &test_shard);

    let n_seeds = scoring_seeds(quick);
    let mut score_batch: Batch<DetectionSummary> = Batch::new(EXPERIMENT_BASE_SEED);
    for attack in &arms {
        for config in COMPARED_CONFIGS {
            for s in 0..n_seeds {
                let attack = attack.clone();
                let model = model.clone();
                score_batch.push_with_seed(
                    format!("{attack}/{config}/s{s}"),
                    EXPERIMENT_BASE_SEED + s,
                    move |seed| match config {
                        "default" => table4::detection_arm(&attack, "default", effort, seed),
                        _ => learned_arm(&attack, effort, seed, model),
                    },
                );
            }
        }
    }
    let scored = score_batch.run(workers);

    let mut rows = Vec::new();
    let per_arm = n_seeds as usize;
    for (ai, attack) in arms.iter().enumerate() {
        for (ci, config) in COMPARED_CONFIGS.iter().enumerate() {
            let base = (ai * COMPARED_CONFIGS.len() + ci) * per_arm;
            let cells: Vec<DetectionSummary> = scored[base..base + per_arm]
                .iter()
                .map(|e| e.value.clone())
                .collect();
            rows.push(table4::aggregate(attack, config, &cells));
        }
    }

    DatasetReport {
        train: train_shard,
        test: test_shard,
        model,
        eval,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insider_cell_labels_agree_with_truth() {
        let effort = Effort::new(true);
        let seed = EXPERIMENT_BASE_SEED;
        let cell = export_cell("insider-fdi", effort, seed, "insider-fdi/s0");
        assert!(!cell.features.is_empty());
        assert!(
            cell.positives() > 0,
            "the insider's post-start beacons must be labeled malicious"
        );
        assert!(
            cell.positives() < cell.labels.len() as u64,
            "pre-start and honest traffic must stay benign"
        );
        // Re-derive the ground truth independently and check every row:
        // positives are exactly the guilty sender's beacons at or after
        // the attack start.
        let params = arm_params("insider-fdi");
        let mut engine = build_arm(
            "insider-fdi/dataset",
            "insider-fdi",
            params.as_ref(),
            None,
            effort,
            seed,
        );
        engine.attach_observation_sink(Box::new(BeaconRecorder::default()));
        engine.run();
        let truth = arm_truth(params.as_ref(), effort, &engine);
        let sink = engine.take_observation_sink().unwrap();
        let recorder = sink.as_any().downcast_ref::<BeaconRecorder>().unwrap();
        assert_eq!(recorder.meta.len(), cell.labels.len());
        for (&label, &(time, sender)) in cell.labels.iter().zip(&recorder.meta) {
            assert_eq!(
                label == 1,
                time >= truth.start && truth.is_guilty(PrincipalId(sender)),
                "row label disagrees with TruthLabels at t={time} sender={sender}"
            );
        }
    }

    #[test]
    fn benign_cell_has_no_positive_rows() {
        let cell = export_cell(
            "benign",
            Effort::new(true),
            EXPERIMENT_BASE_SEED + 1,
            "benign/s1",
        );
        assert!(!cell.features.is_empty());
        assert_eq!(cell.positives(), 0, "a benign run has nothing to convict");
    }

    #[test]
    fn eval_metrics_count_the_confusion_quadrants() {
        // A hand-built model whose score depends only on feature 0:
        // standardized identity, weight 1, bias 0 → flagged iff x0 > 0.
        let mut model = LogisticModel {
            weights: [0.0; NUM_FEATURES],
            bias: 0.0,
            mean: [0.0; NUM_FEATURES],
            scale: [1.0; NUM_FEATURES],
        };
        model.weights[0] = 1.0;
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for (x0, y) in [(2.0f32, 1u8), (3.0, 0), (-2.0, 0), (-3.0, 1)] {
            let mut row = [0.0f32; NUM_FEATURES];
            row[0] = x0;
            features.push(row);
            labels.push(y);
        }
        let shard = Shard {
            cells: vec![CellBlock {
                label: "toy/s0".into(),
                seed: 0,
                features,
                labels,
            }],
        };
        let m = evaluate(&model, &shard);
        assert_eq!(
            (
                m.true_positives,
                m.false_positives,
                m.true_negatives,
                m.false_negatives
            ),
            (1, 1, 1, 1)
        );
        assert_eq!(m.rows, 4);
        assert_eq!(m.precision(), 0.5);
        assert_eq!(m.recall(), 0.5);
        assert_eq!(m.accuracy(), 0.5);
    }
}
