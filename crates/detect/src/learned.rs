//! A small learned detector: logistic regression over the shared
//! per-beacon [`features`](crate::features), trained from scratch with
//! deterministic fixed-epoch SGD — no external ML dependency.
//!
//! The model is the *baseline* half of the learned-vs-engineered
//! comparison: the dataset factory trains it on labeled exported rows and
//! wraps it in [`LearnedDetector`], which implements the same
//! [`Detector`] trait as the rule-based bank so the Table IV machinery
//! can score both head-to-head.
//!
//! Everything here is bit-reproducible: feature standardization uses the
//! training split's moments, the per-epoch row order comes from a seeded
//! SplitMix64 Fisher–Yates shuffle, and no wall clock or global RNG is
//! consulted anywhere.

use crate::detector::{Detector, Evidence};
use crate::features::{FeatureExtractor, NUM_FEATURES};
use crate::fusion::AlertTarget;
use crate::observation::BeaconObservation;

/// A trained logistic-regression model over the shared feature vector,
/// with the training split's standardization folded in.
#[derive(Clone, Debug, PartialEq)]
pub struct LogisticModel {
    /// Per-feature weights (standardized space).
    pub weights: [f64; NUM_FEATURES],
    /// Bias term.
    pub bias: f64,
    /// Per-feature training means (for standardization at inference).
    pub mean: [f64; NUM_FEATURES],
    /// Per-feature training standard deviations (floored at 1e-9).
    pub scale: [f64; NUM_FEATURES],
}

impl LogisticModel {
    /// Malice probability for one raw (unstandardized) feature vector.
    pub fn score(&self, x: &[f64; NUM_FEATURES]) -> f64 {
        let mut z = self.bias;
        for (i, &xi) in x.iter().enumerate() {
            z += self.weights[i] * (xi - self.mean[i]) / self.scale[i];
        }
        sigmoid(z)
    }
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z.clamp(-30.0, 30.0)).exp())
}

/// SGD hyperparameters. All defaults are deliberately modest: the point
/// is an honest baseline, not a tuned contender.
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    /// Full passes over the training split.
    pub epochs: u32,
    /// Initial learning rate; decays as `lr / (1 + epoch)`.
    pub learning_rate: f64,
    /// L2 regularization strength.
    pub l2: f64,
    /// Shuffle seed (per-epoch orders derive from it).
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 5,
            learning_rate: 0.1,
            l2: 1e-4,
            seed: 0x5eed_da7a,
        }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Trains a logistic-regression model with deterministic fixed-epoch SGD.
///
/// `labels[i]` is the truth label of `rows[i]` (0 benign, 1 malicious).
/// Identical inputs produce a bit-identical model on every worker count
/// and every run.
pub fn train(rows: &[[f64; NUM_FEATURES]], labels: &[u8], config: TrainConfig) -> LogisticModel {
    assert_eq!(rows.len(), labels.len(), "row/label length mismatch");
    let n = rows.len().max(1) as f64;
    let mut mean = [0.0; NUM_FEATURES];
    for x in rows {
        for i in 0..NUM_FEATURES {
            mean[i] += x[i];
        }
    }
    for m in &mut mean {
        *m /= n;
    }
    let mut scale = [0.0; NUM_FEATURES];
    for x in rows {
        for i in 0..NUM_FEATURES {
            let d = x[i] - mean[i];
            scale[i] += d * d;
        }
    }
    for s in &mut scale {
        *s = (*s / n).sqrt().max(1e-9);
    }

    let mut model = LogisticModel {
        weights: [0.0; NUM_FEATURES],
        bias: 0.0,
        mean,
        scale,
    };
    let mut order: Vec<u32> = (0..rows.len() as u32).collect();
    for epoch in 0..config.epochs {
        // Seeded Fisher–Yates: the order is a pure function of
        // (seed, epoch), never of memory layout or thread timing.
        let mut rng_state = config.seed ^ ((epoch as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f));
        for i in (1..order.len()).rev() {
            let j = (splitmix64(&mut rng_state) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let lr = config.learning_rate / (1.0 + epoch as f64);
        for &ri in &order {
            let x = &rows[ri as usize];
            let y = labels[ri as usize] as f64;
            let err = model.score(x) - y;
            for (i, &raw) in x.iter().enumerate() {
                let xi = (raw - model.mean[i]) / model.scale[i];
                model.weights[i] -= lr * (err * xi + config.l2 * model.weights[i]);
            }
            model.bias -= lr * err;
        }
    }
    model
}

/// Tuning for the online wrapper around a trained model.
#[derive(Clone, Copy, Debug)]
pub struct LearnedConfig {
    /// Malice probability above which one beacon yields evidence.
    pub threshold: f64,
    /// Evidence strength per flagged beacon.
    pub strength: f64,
}

impl Default for LearnedConfig {
    fn default() -> Self {
        LearnedConfig {
            threshold: 0.9,
            strength: 0.6,
        }
    }
}

/// The trained model wrapped as a streaming [`Detector`]: extracts the
/// shared feature vector per received beacon and emits sender-attributed
/// evidence whenever the model's malice probability crosses the
/// threshold. Slots into
/// [`Pipeline::with_detectors`](crate::pipeline::Pipeline::with_detectors)
/// exactly like a stock detector, so fusion, hysteresis and alert scoring
/// are identical for both halves of the comparison.
#[derive(Clone, Debug)]
pub struct LearnedDetector {
    model: LogisticModel,
    config: LearnedConfig,
    extractor: FeatureExtractor,
}

impl LearnedDetector {
    /// Wraps a trained model with the given tuning.
    pub fn new(model: LogisticModel, config: LearnedConfig) -> Self {
        LearnedDetector {
            model,
            config,
            extractor: FeatureExtractor::new(),
        }
    }
}

impl Detector for LearnedDetector {
    fn name(&self) -> &'static str {
        "learned"
    }

    fn clone_box(&self) -> Box<dyn Detector> {
        Box::new(self.clone())
    }

    fn observe_beacon(&mut self, obs: &BeaconObservation, sink: &mut Vec<Evidence>) {
        let x = self.extractor.extract(obs);
        let p = self.model.score(&x);
        if p >= self.config.threshold {
            sink.push(Evidence {
                time: obs.time,
                target: AlertTarget::Sender(obs.sender),
                detector: self.name(),
                strength: self.config.strength,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platoon_crypto::cert::PrincipalId;

    /// A toy separable problem: benign rows near the plausible stream,
    /// malicious rows with a huge dead-reckoning jump.
    fn toy_rows() -> (Vec<[f64; NUM_FEATURES]>, Vec<u8>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        let mut ex = FeatureExtractor::new();
        for step in 0..400u64 {
            let t = step as f64 * 0.1;
            let malicious = step % 4 == 3;
            let mut obs = BeaconObservation::plausible(t, PrincipalId(1 + (step % 4)), 0);
            if malicious {
                obs.claim.position += 300.0;
                obs.claim.timestamp -= 2.0;
            }
            rows.push(ex.extract(&obs));
            labels.push(u8::from(malicious));
        }
        (rows, labels)
    }

    #[test]
    fn sgd_separates_a_toy_problem() {
        let (rows, labels) = toy_rows();
        let model = train(&rows, &labels, TrainConfig::default());
        let mut correct = 0;
        for (x, &y) in rows.iter().zip(&labels) {
            let p = model.score(x);
            if (p >= 0.5) == (y == 1) {
                correct += 1;
            }
        }
        let acc = correct as f64 / rows.len() as f64;
        assert!(acc > 0.9, "toy accuracy {acc}");
    }

    #[test]
    fn training_is_bit_deterministic() {
        let (rows, labels) = toy_rows();
        let a = train(&rows, &labels, TrainConfig::default());
        let b = train(&rows, &labels, TrainConfig::default());
        assert_eq!(a, b);
        let c = train(
            &rows,
            &labels,
            TrainConfig {
                seed: 7,
                ..Default::default()
            },
        );
        assert_ne!(a.weights, c.weights, "seed must steer the shuffle");
    }

    #[test]
    fn detector_flags_the_planted_stream() {
        let (rows, labels) = toy_rows();
        let model = train(&rows, &labels, TrainConfig::default());
        let mut det = LearnedDetector::new(model, LearnedConfig::default());
        let mut sink = Vec::new();
        for step in 0..100u64 {
            let t = step as f64 * 0.1;
            let mut obs = BeaconObservation::plausible(t, PrincipalId(9), 0);
            if step >= 50 {
                obs.claim.position += 300.0;
                obs.claim.timestamp -= 2.0;
            }
            det.observe_beacon(&obs, &mut sink);
        }
        assert!(!sink.is_empty(), "planted anomaly must yield evidence");
        assert!(sink.iter().all(|e| e.time >= 5.0), "benign prefix silent");
    }
}
