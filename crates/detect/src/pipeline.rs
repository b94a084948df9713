//! The assembled detection bank: five detectors feeding weighted fusion,
//! with an alert log.

use crate::detector::{Detector, Evidence};
use crate::frequency::{FrequencyConfig, FrequencyDetector};
use crate::freshness::{FreshnessConfig, FreshnessDetector};
use crate::fusion::{Alert, Fusion, FusionConfig};
use crate::identity::{IdentityConfig, IdentityDetector};
use crate::kinematic::{KinematicConfig, KinematicDetector};
use crate::observation::{
    BeaconObservation, ControlObservation, MessageObservation, SensorObservation, TickContext,
};
use crate::range::{RangeConfig, RangeConsistencyDetector};

/// Configuration of the full detection bank.
#[derive(Clone, Debug, Default)]
pub struct PipelineConfig {
    /// Kinematic-plausibility tuning.
    pub kinematic: KinematicConfig,
    /// Range-consistency tuning.
    pub range: RangeConfig,
    /// Frequency/silence tuning.
    pub frequency: FrequencyConfig,
    /// Identity-consistency tuning.
    pub identity: IdentityConfig,
    /// Replay/freshness tuning.
    pub freshness: FreshnessConfig,
    /// Fusion weights and hysteresis thresholds.
    pub fusion: FusionConfig,
}

impl PipelineConfig {
    /// The default profile: per-detector defaults, fusion raise threshold
    /// 1.0 with a 3 s suspicion half-life. Balanced for low false
    /// positives on honest traffic.
    pub fn default_profile() -> Self {
        PipelineConfig::default()
    }

    /// The strict profile: a lower raise threshold and a longer suspicion
    /// half-life, so weaker/slower-accumulating evidence convicts. Higher
    /// detection rate, higher false-positive risk.
    pub fn strict() -> Self {
        PipelineConfig {
            fusion: FusionConfig {
                raise_threshold: 0.6,
                half_life: 5.0,
                ..Default::default()
            },
            ..Default::default()
        }
    }
}

/// The streaming detection pipeline: every observation is offered to each
/// detector in a fixed order; the evidence they emit is fused; crossing
/// the raise threshold appends an [`Alert`] to the log. Cloning copies
/// the detector banks, fusion tracks and alert log (engine snapshots).
#[derive(Clone, Debug)]
pub struct Pipeline {
    detectors: Vec<Box<dyn Detector>>,
    fusion: Fusion,
    scratch: Vec<Evidence>,
    fresh: Vec<Alert>,
    log: Vec<Alert>,
    evidence_count: u64,
}

impl Pipeline {
    /// Assembles the stock five-detector bank under the given config.
    pub fn new(config: PipelineConfig) -> Self {
        let detectors: Vec<Box<dyn Detector>> = vec![
            Box::new(KinematicDetector::new(config.kinematic)),
            Box::new(RangeConsistencyDetector::new(config.range)),
            Box::new(FrequencyDetector::new(config.frequency)),
            Box::new(IdentityDetector::new(config.identity)),
            Box::new(FreshnessDetector::new(config.freshness)),
        ];
        Pipeline {
            detectors,
            fusion: Fusion::new(config.fusion),
            scratch: Vec::new(),
            fresh: Vec::new(),
            log: Vec::new(),
            evidence_count: 0,
        }
    }

    /// Assembles a pipeline over an arbitrary detector bank — e.g. a
    /// learned detector standing alone so its alert stream can be scored
    /// by the same machinery as the stock bank's.
    pub fn with_detectors(detectors: Vec<Box<dyn Detector>>, fusion: FusionConfig) -> Self {
        Pipeline {
            detectors,
            fusion: Fusion::new(fusion),
            scratch: Vec::new(),
            fresh: Vec::new(),
            log: Vec::new(),
            evidence_count: 0,
        }
    }

    fn drain_scratch(&mut self) {
        self.evidence_count += self.scratch.len() as u64;
        for evidence in self.scratch.drain(..) {
            if let Some(alert) = self.fusion.ingest(&evidence) {
                self.fresh.push(alert.clone());
                self.log.push(alert);
            }
        }
    }

    /// Feeds one received beacon through every detector.
    pub fn observe_beacon(&mut self, obs: &BeaconObservation) {
        for det in &mut self.detectors {
            det.observe_beacon(obs, &mut self.scratch);
        }
        self.drain_scratch();
    }

    /// Feeds one received manoeuvre message through every detector.
    pub fn observe_control(&mut self, obs: &ControlObservation) {
        for det in &mut self.detectors {
            det.observe_control(obs, &mut self.scratch);
        }
        self.drain_scratch();
    }

    /// Feeds a whole delivery round's received messages in arrival order.
    ///
    /// Equivalent to calling [`observe_beacon`](Self::observe_beacon) /
    /// [`observe_control`](Self::observe_control) per element — the
    /// detectors' stateful per-sender tracks see the identical interleaved
    /// stream — but lets the caller accumulate observations into one
    /// reusable buffer per simulation step and hand them over in a single
    /// batched call.
    pub fn ingest_messages(&mut self, batch: &[MessageObservation]) {
        for obs in batch {
            match obs {
                MessageObservation::Beacon(b) => self.observe_beacon(b),
                MessageObservation::Control(c) => self.observe_control(c),
            }
        }
    }

    /// Feeds one on-board sensor cross-check sample.
    pub fn observe_sensors(&mut self, obs: &SensorObservation) {
        for det in &mut self.detectors {
            det.observe_sensors(obs, &mut self.scratch);
        }
        self.drain_scratch();
    }

    /// Announces a driving-regime phase change to every detector, so
    /// regime-aware detectors can swap in per-phase threshold sets.
    pub fn on_regime(&mut self, label: &str) {
        for det in &mut self.detectors {
            det.on_regime(label);
        }
    }

    /// Advances time once per simulation step: silence monitoring plus
    /// fusion decay.
    pub fn tick(&mut self, ctx: &TickContext<'_>) {
        for det in &mut self.detectors {
            det.tick(ctx, &mut self.scratch);
        }
        self.drain_scratch();
        self.fusion.tick(ctx.now);
    }

    /// Drains and returns the alerts raised since the last call.
    pub fn take_alerts(&mut self) -> Vec<Alert> {
        std::mem::take(&mut self.fresh)
    }

    /// The full alert log since construction, in raise order.
    pub fn alerts(&self) -> &[Alert] {
        &self.log
    }

    /// Total pieces of evidence fused so far (throughput diagnostics).
    pub fn evidence_count(&self) -> u64 {
        self.evidence_count
    }

    /// Read access to the fusion layer (scores, flags).
    pub fn fusion(&self) -> &Fusion {
        &self.fusion
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::AlertTarget;
    use platoon_crypto::cert::PrincipalId;

    #[test]
    fn clean_synthetic_stream_raises_nothing() {
        let mut pipeline = Pipeline::new(PipelineConfig::default_profile());
        let members = [PrincipalId(1), PrincipalId(2), PrincipalId(3)];
        for step in 0..300u64 {
            let t = step as f64 * 0.1;
            for (idx, member) in members.iter().enumerate() {
                for obs_idx in 0..members.len() {
                    if obs_idx != idx {
                        pipeline.observe_beacon(&BeaconObservation::plausible(t, *member, obs_idx));
                    }
                }
            }
            pipeline.tick(&TickContext {
                now: t,
                comm_step: 0.1,
                members: &members,
                observers: &[0, 1, 2],
            });
        }
        assert!(pipeline.take_alerts().is_empty());
        assert!(pipeline.alerts().is_empty());
    }

    #[test]
    fn teleporting_sender_is_convicted_and_attributed() {
        let mut pipeline = Pipeline::new(PipelineConfig::default_profile());
        for step in 0..60u64 {
            let t = step as f64 * 0.1;
            let mut obs = BeaconObservation::plausible(t, PrincipalId(7), 0);
            if step >= 20 {
                obs.claim.position += 250.0;
                obs.claim.accel = 15.0; // physically impossible claim
            }
            pipeline.observe_beacon(&obs);
        }
        let alerts = pipeline.take_alerts();
        assert!(!alerts.is_empty());
        assert_eq!(alerts[0].target, AlertTarget::Sender(PrincipalId(7)));
        assert!(alerts[0]
            .contributors
            .iter()
            .any(|(name, _)| *name == "kinematic"));
    }

    #[test]
    fn identical_streams_produce_identical_alert_logs() {
        let run = || {
            let mut pipeline = Pipeline::new(PipelineConfig::strict());
            for step in 0..80u64 {
                let t = step as f64 * 0.1;
                let mut obs = BeaconObservation::plausible(t, PrincipalId(3), 1);
                if step % 7 == 0 {
                    obs.claim.speed += 20.0;
                }
                pipeline.observe_beacon(&obs);
            }
            pipeline.alerts().to_vec()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }
}
