//! Kinematic-plausibility detector: scores each beacon's claimed
//! position/speed/acceleration against physical limits and against the
//! sender's own previous claims, via [`checks::claim_faults`].

use crate::checks::{self, ClaimFault, ClaimSnapshot, KinematicLimits};
use crate::detector::{Detector, Evidence};
use crate::fusion::AlertTarget;
use crate::observation::BeaconObservation;
use std::collections::BTreeMap;

/// Tuning for the kinematic detector.
#[derive(Clone, Debug, Default)]
pub struct KinematicConfig {
    /// The plausibility limits to enforce when no regime phase matches.
    pub limits: KinematicLimits,
    /// Per-regime-phase threshold sets: when the engine announces a regime
    /// phase whose label appears here, the paired limits replace `limits`
    /// until the next phase change. Unlisted labels fall back to `limits`.
    pub phase_limits: Vec<(String, KinematicLimits)>,
}

/// Streaming kinematic-plausibility detector.
///
/// Claim history is tracked per `(observer, sender)` pair, so each
/// vehicle's view is judged independently — exactly what an on-board IDS
/// would have.
#[derive(Clone, Debug, Default)]
pub struct KinematicDetector {
    config: KinematicConfig,
    /// Limits selected by the active regime phase; `None` means the base
    /// `config.limits` apply.
    active: Option<KinematicLimits>,
    history: BTreeMap<(usize, u64), ClaimSnapshot>,
}

impl KinematicDetector {
    /// Creates the detector with the given tuning.
    pub fn new(config: KinematicConfig) -> Self {
        KinematicDetector {
            config,
            active: None,
            history: BTreeMap::new(),
        }
    }

    /// The limits currently in force (regime-selected or base).
    pub fn active_limits(&self) -> &KinematicLimits {
        self.active.as_ref().unwrap_or(&self.config.limits)
    }

    fn strength(fault: ClaimFault) -> f64 {
        match fault {
            ClaimFault::Contradiction => 0.9,
            ClaimFault::ImpossibleAccel | ClaimFault::ImpossibleSpeed => 0.8,
            ClaimFault::ImpliedAccel => 0.7,
            ClaimFault::Teleport => 0.6,
            // Needs repetition before fusion convicts: a single mismatch can
            // be an honest transient during a control correction.
            ClaimFault::AccelMismatch => 0.4,
        }
    }
}

impl Detector for KinematicDetector {
    fn name(&self) -> &'static str {
        "kinematic"
    }

    fn observe_beacon(&mut self, obs: &BeaconObservation, sink: &mut Vec<Evidence>) {
        let key = (obs.ctx.observer, obs.sender.0);
        let snap = ClaimSnapshot {
            time: obs.time,
            position: obs.claim.position,
            speed: obs.claim.speed,
            accel: obs.claim.accel,
        };
        let prev = self.history.get(&key).copied();
        let limits = *self.active_limits();
        for fault in checks::claim_faults(prev, snap, &limits) {
            sink.push(Evidence {
                time: obs.time,
                target: AlertTarget::Sender(obs.sender),
                detector: self.name(),
                strength: Self::strength(fault),
            });
        }
        self.history.insert(key, snap);
    }

    fn on_regime(&mut self, label: &str) {
        self.active = self
            .config
            .phase_limits
            .iter()
            .find(|(name, _)| name == label)
            .map(|(_, limits)| *limits);
    }

    fn clone_box(&self) -> Box<dyn Detector> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platoon_crypto::cert::PrincipalId;

    #[test]
    fn clean_stream_emits_nothing() {
        let mut det = KinematicDetector::default();
        let mut sink = Vec::new();
        for step in 0..100 {
            let obs = BeaconObservation::plausible(step as f64 * 0.1, PrincipalId(2), 0);
            det.observe_beacon(&obs, &mut sink);
        }
        assert!(sink.is_empty());
    }

    #[test]
    fn teleport_mid_stream_emits_evidence() {
        let mut det = KinematicDetector::default();
        let mut sink = Vec::new();
        for step in 0..20 {
            let mut obs = BeaconObservation::plausible(step as f64 * 0.1, PrincipalId(2), 0);
            if step >= 10 {
                obs.claim.position += 300.0;
            }
            det.observe_beacon(&obs, &mut sink);
        }
        // The teleport fires once on the jump; afterwards the shifted stream
        // is self-consistent again.
        assert_eq!(sink.len(), 1);
        assert_eq!(sink[0].target, AlertTarget::Sender(PrincipalId(2)));
        assert_eq!(sink[0].strength, 0.6);
    }

    #[test]
    fn per_observer_histories_are_independent() {
        let mut det = KinematicDetector::default();
        let mut sink = Vec::new();
        // Observer 0 sees the sender at t=0; observer 1 first sees it at
        // t=5 with a wildly different position — no fault, it has no prior.
        det.observe_beacon(
            &BeaconObservation::plausible(0.0, PrincipalId(2), 0),
            &mut sink,
        );
        let mut far = BeaconObservation::plausible(5.0, PrincipalId(2), 1);
        far.claim.position = 9999.0;
        det.observe_beacon(&far, &mut sink);
        assert!(sink.is_empty());
    }

    #[test]
    fn insider_accel_lie_emits_weak_repeated_evidence() {
        let mut det = KinematicDetector::default();
        let mut sink = Vec::new();
        for step in 0..10 {
            let mut obs = BeaconObservation::plausible(step as f64 * 0.1, PrincipalId(3), 0);
            obs.claim.accel = -4.0; // claims hard braking, kinematics say cruise
            det.observe_beacon(&obs, &mut sink);
        }
        assert!(sink.len() >= 8);
        assert!(sink.iter().all(|e| e.strength == 0.4));
    }
}
