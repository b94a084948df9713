//! The [`Detector`] trait and the [`Evidence`] currency detectors emit.

use crate::fusion::AlertTarget;
use crate::observation::{BeaconObservation, ControlObservation, SensorObservation, TickContext};

/// One unit of suspicion emitted by a detector: who it implicates, how
/// strongly, and which detector said so. Fusion aggregates these.
#[derive(Clone, Debug, PartialEq)]
pub struct Evidence {
    /// When the suspicious observation was made, seconds.
    pub time: f64,
    /// Who the evidence implicates.
    pub target: AlertTarget,
    /// Which detector produced it (stable name, used for fusion weights).
    pub detector: &'static str,
    /// Suspicion strength in `[0, 1]`; fusion multiplies by the detector's
    /// weight and accumulates with decay.
    pub strength: f64,
}

/// A streaming misbehavior detector.
///
/// Detectors are push-fed observations in reception order and emit
/// [`Evidence`] into the supplied sink. They keep whatever per-sender
/// state they need internally; determinism requires that the evidence
/// order depend only on the observation order (never on hash-map
/// iteration).
pub trait Detector: std::fmt::Debug {
    /// Stable detector name, referenced by fusion weights and alerts.
    fn name(&self) -> &'static str;

    /// Feed one received beacon.
    fn observe_beacon(&mut self, obs: &BeaconObservation, sink: &mut Vec<Evidence>) {
        let _ = (obs, sink);
    }

    /// Feed one received manoeuvre message.
    fn observe_control(&mut self, obs: &ControlObservation, sink: &mut Vec<Evidence>) {
        let _ = (obs, sink);
    }

    /// Feed one on-board sensor cross-check sample.
    fn observe_sensors(&mut self, obs: &SensorObservation, sink: &mut Vec<Evidence>) {
        let _ = (obs, sink);
    }

    /// Advance time once per simulation step — where silence-based
    /// detectors (who did we *not* hear from?) do their work.
    fn tick(&mut self, ctx: &TickContext<'_>, sink: &mut Vec<Evidence>) {
        let _ = (ctx, sink);
    }

    /// The driving regime changed: `label` is the new phase's name.
    /// Regime-aware detectors swap in per-phase threshold sets here; the
    /// default ignores the notification (regime-oblivious tuning).
    fn on_regime(&mut self, label: &str) {
        let _ = label;
    }

    /// Clones the detector (including all per-sender state) into a fresh
    /// box, for engine snapshots.
    fn clone_box(&self) -> Box<dyn Detector>;
}

impl Clone for Box<dyn Detector> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platoon_crypto::cert::PrincipalId;

    #[derive(Clone, Debug)]
    struct Null;
    impl Detector for Null {
        fn name(&self) -> &'static str {
            "null"
        }
        fn clone_box(&self) -> Box<dyn Detector> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn default_hooks_emit_nothing() {
        let mut d = Null;
        let mut sink = Vec::new();
        d.observe_beacon(
            &BeaconObservation::plausible(0.0, PrincipalId(1), 0),
            &mut sink,
        );
        d.tick(
            &TickContext {
                now: 0.0,
                comm_step: 0.1,
                members: &[],
                observers: &[],
            },
            &mut sink,
        );
        assert!(sink.is_empty());
    }
}
