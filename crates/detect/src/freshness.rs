//! Replay / freshness detector: stale timestamps, sequence and timestamp
//! regressions, and exact duplicates.
//!
//! A replay attacker retransmits verbatim recorded frames, so the claimed
//! generation timestamp lags reception time by the recording delay and the
//! sequence numbers run backwards relative to the victim's live stream.
//! Both trip here. Exact duplicates (same sequence *and* timestamp) are
//! scored weakly — multi-channel delivery duplicates frames legitimately,
//! so only a sustained duplicate stream should convict.

use crate::detector::{Detector, Evidence};
use crate::fusion::AlertTarget;
use crate::observation::{BeaconObservation, ControlObservation};
use std::collections::BTreeMap;

/// Tuning for the freshness detector.
#[derive(Clone, Debug)]
pub struct FreshnessConfig {
    /// Maximum tolerated age of a claimed generation timestamp, seconds.
    pub max_age: f64,
    /// Evidence strength for a stale or regressed frame.
    pub violation_strength: f64,
    /// Evidence strength for an exact duplicate (weak by design).
    pub duplicate_strength: f64,
}

impl Default for FreshnessConfig {
    fn default() -> Self {
        FreshnessConfig {
            max_age: 1.0,
            violation_strength: 0.7,
            duplicate_strength: 0.15,
        }
    }
}

/// Streaming replay/freshness detector.
#[derive(Clone, Debug, Default)]
pub struct FreshnessDetector {
    config: FreshnessConfig,
    // Highest (seq, timestamp) seen per (observer, sender).
    newest: BTreeMap<(usize, u64), (u64, f64)>,
}

impl FreshnessDetector {
    /// Creates the detector with the given tuning.
    pub fn new(config: FreshnessConfig) -> Self {
        FreshnessDetector {
            config,
            newest: BTreeMap::new(),
        }
    }

    fn push(
        &self,
        time: f64,
        sender: platoon_crypto::cert::PrincipalId,
        strength: f64,
        sink: &mut Vec<Evidence>,
    ) {
        sink.push(Evidence {
            time,
            target: AlertTarget::Sender(sender),
            detector: "freshness",
            strength,
        });
    }
}

impl Detector for FreshnessDetector {
    fn name(&self) -> &'static str {
        "freshness"
    }

    fn clone_box(&self) -> Box<dyn Detector> {
        Box::new(self.clone())
    }

    fn observe_beacon(&mut self, obs: &BeaconObservation, sink: &mut Vec<Evidence>) {
        let cfg = self.config.clone();
        if obs.time - obs.claim.timestamp > cfg.max_age {
            self.push(obs.time, obs.sender, cfg.violation_strength, sink);
        }
        let key = (obs.ctx.observer, obs.sender.0);
        if let Some(&(seq, ts)) = self.newest.get(&key) {
            if obs.claim.seq == seq && obs.claim.timestamp == ts {
                self.push(obs.time, obs.sender, cfg.duplicate_strength, sink);
            } else if obs.claim.seq < seq || obs.claim.timestamp < ts - 1e-9 {
                self.push(obs.time, obs.sender, cfg.violation_strength, sink);
            }
        }
        let entry = self.newest.entry(key).or_insert((0, f64::NEG_INFINITY));
        entry.0 = entry.0.max(obs.claim.seq);
        entry.1 = entry.1.max(obs.claim.timestamp);
    }

    fn observe_control(&mut self, obs: &ControlObservation, sink: &mut Vec<Evidence>) {
        if obs.time - obs.timestamp > self.config.max_age {
            self.push(obs.time, obs.sender, self.config.violation_strength, sink);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platoon_crypto::cert::PrincipalId;

    #[test]
    fn live_stream_is_fresh() {
        let mut det = FreshnessDetector::default();
        let mut sink = Vec::new();
        for step in 0..100u64 {
            let obs = BeaconObservation::plausible(step as f64 * 0.1, PrincipalId(1), 0);
            det.observe_beacon(&obs, &mut sink);
        }
        assert!(sink.is_empty());
    }

    #[test]
    fn replayed_recording_is_stale_and_regressed() {
        let mut det = FreshnessDetector::default();
        let mut sink = Vec::new();
        // Live frames up to t=10…
        for step in 0..100u64 {
            det.observe_beacon(
                &BeaconObservation::plausible(step as f64 * 0.1, PrincipalId(1), 0),
                &mut sink,
            );
        }
        // …then a frame recorded at t=2.0 is replayed at t=10.0: stale
        // (8 s old) and both seq and timestamp regress.
        let mut replay = BeaconObservation::plausible(2.0, PrincipalId(1), 0);
        replay.time = 10.0;
        det.observe_beacon(&replay, &mut sink);
        assert_eq!(sink.len(), 2);
        assert!(sink.iter().all(|e| e.strength == 0.7));
    }

    #[test]
    fn exact_duplicate_is_weak_evidence() {
        let mut det = FreshnessDetector::default();
        let mut sink = Vec::new();
        let obs = BeaconObservation::plausible(0.5, PrincipalId(1), 0);
        det.observe_beacon(&obs, &mut sink);
        det.observe_beacon(&obs, &mut sink);
        assert_eq!(sink.len(), 1);
        assert_eq!(sink[0].strength, 0.15);
    }

    #[test]
    fn stale_control_message_is_flagged() {
        let mut det = FreshnessDetector::default();
        let mut sink = Vec::new();
        let base = BeaconObservation::plausible(10.0, PrincipalId(4), 0);
        let control = ControlObservation {
            time: 10.0,
            sender: base.sender,
            kind: crate::observation::ControlKind::JoinRequest {
                claimed_position: 50.0,
            },
            timestamp: 3.0,
            rssi_dbm: base.rssi_dbm,
            channel: base.channel,
            auth: base.auth,
            ctx: base.ctx,
        };
        det.observe_control(&control, &mut sink);
        assert_eq!(sink.len(), 1);
        assert_eq!(sink[0].strength, 0.7);
    }
}
