//! Identity-consistency detector — Sybil / impersonation heuristics over
//! pseudonym and signature metadata.
//!
//! Four behaviours:
//!
//! * **Credential mismatch** — a signed frame whose certificate subject is
//!   not the claimed sender: direct cryptographic evidence of
//!   impersonation. Strength 1.0 (alerts on its own).
//! * **Scheme downgrade** — a sender that previously used a stronger
//!   authentication scheme arriving with a weaker one, the classic way an
//!   impersonator who lacks the victim's key betrays itself.
//! * **New-identity burst** — more first-seen identities inside a sliding
//!   window than honest churn explains: Sybil ghosts and join floods.
//!   When a burst trips, every identity in the window is implicated
//!   (including the ones that opened it), and further traffic from those
//!   identities keeps feeding suspicion.
//! * **Signal-fingerprint drift** — a sender whose receive power suddenly
//!   departs from its own long-run EWMA: a second transmitter using the
//!   same identity from elsewhere. Weak on its own (fading is noisy), so
//!   it only corroborates.

use crate::checks;
use crate::detector::{Detector, Evidence};
use crate::fusion::AlertTarget;
use crate::observation::{AuthMeta, BeaconObservation, ControlObservation};
use platoon_crypto::cert::PrincipalId;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

/// Tuning for the identity-consistency detector.
#[derive(Clone, Debug)]
pub struct IdentityConfig {
    /// Sliding window for counting first-seen identities, seconds.
    pub new_id_window: f64,
    /// First-seen identities per window tolerated before a burst trips.
    pub new_id_limit: usize,
    /// Grace period at stream start (the legitimate roster appearing all
    /// at once must not look like a Sybil burst), seconds.
    pub warmup: f64,
    /// EWMA smoothing factor for the per-sender RSSI fingerprint.
    pub rssi_alpha: f64,
    /// Deviation from the RSSI fingerprint that counts as drift, dB.
    pub rssi_deviation_db: f64,
    /// Fingerprint samples required before drift is judged.
    pub rssi_min_samples: u32,
}

impl Default for IdentityConfig {
    fn default() -> Self {
        IdentityConfig {
            new_id_window: 10.0,
            new_id_limit: 3,
            warmup: 2.0,
            rssi_alpha: 0.1,
            rssi_deviation_db: 15.0,
            rssi_min_samples: 5,
        }
    }
}

/// Streaming identity-consistency detector.
#[derive(Clone, Debug, Default)]
pub struct IdentityDetector {
    config: IdentityConfig,
    // First-sighting times of identities seen after warmup, pruned to the
    // sliding window, in sighting order. Observations arrive in reception
    // order, so the times never decrease and the window only ever loses
    // its front.
    recent_new: VecDeque<(f64, u64)>,
    seen: BTreeMap<u64, f64>,
    // Identities implicated by a burst, with the implication time.
    burst_tagged: BTreeMap<u64, f64>,
    // Strongest auth-scheme rank each sender has shown.
    max_rank: BTreeMap<u64, u8>,
    // Per-(observer, sender) RSSI fingerprint: (ewma dBm, samples).
    rssi: BTreeMap<(usize, u64), (f64, u32)>,
}

impl IdentityDetector {
    /// Creates the detector with the given tuning.
    pub fn new(config: IdentityConfig) -> Self {
        IdentityDetector {
            config,
            ..Default::default()
        }
    }

    fn check(
        &mut self,
        time: f64,
        sender: PrincipalId,
        auth: AuthMeta,
        rssi_dbm: f64,
        observer: usize,
        sink: &mut Vec<Evidence>,
    ) {
        let name = "identity";
        if let AuthMeta::Signed { subject } = auth {
            if subject != sender {
                sink.push(Evidence {
                    time,
                    target: AlertTarget::Sender(sender),
                    detector: name,
                    strength: 1.0,
                });
            }
        }
        let rank = auth.rank();
        let best = self.max_rank.entry(sender.0).or_insert(rank);
        if rank < *best {
            sink.push(Evidence {
                time,
                target: AlertTarget::Sender(sender),
                detector: name,
                strength: 0.6,
            });
        } else {
            *best = rank;
        }
        // New-identity burst accounting (global across observers: identity
        // churn is a platoon-level phenomenon).
        if let Entry::Vacant(slot) = self.seen.entry(sender.0) {
            slot.insert(time);
            if time >= self.config.warmup {
                debug_assert!(self.recent_new.back().is_none_or(|&(t, _)| t <= time));
                while self
                    .recent_new
                    .front()
                    .is_some_and(|&(t, _)| time - t > self.config.new_id_window)
                {
                    self.recent_new.pop_front();
                }
                self.recent_new.push_back((time, sender.0));
                if self.recent_new.len() == self.config.new_id_limit + 1 {
                    // Burst opens: implicate every identity in the window.
                    let tagged: Vec<u64> = self.recent_new.iter().map(|(_, id)| *id).collect();
                    for id in tagged {
                        self.burst_tagged.entry(id).or_insert(time);
                        sink.push(Evidence {
                            time,
                            target: AlertTarget::Sender(PrincipalId(id)),
                            detector: name,
                            strength: 0.5,
                        });
                    }
                } else if self.recent_new.len() > self.config.new_id_limit + 1 {
                    self.burst_tagged.entry(sender.0).or_insert(time);
                    sink.push(Evidence {
                        time,
                        target: AlertTarget::Sender(sender),
                        detector: name,
                        strength: 0.5,
                    });
                }
            }
        } else if let Some(&tagged_at) = self.burst_tagged.get(&sender.0) {
            if time - tagged_at <= self.config.new_id_window {
                // Continued traffic from a burst identity keeps corroborating.
                sink.push(Evidence {
                    time,
                    target: AlertTarget::Sender(sender),
                    detector: name,
                    strength: 0.2,
                });
            } else {
                self.burst_tagged.remove(&sender.0);
            }
        }
        // Signal-fingerprint drift.
        let entry = self
            .rssi
            .entry((observer, sender.0))
            .or_insert((rssi_dbm, 0));
        let (ewma, samples) = *entry;
        if samples >= self.config.rssi_min_samples
            && checks::rssi_anomaly(ewma, rssi_dbm, self.config.rssi_deviation_db)
        {
            sink.push(Evidence {
                time,
                target: AlertTarget::Sender(sender),
                detector: name,
                strength: 0.2,
            });
        }
        let alpha = self.config.rssi_alpha;
        *entry = (ewma + alpha * (rssi_dbm - ewma), samples.saturating_add(1));
    }
}

impl Detector for IdentityDetector {
    fn name(&self) -> &'static str {
        "identity"
    }

    fn clone_box(&self) -> Box<dyn Detector> {
        Box::new(self.clone())
    }

    fn observe_beacon(&mut self, obs: &BeaconObservation, sink: &mut Vec<Evidence>) {
        self.check(
            obs.time,
            obs.sender,
            obs.auth,
            obs.rssi_dbm,
            obs.ctx.observer,
            sink,
        );
    }

    fn observe_control(&mut self, obs: &ControlObservation, sink: &mut Vec<Evidence>) {
        self.check(
            obs.time,
            obs.sender,
            obs.auth,
            obs.rssi_dbm,
            obs.ctx.observer,
            sink,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_at_start_is_not_a_burst() {
        let mut det = IdentityDetector::default();
        let mut sink = Vec::new();
        for step in 0..300u64 {
            let t = step as f64 * 0.1;
            for id in 1..=8u64 {
                det.observe_beacon(
                    &BeaconObservation::plausible(t, PrincipalId(id), 0),
                    &mut sink,
                );
            }
        }
        assert!(sink.is_empty());
    }

    #[test]
    fn certificate_subject_mismatch_is_conclusive() {
        let mut det = IdentityDetector::default();
        let mut sink = Vec::new();
        let mut obs = BeaconObservation::plausible(1.0, PrincipalId(1), 0);
        obs.auth = AuthMeta::Signed {
            subject: PrincipalId(9000),
        };
        det.observe_beacon(&obs, &mut sink);
        assert_eq!(sink.len(), 1);
        assert_eq!(sink[0].strength, 1.0);
    }

    #[test]
    fn scheme_downgrade_is_flagged() {
        let mut det = IdentityDetector::default();
        let mut sink = Vec::new();
        let mut obs = BeaconObservation::plausible(0.0, PrincipalId(1), 0);
        obs.auth = AuthMeta::Signed {
            subject: PrincipalId(1),
        };
        det.observe_beacon(&obs, &mut sink);
        assert!(sink.is_empty());
        let mut plain = BeaconObservation::plausible(0.1, PrincipalId(1), 0);
        plain.auth = AuthMeta::Plain;
        det.observe_beacon(&plain, &mut sink);
        assert_eq!(sink.len(), 1);
        assert_eq!(sink[0].strength, 0.6);
    }

    #[test]
    fn ghost_burst_implicates_every_ghost() {
        let mut det = IdentityDetector::default();
        let mut sink = Vec::new();
        // Legitimate roster before warmup.
        for id in 1..=6u64 {
            det.observe_beacon(
                &BeaconObservation::plausible(0.1, PrincipalId(id), 0),
                &mut sink,
            );
        }
        // Five ghosts appear at t=5 within one beacon interval.
        for (i, id) in (7000..7005u64).enumerate() {
            det.observe_beacon(
                &BeaconObservation::plausible(5.0 + i as f64 * 0.01, PrincipalId(id), 0),
                &mut sink,
            );
        }
        let implicated: Vec<u64> = sink
            .iter()
            .filter_map(|e| match e.target {
                AlertTarget::Sender(p) if e.strength == 0.5 => Some(p.0),
                _ => None,
            })
            .collect();
        assert_eq!(implicated, vec![7000, 7001, 7002, 7003, 7004]);
        // Continued ghost traffic keeps corroborating.
        sink.clear();
        det.observe_beacon(
            &BeaconObservation::plausible(5.5, PrincipalId(7000), 0),
            &mut sink,
        );
        assert_eq!(sink.len(), 1);
        assert_eq!(sink[0].strength, 0.2);
    }

    #[test]
    fn rssi_fingerprint_drift_corroborates() {
        let mut det = IdentityDetector::default();
        let mut sink = Vec::new();
        for step in 0..20u64 {
            det.observe_beacon(
                &BeaconObservation::plausible(step as f64 * 0.1, PrincipalId(1), 0),
                &mut sink,
            );
        }
        assert!(sink.is_empty());
        let mut odd = BeaconObservation::plausible(2.0, PrincipalId(1), 0);
        odd.rssi_dbm = -90.0; // 30 dB below the established fingerprint
        det.observe_beacon(&odd, &mut sink);
        assert_eq!(sink.len(), 1);
        assert_eq!(sink[0].strength, 0.2);
    }
}
