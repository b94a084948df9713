//! Anti-replay filtering — the freshness half of Table III's "Secret and
//! Public Keys" mechanism.
//!
//! §VI-A.1: "Such algorithms will also add signatures and timestamps to the
//! messages to further improve security and preventing replay attacks."
//! Signatures alone do not stop replay (a recorded signed message remains
//! valid); this defense adds the freshness check, in both standard flavours
//! so the F1 ablation can compare them:
//!
//! * [`ReplayWindowKind::Timestamp`] — accept only messages younger than
//!   `max_age` and newer than the last accepted one per sender.
//! * [`ReplayWindowKind::Sequence`] — IPsec-style sliding bitmap over
//!   per-sender beacon sequence numbers (robust to reordering, needs no
//!   synchronised clocks).

use platoon_crypto::cert::PrincipalId;
use platoon_crypto::replay::{ReplayVerdict, SequenceWindow, TimestampWindow};
use platoon_proto::messages::PlatoonMessage;
use platoon_sim::defense::{Defense, RejectReason};
use platoon_sim::world::World;
use platoon_v2x::message::Delivery;
use std::any::Any;
use std::collections::HashMap;

/// Which freshness mechanism to run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ReplayWindowKind {
    /// Timestamp freshness with a maximum age in seconds.
    Timestamp {
        /// Maximum acceptable message age.
        max_age: f64,
    },
    /// Sequence-number sliding window (beacons only; manoeuvre messages use
    /// their timestamps).
    Sequence {
        /// Window width (1..=64).
        width: u64,
    },
}

/// The anti-replay defense.
/// # Examples
///
/// ```
/// use platoon_defense::prelude::*;
/// use platoon_sim::prelude::*;
///
/// let mut engine = Engine::new(Scenario::builder().vehicles(4).duration(5.0).build());
/// engine.add_defense(Box::new(AntiReplayDefense::timestamp()));
/// let summary = engine.run();
/// assert_eq!(summary.collisions, 0);
/// ```
#[derive(Clone, Debug)]
pub struct AntiReplayDefense {
    kind: ReplayWindowKind,
    /// Per-receiver timestamp windows (receivers do not share state).
    ts_windows: HashMap<usize, TimestampWindow<PrincipalId>>,
    /// Per-receiver sequence windows.
    seq_windows: HashMap<usize, SequenceWindow<PrincipalId>>,
    rejected: u64,
    accepted: u64,
}

impl AntiReplayDefense {
    /// Creates the defense with the given window mechanism.
    pub fn new(kind: ReplayWindowKind) -> Self {
        AntiReplayDefense {
            kind,
            ts_windows: HashMap::new(),
            seq_windows: HashMap::new(),
            rejected: 0,
            accepted: 0,
        }
    }

    /// Timestamp-window defense with the standard 0.5 s CAM freshness bound.
    pub fn timestamp() -> Self {
        Self::new(ReplayWindowKind::Timestamp { max_age: 0.5 })
    }

    /// Sequence-window defense with a 64-entry window.
    pub fn sequence() -> Self {
        Self::new(ReplayWindowKind::Sequence { width: 64 })
    }

    /// Messages rejected as replays/stale.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Messages accepted as fresh.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }
}

impl Defense for AntiReplayDefense {
    fn name(&self) -> &'static str {
        "anti-replay"
    }

    fn filter_rx(
        &mut self,
        receiver_idx: usize,
        _world: &World,
        _delivery: &Delivery,
        sender: PrincipalId,
        msg: &PlatoonMessage,
        now: f64,
    ) -> Result<(), RejectReason> {
        let verdict = match self.kind {
            ReplayWindowKind::Timestamp { max_age } => {
                let w = self
                    .ts_windows
                    .entry(receiver_idx)
                    .or_insert_with(|| TimestampWindow::new(max_age));
                w.check(sender, msg.timestamp(), now)
            }
            ReplayWindowKind::Sequence { width } => {
                if let PlatoonMessage::Beacon(b) = msg {
                    let w = self
                        .seq_windows
                        .entry(receiver_idx)
                        .or_insert_with(|| SequenceWindow::new(width));
                    w.check(sender, b.seq)
                } else {
                    // Manoeuvre messages carry no sequence number: fall back
                    // to a timestamp check with a generous bound.
                    let w = self
                        .ts_windows
                        .entry(receiver_idx)
                        .or_insert_with(|| TimestampWindow::new(1.0));
                    w.check(sender, msg.timestamp(), now)
                }
            }
        };
        if verdict.is_fresh() {
            self.accepted += 1;
            Ok(())
        } else {
            self.rejected += 1;
            Err(match verdict {
                ReplayVerdict::Replayed | ReplayVerdict::Stale => RejectReason::Replayed,
                ReplayVerdict::Fresh => unreachable!("handled above"),
            })
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn clone_box(&self) -> Option<Box<dyn Defense>> {
        Some(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platoon_attacks::prelude::*;
    use platoon_sim::prelude::*;

    fn scenario(label: &str, auth: AuthMode) -> Scenario {
        use platoon_dynamics::profiles::SpeedProfile;
        Scenario::builder()
            .label(label)
            .auth(auth)
            .vehicles(6)
            .duration(60.0)
            .profile(SpeedProfile::BrakeTest {
                cruise: 25.0,
                low: 15.0,
                brake_at: 8.0,
                hold: 5.0,
            })
            .seed(3)
            .build()
    }

    fn run_with(auth: AuthMode, defense: Option<AntiReplayDefense>) -> (RunSummary, Option<u64>) {
        let mut engine = Engine::new(scenario("anti-replay", auth));
        engine.add_attack(Box::new(ReplayAttack::new(ReplayConfig::default())));
        let has_defense = defense.is_some();
        if let Some(d) = defense {
            engine.add_defense(Box::new(d));
        }
        let s = engine.run();
        let rejected = has_defense.then(|| {
            engine.defenses()[0]
                .as_any()
                .downcast_ref::<AntiReplayDefense>()
                .unwrap()
                .rejected()
        });
        (s, rejected)
    }

    /// Asserts that `defense` filters the replayed stream and cuts the
    /// oscillation it causes, both on plain frames and under
    /// encrypt-then-MAC, where the message reads only once decrypted.
    fn neutralises_replay(defense: fn() -> AntiReplayDefense) {
        for auth in [AuthMode::None, AuthMode::EncryptedGroupMac] {
            let (undefended, _) = run_with(auth, None);
            let (defended, rejected) = run_with(auth, Some(defense()));
            assert!(
                rejected.unwrap() > 500,
                "{auth:?}: replays must be filtered: {rejected:?}"
            );
            assert!(
                defended.oscillation_energy < 0.5 * undefended.oscillation_energy,
                "{auth:?}: defense must cut oscillation: {} vs {}",
                defended.oscillation_energy,
                undefended.oscillation_energy
            );
        }
    }

    #[test]
    fn timestamp_window_neutralises_replay() {
        neutralises_replay(AntiReplayDefense::timestamp);
    }

    #[test]
    fn sequence_window_neutralises_replay() {
        neutralises_replay(AntiReplayDefense::sequence);
    }

    #[test]
    fn honest_traffic_passes_both_windows() {
        for d in [
            AntiReplayDefense::timestamp(),
            AntiReplayDefense::sequence(),
        ] {
            let mut engine = Engine::new(scenario("honest", AuthMode::None));
            engine.add_defense(Box::new(d));
            let s = engine.run();
            assert_eq!(s.collisions, 0);
            // A handful of duplicate deliveries can occur (same beacon via
            // two channels); the platoon must stay fully functional.
            assert!(s.string_stable || s.max_spacing_error < 5.0);
            let def = engine.defenses()[0]
                .as_any()
                .downcast_ref::<AntiReplayDefense>()
                .unwrap();
            assert!(def.accepted() > 1_000);
            let reject_rate = def.rejected() as f64 / (def.accepted() + def.rejected()) as f64;
            assert!(reject_rate < 0.02, "false-positive rate {reject_rate}");
        }
    }
}
