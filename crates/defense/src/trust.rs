//! Trust management — the REPLACE-style reputation scheme the paper
//! discusses via Hu et al. \[6\] and the trust-management survey \[20\].
//!
//! Each platoon member keeps a beta-reputation score per claimed identity.
//! Evidence is *behavioural*: a beacon consistent with the sender's own
//! previous claims (physically plausible motion) earns positive evidence;
//! an inconsistent one (teleporting position, impossible acceleration,
//! contradictory speed) earns negative evidence. When an attacker forges
//! beacons under a victim's identity, the *victim's* stream becomes
//! self-contradictory — so its reputation collapses and the platoon evicts
//! it. That is precisely the paper's §V-F "heavily damaged reputation for
//! the innocent user ... leading to being unable to join or form a platoon":
//! trust management turns impersonation into denial-of-service against the
//! victim unless paired with cryptographic sender authentication.

use platoon_crypto::cert::PrincipalId;
use platoon_detect::checks::{claim_faults, ClaimSnapshot, KinematicLimits};
use platoon_proto::envelope::Envelope;
use platoon_proto::messages::PlatoonMessage;
use platoon_sim::defense::{Defense, DetectionEvent, RejectReason};
use platoon_sim::world::World;
use platoon_v2x::message::Delivery;
use rand::rngs::StdRng;
use std::any::Any;
use std::collections::HashMap;

/// Configuration of the trust manager.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrustConfig {
    /// Trust score below which a sender's messages are rejected.
    pub eviction_threshold: f64,
    /// Exponential forgetting factor applied per second (1.0 = never
    /// forget; the half-life ablation knob of F8).
    pub forgetting_per_second: f64,
    /// Maximum physically plausible acceleration magnitude, m/s².
    pub max_accel: f64,
    /// Position-consistency tolerance in metres (beyond dead-reckoning).
    pub position_tolerance: f64,
}

impl Default for TrustConfig {
    fn default() -> Self {
        TrustConfig {
            eviction_threshold: 0.4,
            forgetting_per_second: 0.995,
            max_accel: 10.0,
            position_tolerance: 8.0,
        }
    }
}

/// Beta-reputation state for one identity.
#[derive(Clone, Copy, Debug, Default)]
struct Reputation {
    /// Positive evidence mass α.
    alpha: f64,
    /// Negative evidence mass β.
    beta: f64,
    /// Last claim, for consistency checking via `platoon_detect::checks`.
    last_claim: Option<ClaimSnapshot>,
    last_update: f64,
}

impl Reputation {
    /// Expected trust: `(α + 1) / (α + β + 2)` (uniform prior).
    fn score(&self) -> f64 {
        (self.alpha + 1.0) / (self.alpha + self.beta + 2.0)
    }
}

/// The trust-management defense.
///
/// Reputation is kept **per observer** (each receiver judges the stream it
/// itself hears), as in REPLACE; an identity is evicted platoon-wide once
/// any observer's score collapses.
/// # Examples
///
/// ```
/// use platoon_defense::prelude::*;
/// use platoon_sim::prelude::*;
///
/// let mut engine = Engine::new(Scenario::builder().vehicles(4).duration(5.0).build());
/// engine.add_defense(Box::new(TrustDefense::new(TrustConfig::default())));
/// engine.run();
/// let trust = engine.defenses()[0].as_any().downcast_ref::<TrustDefense>().unwrap();
/// assert!(trust.trust_of(platoon_crypto::PrincipalId(1)) > 0.8);
/// ```
#[derive(Clone, Debug)]
pub struct TrustDefense {
    config: TrustConfig,
    reputations: HashMap<(usize, PrincipalId), Reputation>,
    evicted: HashMap<PrincipalId, f64>,
    pending: Vec<DetectionEvent>,
    rejected: u64,
}

impl TrustDefense {
    /// Creates the trust manager.
    pub fn new(config: TrustConfig) -> Self {
        TrustDefense {
            config,
            reputations: HashMap::new(),
            evicted: HashMap::new(),
            pending: Vec::new(),
            rejected: 0,
        }
    }

    /// Lowest trust score any observer assigns to an identity (0.5 for
    /// strangers nobody has observed).
    pub fn trust_of(&self, id: PrincipalId) -> f64 {
        let scores: Vec<f64> = self
            .reputations
            .iter()
            .filter(|((_, pid), _)| *pid == id)
            .map(|(_, rep)| rep.score())
            .collect();
        if scores.is_empty() {
            0.5
        } else {
            scores.into_iter().fold(f64::INFINITY, f64::min)
        }
    }

    /// Identities evicted, with eviction times.
    pub fn evicted(&self) -> Vec<(PrincipalId, f64)> {
        let mut v: Vec<_> = self.evicted.iter().map(|(k, t)| (*k, *t)).collect();
        v.sort_by(|a, b| a.1.total_cmp(&b.1));
        v
    }

    /// Messages rejected due to distrust.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    fn observe_beacon(
        &mut self,
        observer: usize,
        sender: PrincipalId,
        now: f64,
        position: f64,
        speed: f64,
        accel: f64,
    ) {
        let config = self.config;
        let rep = self.reputations.entry((observer, sender)).or_default();

        // Forgetting.
        if rep.last_update > 0.0 {
            let dt = (now - rep.last_update).max(0.0);
            let decay = config.forgetting_per_second.powf(dt);
            rep.alpha *= decay;
            rep.beta *= decay;
        }
        rep.last_update = now;

        // The shared plausibility vocabulary from `platoon-detect`, in its
        // legacy trust profile (no claimed-vs-implied acceleration
        // cross-check): teleport, implied acceleration and the same-instant
        // contradiction test — the signature of an impersonator
        // transmitting alongside the real sender.
        let next = ClaimSnapshot {
            time: now,
            position,
            speed,
            accel,
        };
        let limits = KinematicLimits {
            max_accel: config.max_accel,
            position_tolerance: config.position_tolerance,
            accel_mismatch: None,
            ..KinematicLimits::default()
        };
        let consistent = claim_faults(rep.last_claim, next, &limits).is_empty();
        if consistent {
            rep.alpha += 1.0;
        } else {
            // Inconsistency is weighted: one contradiction outweighs many
            // routine confirmations (standard in beta-reputation systems).
            rep.beta += 5.0;
        }
        // Bound the total evidence mass so a long clean history cannot make
        // an identity effectively unimpeachable (trust inertia).
        let mass = rep.alpha + rep.beta;
        if mass > 50.0 {
            let scale = 50.0 / mass;
            rep.alpha *= scale;
            rep.beta *= scale;
        }
        rep.last_claim = Some(next);

        if rep.score() < config.eviction_threshold && !self.evicted.contains_key(&sender) {
            self.evicted.insert(sender, now);
            self.pending.push(DetectionEvent {
                suspect: sender,
                detector: "trust",
            });
        }
    }
}

impl Defense for TrustDefense {
    fn name(&self) -> &'static str {
        "trust"
    }

    fn filter_rx(
        &mut self,
        receiver_idx: usize,
        _world: &World,
        _delivery: &Delivery,
        envelope: &Envelope,
        now: f64,
    ) -> Result<(), RejectReason> {
        if self.evicted.contains_key(&envelope.sender) {
            self.rejected += 1;
            return Err(RejectReason::Distrusted);
        }
        if let Ok(PlatoonMessage::Beacon(b)) = envelope.open_unverified() {
            self.observe_beacon(
                receiver_idx,
                envelope.sender,
                now,
                b.position,
                b.speed,
                b.accel,
            );
            if self.evicted.contains_key(&envelope.sender) {
                self.rejected += 1;
                return Err(RejectReason::Distrusted);
            }
        }
        Ok(())
    }

    fn authorize_join(
        &mut self,
        requester: PrincipalId,
        _envelope: &Envelope,
        _world: &World,
        _now: f64,
    ) -> bool {
        !self.evicted.contains_key(&requester)
            && self.trust_of(requester) >= self.config.eviction_threshold
    }

    fn on_step(&mut self, _world: &mut World, _rng: &mut StdRng) -> Vec<DetectionEvent> {
        std::mem::take(&mut self.pending)
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

    fn scenario(label: &str) -> Scenario {
        Scenario::builder()
            .label(label)
            .vehicles(6)
            .duration(45.0)
            .seed(19)
            .build()
    }

    fn trust(engine: &Engine) -> &TrustDefense {
        engine.defenses()[0]
            .as_any()
            .downcast_ref::<TrustDefense>()
            .unwrap()
    }

    #[test]
    fn honest_members_keep_high_trust() {
        let mut engine = Engine::new(scenario("trust-honest"));
        engine.add_defense(Box::new(TrustDefense::new(TrustConfig::default())));
        let s = engine.run();
        assert_eq!(s.detections, 0);
        let t = trust(&engine);
        for i in 0..6 {
            let score = t.trust_of(platoon_crypto::cert::PrincipalId(i));
            assert!(score > 0.8, "vehicle {i} trust {score}");
        }
    }

    #[test]
    fn impersonation_destroys_the_victims_reputation() {
        // The paper's §V-F claim: the *innocent* user takes the blame.
        let mut engine = Engine::new(scenario("trust-imp"));
        engine.add_attack(Box::new(ImpersonationAttack::new(
            ImpersonationConfig::default(),
        )));
        engine.add_defense(Box::new(TrustDefense::new(TrustConfig::default())));
        engine.run();
        let t = trust(&engine);
        let victim = platoon_crypto::cert::PrincipalId(1);
        assert!(
            t.evicted().iter().any(|(id, _)| *id == victim),
            "the victim identity must end up evicted (reputation damage)"
        );
        assert!(t.trust_of(victim) < 0.5);
    }

    #[test]
    fn insider_impossible_claims_get_evicted() {
        // A comm-only trust scheme catches *self-inconsistent* streams: the
        // insider claims a physically impossible deceleration in every
        // beacon. (A persistent but self-consistent position offset needs
        // the sensor cross-checks of VPD-ADA instead — that boundary is the
        // §VI-B.3 trust open challenge.)
        let mut engine = Engine::new(scenario("trust-fdi"));
        engine.add_attack(Box::new(FalsificationAttack::new(FalsificationConfig {
            insider_index: 2,
            start: 10.0,
            end: f64::INFINITY,
            lie: BeaconLieConfig {
                position_offset: 0.0,
                speed_offset: 0.0,
                accel_offset: -15.0,
            },
        })));
        engine.add_defense(Box::new(TrustDefense::new(TrustConfig::default())));
        engine.run();
        let t = trust(&engine);
        assert!(
            t.evicted()
                .iter()
                .any(|(id, _)| *id == platoon_crypto::cert::PrincipalId(2)),
            "impossible claims must destroy trust; evicted: {:?}",
            t.evicted()
        );
    }

    #[test]
    fn eviction_mitigates_the_disturbance() {
        let mut undefended = Engine::new(scenario("trust-undef"));
        undefended.add_attack(Box::new(ImpersonationAttack::new(
            ImpersonationConfig::default(),
        )));
        let u = undefended.run();

        let mut defended = Engine::new(scenario("trust-def"));
        defended.add_attack(Box::new(ImpersonationAttack::new(
            ImpersonationConfig::default(),
        )));
        defended.add_defense(Box::new(TrustDefense::new(TrustConfig::default())));
        let d = defended.run();
        assert!(
            d.oscillation_energy < u.oscillation_energy,
            "evicting the poisoned identity should reduce disturbance: {} vs {}",
            d.oscillation_energy,
            u.oscillation_energy
        );
    }
}
