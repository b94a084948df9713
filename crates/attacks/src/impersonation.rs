//! Impersonation attack (§V-F, Table II).
//!
//! > "Impersonation is when one user pretends to be another user ... The
//! > consequences of this kind of attack are that whatever the attacker
//! > does, others will think it is the innocent user ... leading to a
//! > heavily damaged reputation for the innocent user."
//!
//! The attacker has obtained a victim's identity (a stolen ID, §V-F) and
//! broadcasts beacons under it — here a *phantom emergency braking* beacon,
//! the highest-impact lie an impersonated predecessor can tell a CACC
//! string. The reputational damage channel is measured by the trust
//! defense: misbehaviour is attributed to the victim.

use platoon_crypto::cert::PrincipalId;
use platoon_proto::envelope::Envelope;
use platoon_proto::messages::{Beacon, PlatoonMessage};
use platoon_sim::attack::{Attack, SecurityAttribute};
use platoon_sim::world::World;
use platoon_v2x::message::{ChannelKind, Frame, NodeId, Position};
use rand::rngs::StdRng;
use std::any::Any;

/// Configuration of the impersonation attack.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ImpersonationConfig {
    /// The stolen identity (a platoon member's principal id).
    pub victim: u64,
    /// When the forged beacons start, seconds.
    pub start: f64,
    /// How long the impersonation lasts, seconds.
    pub duration: f64,
    /// Phantom deceleration claimed in the forged beacons, m/s² (negative).
    pub phantom_accel: f64,
    /// Forged beacons per second.
    pub rate: f64,
    /// Attacker radio node.
    pub attacker_node: u64,
}

impl Default for ImpersonationConfig {
    fn default() -> Self {
        ImpersonationConfig {
            victim: 1,
            start: 15.0,
            duration: 10.0,
            phantom_accel: -6.0,
            rate: 10.0,
            attacker_node: 9_000,
        }
    }
}

/// The impersonation attacker.
/// # Examples
///
/// ```
/// use platoon_attacks::prelude::*;
/// use platoon_sim::prelude::*;
///
/// let mut engine = Engine::new(Scenario::builder().vehicles(4).duration(5.0).build());
/// engine.add_attack(Box::new(ImpersonationAttack::new(ImpersonationConfig {
///     victim: 1,
///     start: 1.0,
///     duration: 3.0,
///     ..Default::default()
/// })));
/// engine.run();
/// ```
#[derive(Clone, Debug)]
pub struct ImpersonationAttack {
    config: ImpersonationConfig,
    forged: u64,
    last_tx: f64,
    seq: u64,
}

impl ImpersonationAttack {
    /// Creates the attack.
    pub fn new(config: ImpersonationConfig) -> Self {
        ImpersonationAttack {
            config,
            forged: 0,
            last_tx: f64::NEG_INFINITY,
            seq: 1_000_000, // ahead of the victim's own counter
        }
    }

    /// Forged beacons transmitted.
    pub fn forged(&self) -> u64 {
        self.forged
    }

    fn position(&self, world: &World) -> Position {
        let n = world.vehicles.len();
        (world.vehicles[n / 2].vehicle.state.position, 5.0)
    }
}

impl Attack for ImpersonationAttack {
    fn name(&self) -> &'static str {
        "impersonation"
    }

    fn attribute(&self) -> SecurityAttribute {
        SecurityAttribute::Integrity
    }

    fn on_air(&mut self, world: &mut World, _rng: &mut StdRng, frames: &mut Vec<Frame>) {
        let now = world.time;
        if now < self.config.start || now >= self.config.start + self.config.duration {
            return;
        }
        if now - self.last_tx < 1.0 / self.config.rate.max(1e-6) - 1e-9 {
            return;
        }
        self.last_tx = now;

        let victim = PrincipalId(self.config.victim);
        let Some(victim_idx) = world.index_of(victim) else {
            return;
        };
        let v = &world.vehicles[victim_idx];
        self.seq += 1;
        // Plausible position/speed (stolen from observation), fatal lie in
        // the acceleration and a reduced speed claim.
        let beacon = PlatoonMessage::Beacon(Beacon {
            sender: victim,
            platoon: v.platoon,
            role: v.role,
            seq: self.seq,
            timestamp: now,
            position: v.vehicle.state.position,
            speed: (v.vehicle.state.speed - 3.0).max(0.0),
            accel: self.config.phantom_accel,
            length: v.vehicle.params.length,
        });
        frames.push(Frame {
            sender: NodeId(self.config.attacker_node),
            origin: self.position(world),
            power_dbm: world.medium.dsrc.default_tx_power_dbm + 3.0,
            channel: ChannelKind::Dsrc,
            payload: Envelope::plain(victim, &beacon).encode().into(),
        });
        self.forged += 1;
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn clone_box(&self) -> Option<Box<dyn Attack>> {
        Some(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platoon_sim::prelude::*;

    fn scenario(label: &str, auth: AuthMode) -> Scenario {
        Scenario::builder()
            .label(label)
            .vehicles(6)
            .duration(45.0)
            .auth(auth)
            .seed(19)
            .build()
    }

    #[test]
    fn phantom_braking_under_stolen_identity_disrupts_followers() {
        let baseline = Engine::new(scenario("imp-base", AuthMode::None)).run();
        let mut engine = Engine::new(scenario("imp", AuthMode::None));
        engine.add_attack(Box::new(ImpersonationAttack::new(
            ImpersonationConfig::default(),
        )));
        let attacked = engine.run();
        let a = engine.attacks()[0]
            .as_any()
            .downcast_ref::<ImpersonationAttack>()
            .unwrap();
        assert!(a.forged() > 50);
        assert!(
            attacked.oscillation_energy > 2.0 * baseline.oscillation_energy,
            "phantom braking should disturb the string: {} vs {}",
            attacked.oscillation_energy,
            baseline.oscillation_energy
        );
        assert!(attacked.min_gap < baseline.min_gap);
    }

    #[test]
    fn signatures_defeat_identity_theft_without_the_key() {
        // The attacker stole the *identity* but not the signing key: under
        // PKI its forgeries fail verification.
        let baseline = Engine::new(scenario("imp-pki-base", AuthMode::Pki)).run();
        let mut engine = Engine::new(scenario("imp-pki", AuthMode::Pki));
        engine.add_attack(Box::new(ImpersonationAttack::new(
            ImpersonationConfig::default(),
        )));
        let attacked = engine.run();
        assert!(
            attacked.rejected_messages > 50,
            "forgeries must be rejected"
        );
        assert!(
            attacked.oscillation_energy < 1.5 * baseline.oscillation_energy,
            "PKI should neutralise the impact: {} vs {}",
            attacked.oscillation_energy,
            baseline.oscillation_energy
        );
    }

    #[test]
    fn attack_respects_window() {
        let mut engine = Engine::new(scenario("imp-window", AuthMode::None));
        engine.add_attack(Box::new(ImpersonationAttack::new(ImpersonationConfig {
            start: 10.0,
            duration: 5.0,
            ..Default::default()
        })));
        engine.run();
        let a = engine.attacks()[0]
            .as_any()
            .downcast_ref::<ImpersonationAttack>()
            .unwrap();
        // 5 s at 10 Hz ≈ 50 forgeries.
        assert!(
            (40..=60).contains(&(a.forged() as i64)),
            "forged {}",
            a.forged()
        );
    }
}
