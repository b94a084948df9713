//! Insider false-data injection (§V-A, Table II's FDI umbrella).
//!
//! > "Another way an attacker can carry out an FDI attack \[is\] when an
//! > attacker is part of a platoon. The attacker can deliberately transmit
//! > false or misleading information. Members of the platoon will react to
//! > this information believing that it is from a legitimate source."
//!
//! The insider is a *legitimate member with valid keys* — the case where
//! signatures and MACs are powerless, because the attacker's credentials
//! are real. Only behavioural defenses (control-algorithm plausibility
//! checks, VPD-ADA, trust management) can catch it, which is exactly the
//! ablation experiment F1/F6 runs.

use platoon_sim::attack::{Attack, SecurityAttribute};
use platoon_sim::world::{BeaconLie, World};
use rand::rngs::StdRng;
use std::any::Any;

/// Configuration of the insider falsification attack.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FalsificationConfig {
    /// Index of the malicious member.
    pub insider_index: usize,
    /// When the lying starts, seconds.
    pub start: f64,
    /// When it stops (∞ = never).
    pub end: f64,
    /// The lie injected into every beacon.
    pub lie: BeaconLieConfig,
}

/// Serializable mirror of [`BeaconLie`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BeaconLieConfig {
    /// Position offset, metres.
    pub position_offset: f64,
    /// Speed offset, m/s.
    pub speed_offset: f64,
    /// Acceleration offset, m/s².
    pub accel_offset: f64,
}

impl Default for FalsificationConfig {
    fn default() -> Self {
        FalsificationConfig {
            insider_index: 2,
            start: 10.0,
            end: f64::INFINITY,
            lie: BeaconLieConfig {
                position_offset: 0.0,
                speed_offset: 0.0,
                accel_offset: -4.0,
            },
        }
    }
}

/// The insider attacker.
/// # Examples
///
/// ```
/// use platoon_attacks::prelude::*;
/// use platoon_sim::prelude::*;
///
/// let mut engine = Engine::new(Scenario::builder().vehicles(4).duration(5.0).build());
/// engine.add_attack(Box::new(FalsificationAttack::new(FalsificationConfig {
///     insider_index: 2,
///     start: 1.0,
///     ..Default::default()
/// })));
/// engine.run();
/// assert!(engine.world().vehicles[2].beacon_lie.is_some());
/// ```
#[derive(Clone, Debug)]
pub struct FalsificationAttack {
    config: FalsificationConfig,
    lying: bool,
}

impl FalsificationAttack {
    /// Creates the attack.
    pub fn new(config: FalsificationConfig) -> Self {
        FalsificationAttack {
            config,
            lying: false,
        }
    }
}

impl Attack for FalsificationAttack {
    fn name(&self) -> &'static str {
        "insider-fdi"
    }

    fn attribute(&self) -> SecurityAttribute {
        SecurityAttribute::Integrity
    }

    fn before_comm(&mut self, world: &mut World, _rng: &mut StdRng) {
        let now = world.time;
        let should_lie = now >= self.config.start && now < self.config.end;
        let Some(v) = world.vehicles.get_mut(self.config.insider_index) else {
            return;
        };
        if should_lie && !self.lying {
            v.beacon_lie = Some(BeaconLie {
                position_offset: self.config.lie.position_offset,
                speed_offset: self.config.lie.speed_offset,
                accel_offset: self.config.lie.accel_offset,
            });
            self.lying = true;
        } else if !should_lie && self.lying {
            v.beacon_lie = None;
            self.lying = false;
        }
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
            .duration(40.0)
            .auth(auth)
            .seed(37)
            .build()
    }

    #[test]
    fn insider_lies_destabilise_followers() {
        let baseline = Engine::new(scenario("fdi-base", AuthMode::None)).run();
        let mut engine = Engine::new(scenario("fdi", AuthMode::None));
        engine.add_attack(Box::new(FalsificationAttack::new(
            FalsificationConfig::default(),
        )));
        let attacked = engine.run();
        assert!(
            attacked.oscillation_energy > 2.0 * baseline.oscillation_energy,
            "insider lies should disturb the string: {} vs {}",
            attacked.oscillation_energy,
            baseline.oscillation_energy
        );
    }

    #[test]
    fn valid_credentials_defeat_pki() {
        // The key point: the insider signs its lies with a *valid* key, so a
        // PKI deployment accepts every forged beacon.
        let mut engine = Engine::new(scenario("fdi-pki", AuthMode::Pki));
        engine.add_attack(Box::new(FalsificationAttack::new(
            FalsificationConfig::default(),
        )));
        let attacked = engine.run();
        assert_eq!(
            attacked.rejected_messages, 0,
            "signed insider lies must pass verification"
        );
        let baseline = Engine::new(scenario("fdi-pki-base", AuthMode::Pki)).run();
        assert!(
            attacked.oscillation_energy > 2.0 * baseline.oscillation_energy,
            "PKI alone cannot stop an insider: {} vs {}",
            attacked.oscillation_energy,
            baseline.oscillation_energy
        );
    }

    #[test]
    fn lie_window_respected() {
        let mut engine = Engine::new(scenario("fdi-window", AuthMode::None));
        engine.add_attack(Box::new(FalsificationAttack::new(FalsificationConfig {
            start: 5.0,
            end: 10.0,
            ..Default::default()
        })));
        for _ in 0..120 {
            engine.step();
        }
        assert!(engine.world().vehicles[2].beacon_lie.is_none());
    }
}
