//! Jamming attack (§V-B, Table II).
//!
//! > "By flooding the communication frequencies with random noise and junk,
//! > it becomes impossible for the platoon to maintain its communications
//! > ... All savings are lost by disbanding the platoon."
//!
//! The attack plants an RF noise source that drives alongside the platoon.
//! It needs no protocol knowledge at all — only the channel frequency —
//! which is why the paper calls it "possibly the most straightforward way
//! for an attacker to affect a platoon".

use platoon_sim::attack::{Attack, SecurityAttribute};
use platoon_sim::world::World;
use platoon_v2x::jamming::{Jammer, JammingStrategy};
use platoon_v2x::message::ChannelKind;
use rand::rngs::StdRng;
use std::any::Any;

/// Configuration of the jamming attack.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JammingConfig {
    /// When the jammer switches on, seconds.
    pub start: f64,
    /// When it switches off (∞ = never).
    pub end: f64,
    /// Jammer transmit power in dBm.
    pub power_dbm: f64,
    /// Lateral offset from the platoon lane, metres.
    pub lateral_offset: f64,
    /// Temporal strategy.
    pub strategy: JammingStrategy,
    /// Channel being flooded.
    pub target: ChannelKind,
    /// Whether the jammer paces the platoon (true) or sits at a fixed
    /// roadside position (false).
    pub mobile: bool,
    /// Roadside position when `mobile == false`.
    pub fixed_position: f64,
}

impl Default for JammingConfig {
    fn default() -> Self {
        JammingConfig {
            start: 10.0,
            end: f64::INFINITY,
            power_dbm: 33.0,
            lateral_offset: 6.0,
            strategy: JammingStrategy::Continuous,
            target: ChannelKind::Dsrc,
            mobile: true,
            fixed_position: 0.0,
        }
    }
}

/// The jamming attacker.
/// # Examples
///
/// ```
/// use platoon_attacks::prelude::*;
/// use platoon_sim::prelude::*;
///
/// let mut engine = Engine::new(Scenario::builder().vehicles(4).duration(5.0).build());
/// engine.add_attack(Box::new(JammingAttack::new(JammingConfig {
///     start: 1.0,
///     ..Default::default()
/// })));
/// let summary = engine.run();
/// assert!(summary.leader_tail_pdr < 0.9, "the jammer cost beacons");
/// ```
#[derive(Clone, Debug)]
pub struct JammingAttack {
    config: JammingConfig,
    active: bool,
}

impl JammingAttack {
    /// Creates the attack.
    pub fn new(config: JammingConfig) -> Self {
        JammingAttack {
            config,
            active: false,
        }
    }

    /// Whether the jammer is currently planted in the world.
    pub fn is_active(&self) -> bool {
        self.active
    }
}

impl Attack for JammingAttack {
    fn name(&self) -> &'static str {
        "jamming"
    }

    fn attribute(&self) -> SecurityAttribute {
        SecurityAttribute::Availability
    }

    fn before_comm(&mut self, world: &mut World, _rng: &mut StdRng) {
        let now = world.time;
        let should_run = now >= self.config.start && now < self.config.end;

        // The attack owns exactly one jammer slot; re-plant it each step so
        // a mobile jammer tracks the platoon's centre.
        world.jammers.retain(|j| {
            !(j.power_dbm == self.config.power_dbm
                && j.target == self.config.target
                && j.position.1 == self.config.lateral_offset)
        });
        self.active = should_run;
        if !should_run {
            return;
        }
        let x = if self.config.mobile {
            let n = world.vehicles.len();
            world.vehicles[n / 2].vehicle.state.position
        } else {
            self.config.fixed_position
        };
        world.jammers.push(Jammer {
            position: (x, self.config.lateral_offset),
            power_dbm: self.config.power_dbm,
            strategy: self.config.strategy,
            target: self.config.target,
        });
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

    fn scenario(label: &str, comms: CommsMode) -> Scenario {
        Scenario::builder()
            .label(label)
            .vehicles(6)
            .duration(40.0)
            .comms(comms)
            .seed(5)
            .build()
    }

    #[test]
    fn jammer_kills_dsrc_pdr() {
        let baseline = Engine::new(scenario("jam-base", CommsMode::DsrcOnly)).run();

        let mut engine = Engine::new(scenario("jam", CommsMode::DsrcOnly));
        engine.add_attack(Box::new(JammingAttack::new(JammingConfig::default())));
        let attacked = engine.run();

        assert!(baseline.leader_tail_pdr > 0.9);
        assert!(
            attacked.leader_tail_pdr < 0.5 * baseline.leader_tail_pdr,
            "jamming should crush PDR: {} vs {}",
            attacked.leader_tail_pdr,
            baseline.leader_tail_pdr
        );
    }

    #[test]
    fn cacc_degrades_but_radar_prevents_collisions() {
        // The graceful-degradation story: jammed CACC falls back to radar
        // (larger gaps, worse tracking) but must not crash.
        let mut engine = Engine::new(scenario("jam-safety", CommsMode::DsrcOnly));
        engine.add_attack(Box::new(JammingAttack::new(JammingConfig::default())));
        let attacked = engine.run();
        assert_eq!(
            attacked.collisions, 0,
            "radar fallback must keep the platoon safe"
        );
        // Gaps open far beyond the CACC set-point: platooning benefit lost.
        assert!(
            attacked.max_spacing_error > 5.0,
            "jammed platoon should open large gaps, got {}",
            attacked.max_spacing_error
        );
    }

    #[test]
    fn jammer_respects_time_window() {
        let mut engine = Engine::new(scenario("jam-window", CommsMode::DsrcOnly));
        engine.add_attack(Box::new(JammingAttack::new(JammingConfig {
            start: 5.0,
            end: 10.0,
            ..Default::default()
        })));
        // Step to 7 s: active.
        for _ in 0..70 {
            engine.step();
        }
        assert_eq!(engine.world().jammers.len(), 1);
        // Step past 10 s: inactive.
        for _ in 0..40 {
            engine.step();
        }
        assert!(engine.world().jammers.is_empty());
    }

    #[test]
    fn hybrid_vlc_survives_jamming() {
        // SP-VLC relays the leader's beacon hop-by-hop down the optical
        // chain, so CACC keeps both its feeds under RF jamming and the
        // platoon holds its tight gaps; RF-only degrades to radar ACC with
        // ~3x larger spacing.
        let mut hybrid = Engine::new(scenario("jam-hybrid", CommsMode::HybridVlc));
        hybrid.add_attack(Box::new(JammingAttack::new(JammingConfig::default())));
        let hybrid_run = hybrid.run();

        let mut rf_only = Engine::new(scenario("jam-rf", CommsMode::DsrcOnly));
        rf_only.add_attack(Box::new(JammingAttack::new(JammingConfig::default())));
        let rf_run = rf_only.run();

        assert!(
            hybrid_run.max_spacing_error < 0.5 * rf_run.max_spacing_error,
            "hybrid must track far tighter under jamming: {} vs {}",
            hybrid_run.max_spacing_error,
            rf_run.max_spacing_error
        );
        assert_eq!(hybrid_run.collisions, 0);
    }
}
