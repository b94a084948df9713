//! Sensor jamming and spoofing attack (§V-G, Table II).
//!
//! > "While jamming a whole platoon can be done, it is far easier for an
//! > attacker to jam individual sensors ... Any attack on the cameras will
//! > leave the vehicle with blind spots ... Almost every sensor on a
//! > vehicle could be jammed."
//!
//! Two modes on the victim's forward radar:
//!
//! * **Jam** ([`SensorFault::Outage`]) — the laser/flood attack that blinds
//!   the sensor: the victim falls back to communicated positions (if any)
//!   or degrades to blind mode.
//! * **Spoof** ([`SensorFault::Bias`]) — false ranging: the victim believes
//!   the gap is larger than reality and closes in, eroding the safety
//!   margin.

use platoon_dynamics::sensors::SensorFault;
use platoon_sim::attack::{Attack, SecurityAttribute};
use platoon_sim::world::World;
use rand::rngs::StdRng;
use std::any::Any;

/// What is done to the victim's radar.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SensorAttackMode {
    /// Blind the sensor entirely.
    Jam,
    /// Inject a constant range bias (positive = gap appears larger).
    Spoof {
        /// Range bias in metres.
        bias: f64,
    },
    /// Freeze the sensor at a fixed reading.
    Freeze {
        /// The stuck range in metres.
        value: f64,
    },
}

/// Configuration of the sensor attack.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SensorSpoofConfig {
    /// Index of the victim vehicle.
    pub victim_index: usize,
    /// Attack mode.
    pub mode: SensorAttackMode,
    /// When the attack starts, seconds.
    pub start: f64,
    /// When it stops (∞ = never).
    pub end: f64,
    /// Whether the LiDAR is hit as well (a thorough attacker blinds both
    /// ranging modalities; leaving LiDAR intact is what lets VPD-ADA
    /// cross-check).
    pub also_lidar: bool,
}

impl Default for SensorSpoofConfig {
    fn default() -> Self {
        SensorSpoofConfig {
            victim_index: 2,
            mode: SensorAttackMode::Spoof { bias: 8.0 },
            start: 10.0,
            end: f64::INFINITY,
            also_lidar: false,
        }
    }
}

/// The sensor attacker.
/// # Examples
///
/// ```
/// use platoon_attacks::prelude::*;
/// use platoon_sim::prelude::*;
///
/// let mut engine = Engine::new(Scenario::builder().vehicles(4).duration(5.0).build());
/// engine.add_attack(Box::new(SensorSpoofAttack::new(SensorSpoofConfig {
///     mode: SensorAttackMode::Spoof { bias: 5.0 },
///     start: 1.0,
///     ..Default::default()
/// })));
/// let summary = engine.run();
/// assert!(summary.min_gap < 10.0, "the victim closed in on the false range");
/// ```
#[derive(Clone, Debug)]
pub struct SensorSpoofAttack {
    config: SensorSpoofConfig,
    active: bool,
}

impl SensorSpoofAttack {
    /// Creates the attack.
    pub fn new(config: SensorSpoofConfig) -> Self {
        SensorSpoofAttack {
            config,
            active: false,
        }
    }

    /// Whether the fault is currently applied.
    pub fn is_active(&self) -> bool {
        self.active
    }

    fn fault(&self) -> SensorFault {
        match self.config.mode {
            SensorAttackMode::Jam => SensorFault::Outage,
            SensorAttackMode::Spoof { bias } => SensorFault::Bias { offset: bias },
            SensorAttackMode::Freeze { value } => SensorFault::Frozen { value },
        }
    }
}

impl Attack for SensorSpoofAttack {
    fn name(&self) -> &'static str {
        "sensor-spoof"
    }

    fn attribute(&self) -> SecurityAttribute {
        SecurityAttribute::Authenticity
    }

    fn before_comm(&mut self, world: &mut World, _rng: &mut StdRng) {
        let now = world.time;
        let should_run = now >= self.config.start && now < self.config.end;
        let Some(v) = world.vehicles.get_mut(self.config.victim_index) else {
            return;
        };
        if should_run && !self.active {
            v.sensors.radar.fault = self.fault();
            if self.config.also_lidar {
                v.sensors.lidar.fault = self.fault();
            }
            self.active = true;
        } else if !should_run && self.active {
            v.sensors.radar.fault = SensorFault::None;
            v.sensors.lidar.fault = SensorFault::None;
            self.active = false;
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

    fn scenario(label: &str) -> Scenario {
        Scenario::builder()
            .label(label)
            .vehicles(6)
            .duration(40.0)
            .seed(29)
            .build()
    }

    #[test]
    fn range_bias_erodes_safety_margin() {
        let baseline = Engine::new(scenario("spoof-base")).run();
        let mut engine = Engine::new(scenario("spoof"));
        engine.add_attack(Box::new(SensorSpoofAttack::new(
            SensorSpoofConfig::default(),
        )));
        let attacked = engine.run();
        // The victim believes the gap is 8 m larger and closes in by ≈8 m.
        assert!(
            attacked.min_gap < baseline.min_gap - 4.0,
            "biased radar should shrink the real gap: {} vs {}",
            attacked.min_gap,
            baseline.min_gap
        );
    }

    #[test]
    fn large_bias_causes_collision() {
        let mut engine = Engine::new(scenario("spoof-crash"));
        engine.add_attack(Box::new(SensorSpoofAttack::new(SensorSpoofConfig {
            mode: SensorAttackMode::Spoof { bias: 15.0 },
            ..Default::default()
        })));
        let attacked = engine.run();
        // A 15 m bias on a 10 m gap drives the victim into its predecessor
        // (CACC cross-checks nothing in the undefended baseline).
        assert!(
            attacked.collisions >= 1 || attacked.min_gap < 1.0,
            "15 m bias should be (near-)fatal: collisions {}, min gap {}",
            attacked.collisions,
            attacked.min_gap
        );
    }

    #[test]
    fn radar_jam_falls_back_to_comm_without_crash() {
        let mut engine = Engine::new(scenario("radar-jam"));
        engine.add_attack(Box::new(SensorSpoofAttack::new(SensorSpoofConfig {
            mode: SensorAttackMode::Jam,
            ..Default::default()
        })));
        let attacked = engine.run();
        // Beacons still provide spacing; degraded but safe.
        assert_eq!(attacked.collisions, 0);
    }

    #[test]
    fn fault_clears_after_window() {
        let mut engine = Engine::new(scenario("spoof-window"));
        engine.add_attack(Box::new(SensorSpoofAttack::new(SensorSpoofConfig {
            start: 5.0,
            end: 10.0,
            ..Default::default()
        })));
        for _ in 0..120 {
            engine.step();
        }
        assert!(!engine.world().vehicles[2].sensors.radar.fault.is_active());
    }
}
