//! GPS spoofing attack (§V-G, Table II).
//!
//! > "GPS spoofing ... is done by an attacker copying the GPS transmissions
//! > and replaying them at a stronger signal from another location, making
//! > the vehicle think it is elsewhere ... Such an attack often starts very
//! > close to the victim vehicle ... and can slowly start to move away from
//! > the victim, making the victim GPS think that the attacker is the GPS
//! > source and now follows them."
//!
//! The slow "walk-off" is modelled as a [`SensorFault::Ramp`] on the
//! victim's GPS: the claimed position drifts at `drift_rate` m/s with no
//! detectable jump. Because beacons carry GPS positions, the lie propagates
//! into the platoon's shared picture — which is what the VPD-ADA defense
//! (F6) cross-checks against radar/LiDAR evidence.

use platoon_dynamics::sensors::SensorFault;
use platoon_sim::attack::{Attack, SecurityAttribute};
use platoon_sim::world::World;
use rand::rngs::StdRng;
use std::any::Any;

/// Configuration of the GPS spoofing attack.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GpsSpoofConfig {
    /// Index of the victim vehicle.
    pub victim_index: usize,
    /// When the walk-off begins, seconds.
    pub start: f64,
    /// Drift rate in m/s (positive = victim believes it is further ahead).
    pub drift_rate: f64,
}

impl Default for GpsSpoofConfig {
    fn default() -> Self {
        GpsSpoofConfig {
            victim_index: 2,
            start: 10.0,
            drift_rate: 1.0,
        }
    }
}

/// The GPS spoofing attacker.
/// # Examples
///
/// ```
/// use platoon_attacks::prelude::*;
/// use platoon_sim::prelude::*;
///
/// let mut engine = Engine::new(Scenario::builder().vehicles(4).duration(5.0).build());
/// engine.add_attack(Box::new(GpsSpoofAttack::new(GpsSpoofConfig {
///     victim_index: 2,
///     start: 1.0,
///     drift_rate: 2.0,
/// })));
/// engine.run();
/// assert!(engine.world().vehicles[2].sensors.gps.fault.is_active());
/// ```
#[derive(Clone, Debug)]
pub struct GpsSpoofAttack {
    config: GpsSpoofConfig,
    engaged: bool,
}

impl GpsSpoofAttack {
    /// Creates the attack.
    pub fn new(config: GpsSpoofConfig) -> Self {
        GpsSpoofAttack {
            config,
            engaged: false,
        }
    }

    /// Whether the spoofer has locked onto the victim.
    pub fn engaged(&self) -> bool {
        self.engaged
    }
}

impl Attack for GpsSpoofAttack {
    fn name(&self) -> &'static str {
        "gps-spoof"
    }

    fn attribute(&self) -> SecurityAttribute {
        SecurityAttribute::Authenticity
    }

    fn before_comm(&mut self, world: &mut World, _rng: &mut StdRng) {
        if self.engaged || world.time < self.config.start {
            return;
        }
        let Some(v) = world.vehicles.get_mut(self.config.victim_index) else {
            return;
        };
        v.sensors.gps.fault = SensorFault::Ramp {
            rate: self.config.drift_rate,
            start: self.config.start,
        };
        self.engaged = true;
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
            .seed(23)
            .build()
    }

    #[test]
    fn spoofed_gps_poisons_claimed_positions() {
        let mut engine = Engine::new(scenario("gps"));
        engine.add_attack(Box::new(GpsSpoofAttack::new(GpsSpoofConfig::default())));
        let _ = engine.run();
        assert!(engine.attacks()[0]
            .as_any()
            .downcast_ref::<GpsSpoofAttack>()
            .unwrap()
            .engaged());
        // After 30 s of 1 m/s drift, the victim's GPS claim is ~30 m off its
        // true position.
        let victim = &engine.world().vehicles[2];
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let (claimed, _) = victim
            .sensors
            .gps
            .measure(
                victim.vehicle.state.position,
                victim.vehicle.state.speed,
                40.0,
                &mut rng,
            )
            .unwrap();
        let offset = claimed - victim.vehicle.state.position;
        assert!(
            (25.0..35.0).contains(&offset),
            "drift after 30 s should be ≈30 m, got {offset}"
        );
    }

    #[test]
    fn platoon_survives_on_radar_but_claims_diverge() {
        // CACC prefers radar ranging, so the *physical* platoon stays intact
        // — the danger is the poisoned shared picture (beacons), which is
        // what downstream consumers (and the VPD-ADA detector) see.
        let baseline = Engine::new(scenario("gps-base")).run();
        let mut engine = Engine::new(scenario("gps-attack"));
        engine.add_attack(Box::new(GpsSpoofAttack::new(GpsSpoofConfig::default())));
        let attacked = engine.run();
        assert_eq!(attacked.collisions, baseline.collisions);
        // The follower of the victim hears a predecessor beacon that has
        // walked ~30 m ahead of reality.
        let follower = &engine.world().vehicles[3];
        let heard = follower.comm.predecessor.expect("heard the victim");
        let truth = engine.world().vehicles[2].vehicle.state.position;
        assert!(
            heard.peer.position - truth > 20.0,
            "claimed position should lead truth: {} vs {}",
            heard.peer.position,
            truth
        );
    }

    #[test]
    fn no_drift_before_start() {
        let mut engine = Engine::new(scenario("gps-window"));
        engine.add_attack(Box::new(GpsSpoofAttack::new(GpsSpoofConfig {
            start: 100.0,
            ..Default::default()
        })));
        for _ in 0..100 {
            engine.step();
        }
        assert!(!engine.attacks()[0]
            .as_any()
            .downcast_ref::<GpsSpoofAttack>()
            .unwrap()
            .engaged());
        assert!(!engine.world().vehicles[2].sensors.gps.fault.is_active());
    }
}
