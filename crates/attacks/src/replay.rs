//! Replay attack (§V-A.1, Table II).
//!
//! > "Suppose an attacker recorded the message transmitted at time X and
//! > replayed that at time Y ... Member vehicle one will now discount the
//! > previous message and instead seek to close the gap. If repeatedly done
//! > ... the attacker will make the platoon oscillate."
//!
//! The attacker is a parked/roadside device: during the **record phase** it
//! overhears beacons (it needs no keys — the payload is opaque bytes that
//! remain valid if the receivers do not check freshness); during the
//! **replay phase** it retransmits recorded frames verbatim. Against a
//! platoon without anti-replay protection, stale kinematic data enters the
//! CACC law directly.

use platoon_sim::attack::{Attack, SecurityAttribute};
use platoon_sim::world::World;
use platoon_v2x::medium::Receiver;
use platoon_v2x::message::{ChannelKind, Delivery, Frame, NodeId, Payload, Position};
use rand::rngs::StdRng;
use rand::Rng;
use std::any::Any;

/// Configuration of the replay attack.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReplayConfig {
    /// Start of the recording window, seconds.
    pub record_from: f64,
    /// End of the recording window / start of replaying, seconds.
    pub replay_from: f64,
    /// Replayed frames per second.
    pub replay_rate: f64,
    /// Radio node id the attacker transmits from.
    pub attacker_node: u64,
    /// Attacker's lateral offset from the platoon lane, metres.
    pub lateral_offset: f64,
    /// Transmit power in dBm (attackers often over-power to win capture).
    pub power_dbm: f64,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            record_from: 0.0,
            replay_from: 15.0,
            replay_rate: 50.0,
            attacker_node: 6_000,
            lateral_offset: 6.0,
            power_dbm: 23.0,
        }
    }
}

/// The replay attacker.
/// # Examples
///
/// ```
/// use platoon_attacks::prelude::*;
/// use platoon_sim::prelude::*;
///
/// let mut engine = Engine::new(Scenario::builder().vehicles(4).duration(5.0).build());
/// engine.add_attack(Box::new(ReplayAttack::new(ReplayConfig {
///     record_from: 0.0,
///     replay_from: 2.0,
///     ..Default::default()
/// })));
/// engine.run();
/// let replay = engine.attacks()[0].as_any().downcast_ref::<ReplayAttack>().unwrap();
/// assert!(replay.replayed_count() > 0);
/// ```
#[derive(Clone, Debug)]
pub struct ReplayAttack {
    config: ReplayConfig,
    recorded: Vec<Payload>,
    replayed: u64,
    carry: f64,
}

impl ReplayAttack {
    /// Creates the attack.
    pub fn new(config: ReplayConfig) -> Self {
        ReplayAttack {
            config,
            recorded: Vec::new(),
            replayed: 0,
            carry: 0.0,
        }
    }

    /// Frames recorded so far.
    pub fn recorded_count(&self) -> usize {
        self.recorded.len()
    }

    /// Frames replayed so far.
    pub fn replayed_count(&self) -> u64 {
        self.replayed
    }

    /// The attacker drives alongside the platoon's mid-point.
    fn position(&self, world: &World) -> Position {
        let n = world.vehicles.len();
        let mid = world.vehicles[n / 2].vehicle.state.position;
        (mid, self.config.lateral_offset)
    }
}

impl Attack for ReplayAttack {
    fn name(&self) -> &'static str {
        "replay"
    }

    fn attribute(&self) -> SecurityAttribute {
        SecurityAttribute::Integrity
    }

    fn observe(&mut self, world: &mut World, _rng: &mut StdRng, deliveries: &[Delivery]) {
        let now = world.time;
        if now < self.config.record_from || now >= self.config.replay_from {
            return;
        }
        for d in deliveries {
            if d.receiver == NodeId(self.config.attacker_node) && d.channel == ChannelKind::Dsrc {
                self.recorded.push(d.payload.clone());
            }
        }
    }

    fn on_air(&mut self, world: &mut World, rng: &mut StdRng, frames: &mut Vec<Frame>) {
        let now = world.time;
        if now < self.config.replay_from || self.recorded.is_empty() {
            return;
        }
        // Fractional-rate accumulator over the communication step.
        self.carry += self.config.replay_rate * world.medium.step_len;
        let burst = self.carry.floor() as u64;
        self.carry -= burst as f64;
        let origin = self.position(world);
        for _ in 0..burst {
            // Replay a random recorded frame verbatim.
            let idx = rng.gen_range(0..self.recorded.len());
            frames.push(Frame {
                sender: NodeId(self.config.attacker_node),
                origin,
                power_dbm: self.config.power_dbm,
                channel: ChannelKind::Dsrc,
                payload: self.recorded[idx].clone(),
            });
            self.replayed += 1;
        }
    }

    fn receiver(&self, world: &World) -> Option<Receiver> {
        Some(Receiver {
            id: NodeId(self.config.attacker_node),
            position: self.position(world),
        })
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
        // A brake-test workload makes the recorded window contain both
        // cruise and hard-braking beacons — replaying them against the
        // later cruise phase feeds the string maximally conflicting data,
        // the exact §V-A.1 scenario ("close the gap" vs "back off").
        use platoon_dynamics::profiles::SpeedProfile;
        Scenario::builder()
            .label(label)
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

    #[test]
    fn replay_destabilises_undefended_platoon() {
        let baseline = Engine::new(scenario("replay-baseline")).run();

        let mut engine = Engine::new(scenario("replay-attack"));
        engine.add_attack(Box::new(ReplayAttack::new(ReplayConfig::default())));
        let attacked = engine.run();

        let attack = engine.attacks()[0]
            .as_any()
            .downcast_ref::<ReplayAttack>()
            .unwrap();
        assert!(
            attack.recorded_count() > 50,
            "should record plenty of beacons"
        );
        assert!(
            attack.replayed_count() > 500,
            "should replay for 45 s at 50 Hz"
        );
        assert!(
            attacked.oscillation_energy > 3.0 * baseline.oscillation_energy,
            "replay must inflate oscillation energy: attacked {} vs baseline {}",
            attacked.oscillation_energy,
            baseline.oscillation_energy
        );
        assert!(attacked.max_spacing_error > baseline.max_spacing_error);
    }

    #[test]
    fn replay_records_nothing_before_window() {
        let mut engine = Engine::new(scenario("replay-window"));
        engine.add_attack(Box::new(ReplayAttack::new(ReplayConfig {
            record_from: 1_000.0,
            replay_from: 2_000.0,
            ..Default::default()
        })));
        engine.run();
        let attack = engine.attacks()[0]
            .as_any()
            .downcast_ref::<ReplayAttack>()
            .unwrap();
        assert_eq!(attack.recorded_count(), 0);
        assert_eq!(attack.replayed_count(), 0);
    }

    #[test]
    fn signatures_alone_do_not_stop_replay() {
        // The replayed bytes carry valid signatures: a PKI deployment
        // without freshness checking still accepts them (the paper's point
        // that keys must be combined with timestamps, §VI-A.1).
        use platoon_dynamics::profiles::SpeedProfile;
        let build = |label: &str| {
            Scenario::builder()
                .label(label)
                .vehicles(6)
                .duration(60.0)
                .auth(AuthMode::Pki)
                .profile(SpeedProfile::BrakeTest {
                    cruise: 25.0,
                    low: 15.0,
                    brake_at: 8.0,
                    hold: 5.0,
                })
                .seed(3)
                .build()
        };
        let mut engine = Engine::new(build("replay-pki"));
        engine.add_attack(Box::new(ReplayAttack::new(ReplayConfig::default())));
        let attacked = engine.run();
        let baseline = Engine::new(build("pki-base")).run();
        assert!(
            attacked.oscillation_energy > 2.0 * baseline.oscillation_energy,
            "replay should still hurt under PKI without anti-replay: {} vs {}",
            attacked.oscillation_energy,
            baseline.oscillation_energy
        );
    }
}
