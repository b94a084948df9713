//! Denial-of-service attack on a single platoon (§V-D, Table II).
//!
//! > "The most likely way this kind of attack will be carried out is by
//! > getting fake or copied IDs to connect to make a platoon leader think
//! > that there are far more members than there are. This will prevent
//! > other members from connecting to the platoon leader."
//!
//! The attacker floods the leader with join requests from throw-away
//! identities. Damage channels: the leader's processing budget saturates
//! (requests from legitimate vehicles are dropped or answered `Busy`), and
//! pending-join slots are exhausted.

use platoon_crypto::cert::PrincipalId;
use platoon_proto::envelope::Envelope;
use platoon_proto::messages::PlatoonMessage;
use platoon_sim::attack::{Attack, SecurityAttribute};
use platoon_sim::world::World;
use platoon_v2x::message::{ChannelKind, Frame, NodeId, Position};
use rand::rngs::StdRng;
use std::any::Any;

/// Configuration of the join-flood DoS.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JoinFloodConfig {
    /// Requests injected per second.
    pub rate_per_second: f64,
    /// Flood start, seconds.
    pub start: f64,
    /// Flood end, seconds.
    pub end: f64,
    /// First throw-away principal id.
    pub id_base: u64,
    /// Attacker radio node.
    pub attacker_node: u64,
}

impl Default for JoinFloodConfig {
    fn default() -> Self {
        JoinFloodConfig {
            rate_per_second: 100.0,
            start: 5.0,
            end: f64::INFINITY,
            id_base: 8_000,
            attacker_node: 8_000,
        }
    }
}

/// The join-flood attacker.
/// # Examples
///
/// ```
/// use platoon_attacks::prelude::*;
/// use platoon_sim::prelude::*;
///
/// let mut engine = Engine::new(Scenario::builder().vehicles(4).duration(5.0).build());
/// engine.add_attack(Box::new(JoinFloodAttack::new(JoinFloodConfig {
///     start: 1.0,
///     rate_per_second: 50.0,
///     ..Default::default()
/// })));
/// let summary = engine.run();
/// assert!(summary.maneuvers.join_requests > 0, "the flood reached the leader");
/// ```
#[derive(Clone, Debug)]
pub struct JoinFloodAttack {
    config: JoinFloodConfig,
    sent: u64,
    carry: f64,
}

impl JoinFloodAttack {
    /// Creates the attack.
    pub fn new(config: JoinFloodConfig) -> Self {
        JoinFloodAttack {
            config,
            sent: 0,
            carry: 0.0,
        }
    }

    /// Requests transmitted so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    fn position(&self, world: &World) -> Position {
        let tail = world
            .vehicles
            .last()
            .map(|v| v.vehicle.state.position)
            .unwrap_or(0.0);
        (tail - 25.0, 4.0)
    }
}

impl Attack for JoinFloodAttack {
    fn name(&self) -> &'static str {
        "dos-join-flood"
    }

    fn attribute(&self) -> SecurityAttribute {
        SecurityAttribute::Availability
    }

    fn on_air(&mut self, world: &mut World, _rng: &mut StdRng, frames: &mut Vec<Frame>) {
        let now = world.time;
        if now < self.config.start || now >= self.config.end {
            return;
        }
        // Fractional-rate accumulator over the 0.1 s step.
        self.carry += self.config.rate_per_second * world.medium.step_len;
        let burst = self.carry.floor() as u64;
        self.carry -= burst as f64;

        let origin = self.position(world);
        let platoon = world.vehicles[0].platoon;
        let power = world.medium.dsrc.default_tx_power_dbm;
        for _ in 0..burst {
            self.sent += 1;
            let ghost = PrincipalId(self.config.id_base + self.sent);
            let msg = PlatoonMessage::JoinRequest {
                requester: ghost,
                platoon,
                position: origin.0,
                timestamp: now,
            };
            frames.push(Frame {
                sender: NodeId(self.config.attacker_node),
                origin,
                power_dbm: power,
                channel: ChannelKind::Dsrc,
                payload: Envelope::plain(ghost, &msg).encode().into(),
            });
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
    use platoon_proto::messages::PlatoonId;
    use platoon_sim::prelude::*;

    fn scenario(label: &str, auth: AuthMode) -> Scenario {
        Scenario::builder()
            .label(label)
            .vehicles(4)
            .duration(40.0)
            .auth(auth)
            .max_platoon_size(16)
            .seed(13)
            .build()
    }

    fn joiner() -> JoinerAgent {
        JoinerAgent::new(
            PrincipalId(600),
            NodeId(600),
            JoinerCredentials::None,
            PlatoonId(1),
            1.0,
        )
    }

    #[test]
    fn flood_blocks_legitimate_joiner() {
        // Baseline: the joiner gets in quickly.
        let mut clean = Engine::new(scenario("dos-base", AuthMode::None));
        clean.add_attack(Box::new(joiner()));
        clean.run();
        let clean_outcome = clean.attacks()[0]
            .as_any()
            .downcast_ref::<JoinerAgent>()
            .unwrap()
            .outcome();
        assert!(clean_outcome.accepted);

        // Under flood: the joiner (arriving once the flood is underway) is
        // starved, denied as Busy, or heavily delayed.
        let mut engine = Engine::new(scenario("dos", AuthMode::None));
        engine.add_attack(Box::new(JoinFloodAttack::new(JoinFloodConfig::default())));
        engine.add_attack(Box::new(joiner().with_start(10.0)));
        let summary = engine.run();
        let outcome = engine.attacks()[1]
            .as_any()
            .downcast_ref::<JoinerAgent>()
            .unwrap()
            .outcome();

        let delayed = match (clean_outcome.accept_latency, outcome.accept_latency) {
            (Some(base), Some(attacked)) => attacked > 2.0 * base,
            (Some(_), None) => true, // starved entirely
            _ => false,
        };
        assert!(
            !outcome.accepted || outcome.denied || delayed,
            "flood should starve, deny or delay the legitimate joiner: {outcome:?} vs {clean_outcome:?}"
        );
        assert!(
            summary.maneuvers.joins_dropped + summary.maneuvers.joins_denied > 50,
            "leader should shed load under flood"
        );
    }

    #[test]
    fn flood_rate_is_respected() {
        let mut engine = Engine::new(scenario("dos-rate", AuthMode::None));
        engine.add_attack(Box::new(JoinFloodAttack::new(JoinFloodConfig {
            rate_per_second: 50.0,
            start: 0.0,
            ..Default::default()
        })));
        for _ in 0..100 {
            engine.step(); // 10 s
        }
        let sent = engine.attacks()[0]
            .as_any()
            .downcast_ref::<JoinFloodAttack>()
            .unwrap()
            .sent();
        assert!(
            (450..=550).contains(&sent),
            "expected ≈500 requests in 10 s, got {sent}"
        );
    }

    #[test]
    fn pki_turns_flood_into_cheap_rejections() {
        let mut engine = Engine::new(scenario("dos-pki", AuthMode::Pki));
        engine.add_attack(Box::new(JoinFloodAttack::new(JoinFloodConfig::default())));
        let summary = engine.run();
        // Unsigned requests die at envelope verification: none reach the
        // manoeuvre engine.
        assert_eq!(summary.maneuvers.join_requests, 0);
        assert!(summary.rejected_messages > 100);
    }
}
