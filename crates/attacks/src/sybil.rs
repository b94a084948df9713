//! Sybil attack (§V-A.2, Table II).
//!
//! > "The attacker joins the platoon and then creates multiple ghost
//! > vehicles that also request to join the platoon. The presence of which
//! > will leave the platoon with large gaps in it or for the platoon leader
//! > to think there are more vehicles part of the platoon than there really
//! > are."
//!
//! One physical radio fabricates `ghost_count` identities. Each ghost sends
//! join requests (claiming mid-platoon positions so gaps open *inside* the
//! string) and then beacons an "arrival" so the undefended leader even
//! completes the join — inflating the roster with phantoms. With PKI
//! admission, ghosts present no valid certificate and are denied at the
//! door.

use platoon_crypto::cert::PrincipalId;
use platoon_proto::envelope::Envelope;
use platoon_proto::messages::{Beacon, PlatoonMessage, Role};
use platoon_sim::attack::{Attack, SecurityAttribute};
use platoon_sim::world::World;
use platoon_v2x::medium::Receiver;
use platoon_v2x::message::{ChannelKind, Delivery, Frame, NodeId, Position};
use rand::rngs::StdRng;
use std::any::Any;
use std::collections::HashSet;

/// Configuration of the Sybil attack.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SybilConfig {
    /// Number of ghost identities fabricated.
    pub ghost_count: usize,
    /// When the ghosts start requesting, seconds.
    pub start: f64,
    /// Seconds between request rounds.
    pub request_period: f64,
    /// First principal id used for ghosts.
    pub ghost_id_base: u64,
    /// Radio node of the attacker's single physical device.
    pub attacker_node: u64,
    /// Whether ghosts claim mid-platoon positions (forcing inside gaps)
    /// rather than tail positions.
    pub claim_mid_platoon: bool,
}

impl Default for SybilConfig {
    fn default() -> Self {
        SybilConfig {
            ghost_count: 5,
            start: 5.0,
            request_period: 1.0,
            ghost_id_base: 7_000,
            attacker_node: 7_000,
            claim_mid_platoon: true,
        }
    }
}

/// The Sybil attacker.
/// # Examples
///
/// ```
/// use platoon_attacks::prelude::*;
/// use platoon_sim::prelude::*;
///
/// let mut engine = Engine::new(Scenario::builder().vehicles(4).duration(5.0).build());
/// engine.add_attack(Box::new(SybilAttack::new(SybilConfig {
///     start: 1.0,
///     ghost_count: 3,
///     ..Default::default()
/// })));
/// engine.run();
/// // The undefended roster now contains phantoms.
/// assert!(engine.maneuvers().roster().len() >= engine.world().vehicles.len());
/// ```
#[derive(Clone, Debug)]
pub struct SybilAttack {
    config: SybilConfig,
    last_round: f64,
    /// Ghosts that have been granted a slot (observed JoinAccept).
    accepted_ghosts: HashSet<PrincipalId>,
    /// Slots granted per ghost.
    granted: Vec<(PrincipalId, u32)>,
    requests_sent: u64,
    seq: u64,
}

impl SybilAttack {
    /// Creates the attack.
    pub fn new(config: SybilConfig) -> Self {
        SybilAttack {
            config,
            last_round: f64::NEG_INFINITY,
            accepted_ghosts: HashSet::new(),
            granted: Vec::new(),
            requests_sent: 0,
            seq: 0,
        }
    }

    /// Ghost identities whose joins were accepted.
    pub fn accepted_ghost_count(&self) -> usize {
        self.accepted_ghosts.len()
    }

    /// Total join requests transmitted.
    pub fn requests_sent(&self) -> u64 {
        self.requests_sent
    }

    fn position(&self, world: &World) -> Position {
        let tail = world
            .vehicles
            .last()
            .map(|v| v.vehicle.state.position)
            .unwrap_or(0.0);
        (tail - 30.0, 3.0)
    }

    fn ghost_principal(&self, i: usize) -> PrincipalId {
        PrincipalId(self.config.ghost_id_base + i as u64)
    }
}

impl Attack for SybilAttack {
    fn name(&self) -> &'static str {
        "sybil"
    }

    fn attribute(&self) -> SecurityAttribute {
        SecurityAttribute::Authenticity
    }

    fn on_air(&mut self, world: &mut World, _rng: &mut StdRng, frames: &mut Vec<Frame>) {
        let now = world.time;
        if now < self.config.start {
            return;
        }
        let origin = self.position(world);
        let power = world.medium.dsrc.default_tx_power_dbm;
        let platoon = world.vehicles[0].platoon;

        // Arrival beacons for ghosts already granted slots: the phantom
        // "arrives" so the leader completes the join.
        let leader_pos = world.vehicles[0].vehicle.state.position;
        let spacing = world.vehicles[0].vehicle.params.length + 10.0;
        for &(ghost, slot) in &self.granted {
            self.seq += 1;
            let beacon = PlatoonMessage::Beacon(Beacon {
                sender: ghost,
                platoon,
                role: Role::JoinLeave,
                seq: self.seq,
                timestamp: now,
                position: leader_pos - slot as f64 * spacing,
                speed: world.vehicles[0].vehicle.state.speed,
                accel: 0.0,
                length: world.vehicles[0].vehicle.params.length,
            });
            frames.push(Frame {
                sender: NodeId(self.config.attacker_node),
                origin,
                power_dbm: power,
                channel: ChannelKind::Dsrc,
                payload: Envelope::plain(ghost, &beacon).encode().into(),
            });
        }

        // Join-request rounds.
        if now - self.last_round < self.config.request_period {
            return;
        }
        self.last_round = now;
        let n = world.vehicles.len();
        for i in 0..self.config.ghost_count {
            let ghost = self.ghost_principal(i);
            if self.accepted_ghosts.contains(&ghost) {
                continue;
            }
            let claimed_position = if self.config.claim_mid_platoon {
                // Spread claims across the interior of the string.
                let slot = 1 + (i % (n - 1).max(1));
                leader_pos - slot as f64 * spacing + spacing / 2.0
            } else {
                origin.0
            };
            let msg = PlatoonMessage::JoinRequest {
                requester: ghost,
                platoon,
                position: claimed_position,
                timestamp: now,
            };
            frames.push(Frame {
                sender: NodeId(self.config.attacker_node),
                origin,
                power_dbm: power,
                channel: ChannelKind::Dsrc,
                payload: Envelope::plain(ghost, &msg).encode().into(),
            });
            self.requests_sent += 1;
        }
    }

    fn observe(&mut self, _world: &mut World, _rng: &mut StdRng, deliveries: &[Delivery]) {
        for d in deliveries {
            if d.receiver != NodeId(self.config.attacker_node) {
                continue;
            }
            let Ok(env) = Envelope::decode(&d.payload) else {
                continue;
            };
            if let Ok(PlatoonMessage::JoinAccept {
                requester, slot, ..
            }) = env.open_unverified()
            {
                let base = self.config.ghost_id_base;
                if (base..base + self.config.ghost_count as u64).contains(&requester.0)
                    && self.accepted_ghosts.insert(requester)
                {
                    self.granted.push((requester, slot));
                }
            }
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

    fn scenario(label: &str, auth: AuthMode) -> Scenario {
        Scenario::builder()
            .label(label)
            .vehicles(5)
            .duration(40.0)
            .auth(auth)
            .max_platoon_size(12)
            .seed(9)
            .build()
    }

    #[test]
    fn ghosts_infiltrate_undefended_roster() {
        let mut engine = Engine::new(scenario("sybil", AuthMode::None));
        engine.add_attack(Box::new(SybilAttack::new(SybilConfig::default())));
        let summary = engine.run();
        let attack = engine.attacks()[0]
            .as_any()
            .downcast_ref::<SybilAttack>()
            .unwrap();

        assert!(attack.requests_sent() > 0);
        assert!(
            attack.accepted_ghost_count() >= 2,
            "ghosts should be admitted, got {}",
            attack.accepted_ghost_count()
        );
        // The roster now counts phantoms: more members than physical
        // vehicles — "the platoon leader [thinks] there are more vehicles
        // part of the platoon than there really are".
        assert!(
            engine.maneuvers().roster().len() > engine.world().vehicles.len(),
            "roster {} should exceed physical {}",
            engine.maneuvers().roster().len(),
            engine.world().vehicles.len()
        );
        assert!(summary.maneuvers.joins_completed >= 2);
    }

    #[test]
    fn ghost_gaps_open_inside_the_string() {
        let baseline = Engine::new(scenario("sybil-base", AuthMode::None)).run();
        let mut engine = Engine::new(scenario("sybil-gaps", AuthMode::None));
        engine.add_attack(Box::new(SybilAttack::new(SybilConfig::default())));
        let attacked = engine.run();
        assert!(
            attacked.max_spacing_error > baseline.max_spacing_error + 5.0,
            "ghost joins should force large interior gaps: {} vs {}",
            attacked.max_spacing_error,
            baseline.max_spacing_error
        );
    }

    #[test]
    fn pki_admission_blocks_ghosts() {
        let mut engine = Engine::new(scenario("sybil-pki", AuthMode::Pki));
        engine.add_attack(Box::new(SybilAttack::new(SybilConfig::default())));
        let summary = engine.run();
        let attack = engine.attacks()[0]
            .as_any()
            .downcast_ref::<SybilAttack>()
            .unwrap();
        assert_eq!(
            attack.accepted_ghost_count(),
            0,
            "unsigned ghost requests must be rejected under PKI"
        );
        assert_eq!(engine.maneuvers().roster().len(), 5);
        assert!(summary.maneuvers.joins_accepted == 0);
    }
}
