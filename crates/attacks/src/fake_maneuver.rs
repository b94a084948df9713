//! Fake manoeuvre attack (§V-A.3, Table II).
//!
//! > "Platoon manoeuvre attacks include fake entrance, fake leave, and fake
//! > split. A fake entrance request, if successful, will cause two vehicles
//! > to increase their intermediate spacing ... Fake leave and split
//! > messages are capable of causing the most problems as they can break
//! > down a platoon into individual members."
//!
//! The attacker forges manoeuvre messages claiming the leader's (or a
//! member's) identity. Without message authentication, members obey; with
//! signatures the forgeries fail verification.

use platoon_crypto::cert::PrincipalId;
use platoon_proto::envelope::Envelope;
use platoon_proto::messages::{PlatoonId, PlatoonMessage};
use platoon_sim::attack::{Attack, SecurityAttribute};
use platoon_sim::world::World;
use platoon_v2x::message::{ChannelKind, Frame, NodeId, Position};
use rand::rngs::StdRng;
use std::any::Any;

/// Which forged manoeuvre is injected.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ManeuverForgery {
    /// Fake split: the trailing part of the platoon breaks away.
    Split {
        /// Platoon-local index at which the string is severed.
        at_index: u32,
    },
    /// Fake entrance: a phantom gap is opened at `slot`.
    GapOpen {
        /// Slot where the gap opens.
        slot: u32,
        /// Extra gap demanded, metres.
        extra_gap: f64,
    },
    /// Fake leave: a member is announced as leaving (the leader drops it
    /// from the roster).
    Leave {
        /// The member whose departure is forged.
        member: u64,
    },
}

/// Configuration of the fake-manoeuvre attack.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FakeManeuverConfig {
    /// The forgery to inject.
    pub forgery: ManeuverForgery,
    /// When to inject, seconds.
    pub inject_at: f64,
    /// Re-injection period (0 = inject once).
    pub repeat_period: f64,
    /// Attacker radio node.
    pub attacker_node: u64,
}

impl Default for FakeManeuverConfig {
    fn default() -> Self {
        FakeManeuverConfig {
            forgery: ManeuverForgery::Split { at_index: 2 },
            inject_at: 10.0,
            repeat_period: 0.0,
            attacker_node: 7_500,
        }
    }
}

/// The fake-manoeuvre attacker.
/// # Examples
///
/// ```
/// use platoon_attacks::prelude::*;
/// use platoon_sim::prelude::*;
///
/// let mut engine = Engine::new(Scenario::builder().vehicles(4).duration(5.0).build());
/// engine.add_attack(Box::new(FakeManeuverAttack::new(FakeManeuverConfig {
///     forgery: ManeuverForgery::Split { at_index: 2 },
///     inject_at: 1.0,
///     ..Default::default()
/// })));
/// let summary = engine.run();
/// assert!(summary.fragmented_fraction > 0.0, "the forged split was obeyed");
/// ```
#[derive(Clone, Debug)]
pub struct FakeManeuverAttack {
    config: FakeManeuverConfig,
    injections: u64,
    last_injection: f64,
}

impl FakeManeuverAttack {
    /// Creates the attack.
    pub fn new(config: FakeManeuverConfig) -> Self {
        FakeManeuverAttack {
            config,
            injections: 0,
            last_injection: f64::NEG_INFINITY,
        }
    }

    /// Number of forged messages transmitted.
    pub fn injections(&self) -> u64 {
        self.injections
    }

    fn position(&self, world: &World) -> Position {
        let n = world.vehicles.len();
        (world.vehicles[n / 2].vehicle.state.position, 5.0)
    }
}

impl Attack for FakeManeuverAttack {
    fn name(&self) -> &'static str {
        "fake-maneuver"
    }

    fn attribute(&self) -> SecurityAttribute {
        SecurityAttribute::Integrity
    }

    fn on_air(&mut self, world: &mut World, _rng: &mut StdRng, frames: &mut Vec<Frame>) {
        let now = world.time;
        if now < self.config.inject_at {
            return;
        }
        if self.injections > 0 {
            if self.config.repeat_period <= 0.0 {
                return;
            }
            if now - self.last_injection < self.config.repeat_period {
                return;
            }
        }
        self.last_injection = now;
        self.injections += 1;

        let leader = &world.vehicles[0];
        let leader_principal = leader.principal;
        let platoon = leader.platoon;
        let msg = match self.config.forgery {
            ManeuverForgery::Split { at_index } => PlatoonMessage::SplitCommand {
                platoon,
                at_index,
                new_platoon: PlatoonId(900 + self.injections as u32),
                timestamp: now,
            },
            ManeuverForgery::GapOpen { slot, extra_gap } => PlatoonMessage::GapOpen {
                platoon,
                slot,
                extra_gap,
                timestamp: now,
            },
            ManeuverForgery::Leave { member } => PlatoonMessage::LeaveRequest {
                member: PrincipalId(member),
                platoon,
                timestamp: now,
            },
        };
        // Forgery: claim the relevant identity with a plain envelope. (A
        // fake leave claims the victim member; splits/gaps claim the leader.)
        let claimed = match self.config.forgery {
            ManeuverForgery::Leave { member } => PrincipalId(member),
            _ => leader_principal,
        };
        frames.push(Frame {
            sender: NodeId(self.config.attacker_node),
            origin: self.position(world),
            power_dbm: world.medium.dsrc.default_tx_power_dbm + 3.0,
            channel: ChannelKind::Dsrc,
            payload: Envelope::plain(claimed, &msg).encode().into(),
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

    fn scenario(label: &str, auth: AuthMode) -> Scenario {
        Scenario::builder()
            .label(label)
            .vehicles(6)
            .duration(40.0)
            .auth(auth)
            .seed(11)
            .build()
    }

    #[test]
    fn fake_split_fragments_undefended_platoon() {
        let mut engine = Engine::new(scenario("fake-split", AuthMode::None));
        engine.add_attack(Box::new(FakeManeuverAttack::new(
            FakeManeuverConfig::default(),
        )));
        let s = engine.run();
        assert!(
            s.fragmented_fraction > 0.5,
            "platoon should spend most of the run fragmented: {}",
            s.fragmented_fraction
        );
        assert!(engine.world().platoon_count() > 1);
        assert_eq!(s.collisions, 0);
    }

    #[test]
    fn fake_split_rejected_under_pki() {
        let mut engine = Engine::new(scenario("fake-split-pki", AuthMode::Pki));
        engine.add_attack(Box::new(FakeManeuverAttack::new(
            FakeManeuverConfig::default(),
        )));
        let s = engine.run();
        assert_eq!(
            s.fragmented_fraction, 0.0,
            "signed deployment must ignore forgeries"
        );
        assert!(
            s.rejected_messages > 0,
            "the forgery should be logged as rejected"
        );
    }

    #[test]
    fn fake_gap_open_wastes_spacing() {
        let baseline = Engine::new(scenario("gap-base", AuthMode::None)).run();
        let mut engine = Engine::new(scenario("fake-gap", AuthMode::None));
        engine.add_attack(Box::new(FakeManeuverAttack::new(FakeManeuverConfig {
            forgery: ManeuverForgery::GapOpen {
                slot: 2,
                extra_gap: 30.0,
            },
            inject_at: 10.0,
            repeat_period: 5.0,
            ..Default::default()
        })));
        let attacked = engine.run();
        assert!(
            attacked.max_spacing_error > baseline.max_spacing_error + 10.0,
            "phantom entrance gap should open ~30 m: {} vs {}",
            attacked.max_spacing_error,
            baseline.max_spacing_error
        );
    }

    #[test]
    fn fake_leave_shrinks_roster() {
        let mut engine = Engine::new(scenario("fake-leave", AuthMode::None));
        engine.add_attack(Box::new(FakeManeuverAttack::new(FakeManeuverConfig {
            forgery: ManeuverForgery::Leave { member: 3 },
            inject_at: 5.0,
            repeat_period: 0.0,
            ..Default::default()
        })));
        engine.run();
        // Physical vehicles: 6. Roster after the forged leave: 5.
        assert_eq!(engine.maneuvers().roster().len(), 5);
        assert!(!engine
            .maneuvers()
            .roster()
            .contains(platoon_crypto::cert::PrincipalId(3)));
    }

    #[test]
    fn injection_respects_schedule() {
        let mut engine = Engine::new(scenario("sched", AuthMode::None));
        engine.add_attack(Box::new(FakeManeuverAttack::new(FakeManeuverConfig {
            inject_at: 10.0,
            repeat_period: 0.0,
            ..Default::default()
        })));
        for _ in 0..50 {
            engine.step(); // 5 s: nothing yet
        }
        let a = engine.attacks()[0]
            .as_any()
            .downcast_ref::<FakeManeuverAttack>()
            .unwrap();
        assert_eq!(a.injections(), 0);
        for _ in 0..100 {
            engine.step();
        }
        let a = engine.attacks()[0]
            .as_any()
            .downcast_ref::<FakeManeuverAttack>()
            .unwrap();
        assert_eq!(
            a.injections(),
            1,
            "single-shot forgery injects exactly once"
        );
    }
}
