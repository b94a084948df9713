//! The attack hook interface.
//!
//! An [`Attack`] is a pluggable adversary with three hook points per
//! communication step, mirroring the three things the paper's attackers can
//! do to a platoon (§V): act on the world (plant jammers, spoof sensors,
//! infect ECUs), act on the air (record, replay and inject frames), and
//! observe the air (eavesdrop deliveries). Attacks live in the
//! `platoon-attacks` crate; the trait lives here so the engine can drive
//! them without a dependency cycle.

use crate::world::World;
use platoon_v2x::medium::Receiver;
use platoon_v2x::message::{Delivery, Frame};
use rand::rngs::StdRng;
use std::any::Any;
use std::fmt;

/// The security attribute an attack compromises (the paper's §IV taxonomy).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SecurityAttribute {
    /// Authenticity of identities and messages.
    Authenticity,
    /// Integrity of transmitted information.
    Integrity,
    /// Availability of the platooning service.
    Availability,
    /// Confidentiality of platoon data.
    Confidentiality,
}

impl fmt::Display for SecurityAttribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SecurityAttribute::Authenticity => f.write_str("authenticity"),
            SecurityAttribute::Integrity => f.write_str("integrity"),
            SecurityAttribute::Availability => f.write_str("availability"),
            SecurityAttribute::Confidentiality => f.write_str("confidentiality"),
        }
    }
}

/// A pluggable adversary.
pub trait Attack: fmt::Debug {
    /// Short identifier, e.g. `"replay"`.
    fn name(&self) -> &'static str;

    /// The primary security attribute this attack compromises.
    fn attribute(&self) -> SecurityAttribute;

    /// Called at the start of each communication step. The attack may mutate
    /// the world: plant or move jammers, set sensor faults, flip infection
    /// flags, reposition itself.
    fn before_comm(&mut self, _world: &mut World, _rng: &mut StdRng) {}

    /// Called with the frames about to be transmitted this step. The attack
    /// may record them (for later replay), tamper nothing (frames of honest
    /// nodes are not modifiable in-flight on a broadcast medium), and push
    /// its own injected frames.
    fn on_air(&mut self, _world: &mut World, _rng: &mut StdRng, _frames: &mut Vec<Frame>) {}

    /// Called with every successful delivery of the step — what a passive
    /// listener at the attack's receiver position overhears.
    fn observe(&mut self, _world: &mut World, _rng: &mut StdRng, _deliveries: &[Delivery]) {}

    /// If the attack owns a radio receiver, the engine registers it on the
    /// medium each step so it overhears traffic like any other node. The
    /// world is provided so mobile attackers can track the platoon.
    fn receiver(&self, _world: &World) -> Option<Receiver> {
        None
    }

    /// Downcasting support so experiments can read attack-specific state
    /// (e.g. bytes captured by the eavesdropper) after a run.
    fn as_any(&self) -> &dyn Any;

    /// Clones the attack (including all adversary state) into a fresh
    /// box, for engine snapshots. `None` means the attack does not
    /// support snapshotting; engines carrying it cannot be checkpointed.
    fn clone_box(&self) -> Option<Box<dyn Attack>> {
        None
    }
}

/// A no-op attack, useful as the baseline arm of every experiment.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoAttack;

impl Attack for NoAttack {
    fn name(&self) -> &'static str {
        "none"
    }

    fn attribute(&self) -> SecurityAttribute {
        // The baseline compromises nothing; availability is the least
        // misleading placeholder.
        SecurityAttribute::Availability
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn clone_box(&self) -> Option<Box<dyn Attack>> {
        Some(Box::new(*self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_attack_is_inert() {
        let a = NoAttack;
        assert_eq!(a.name(), "none");
        assert!(a.as_any().downcast_ref::<NoAttack>().is_some());
    }

    #[test]
    fn attribute_display() {
        assert_eq!(SecurityAttribute::Integrity.to_string(), "integrity");
        assert_eq!(
            SecurityAttribute::Confidentiality.to_string(),
            "confidentiality"
        );
    }
}
