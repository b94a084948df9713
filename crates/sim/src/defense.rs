//! The defense hook interface.
//!
//! A [`Defense`] is a pluggable security mechanism with hook points matching
//! the paper's Table III mechanism classes: admission of received messages
//! (keys/certificates), join authorisation (RSU-assisted credentials),
//! behavioural detection (control algorithms / VPD-ADA) and command
//! mitigation (attack-resilient control). Implementations live in the
//! `platoon-defense` crate.

use crate::world::World;
use platoon_crypto::cert::PrincipalId;
use platoon_proto::messages::PlatoonMessage;
use platoon_v2x::message::Delivery;
use rand::rngs::StdRng;
use std::any::Any;
use std::fmt;

/// Why a defense rejected an incoming message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// Authentication failed (signature/MAC/certificate).
    AuthFailed,
    /// The message was a replay or too stale.
    Replayed,
    /// The claimed sender is revoked or distrusted.
    Distrusted,
    /// The content contradicts local sensing (plausibility check).
    Implausible,
    /// Cross-channel confirmation (hybrid comms) was missing.
    Unconfirmed,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::AuthFailed => f.write_str("authentication failed"),
            RejectReason::Replayed => f.write_str("replayed or stale"),
            RejectReason::Distrusted => f.write_str("sender distrusted"),
            RejectReason::Implausible => f.write_str("contradicts local sensing"),
            RejectReason::Unconfirmed => f.write_str("missing cross-channel confirmation"),
        }
    }
}

/// A misbehaviour detection raised by a defense.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DetectionEvent {
    /// The accused principal (ghost ids included).
    pub suspect: PrincipalId,
    /// Short label of the detector that fired.
    pub detector: &'static str,
}

/// A pluggable security mechanism.
pub trait Defense: fmt::Debug {
    /// Short identifier, e.g. `"pki"`.
    fn name(&self) -> &'static str;

    /// Admission decision for a delivery at vehicle `receiver_idx` that
    /// passed engine-level authentication: `msg` is the message the engine
    /// opened (decrypted under an encrypting key scheme) and would apply,
    /// claimed by `sender`. All active defenses must accept for the message
    /// to be processed. The default accepts everything.
    fn filter_rx(
        &mut self,
        _receiver_idx: usize,
        _world: &World,
        _delivery: &Delivery,
        _sender: PrincipalId,
        _msg: &PlatoonMessage,
        _now: f64,
    ) -> Result<(), RejectReason> {
        Ok(())
    }

    /// Whether a join request from `requester` should be treated as
    /// presenting valid credentials. Defaults to `true` — the undefended
    /// leader cannot tell ghosts from vehicles (§V-A.2).
    fn authorize_join(&mut self, _requester: PrincipalId) -> bool {
        true
    }

    /// Per-step behavioural detection pass. May mutate the world (e.g. evict
    /// a suspect's beacons) and returns newly raised detections.
    fn on_step(&mut self, _world: &mut World, _rng: &mut StdRng) -> Vec<DetectionEvent> {
        Vec::new()
    }

    /// Command mitigation: may adjust the per-vehicle acceleration commands
    /// after the controllers have run (Table III "Control Algorithms").
    fn adjust_commands(&mut self, _world: &World, _commands: &mut [f64]) {}

    /// Downcasting support for experiment post-processing.
    fn as_any(&self) -> &dyn Any;

    /// Clones the defense (including trust/reputation state) into a
    /// fresh box, for engine snapshots. `None` means the defense does
    /// not support snapshotting; engines carrying it cannot be
    /// checkpointed.
    fn clone_box(&self) -> Option<Box<dyn Defense>> {
        None
    }
}

/// The absent defense: accepts everything (the undefended baseline).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoDefense;

impl Defense for NoDefense {
    fn name(&self) -> &'static str {
        "none"
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn clone_box(&self) -> Option<Box<dyn Defense>> {
        Some(Box::new(*self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_defense_accepts_all() {
        let d = NoDefense;
        assert_eq!(d.name(), "none");
        assert!(d.as_any().downcast_ref::<NoDefense>().is_some());
    }

    #[test]
    fn reject_reason_display() {
        assert_eq!(RejectReason::Replayed.to_string(), "replayed or stale");
        assert_eq!(
            RejectReason::Unconfirmed.to_string(),
            "missing cross-channel confirmation"
        );
    }
}
