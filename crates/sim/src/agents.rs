//! Benign traffic agents built on the [`Attack`] hook interface.
//!
//! The hook interface is really an "external participant" interface: it can
//! inject frames and observe deliveries. A [`JoinerAgent`] is an *honest*
//! vehicle approaching the platoon and requesting to join — the workload the
//! DoS experiment (F4) measures: under a join-flood, can a legitimate
//! vehicle still get in, and how long does it take?

use crate::attack::{Attack, SecurityAttribute};
use crate::world::World;
use platoon_crypto::cert::{Certificate, PrincipalId};
use platoon_crypto::signature::Signer;
use platoon_proto::envelope::Envelope;
use platoon_proto::messages::{Beacon, PlatoonId, PlatoonMessage, Role};
use platoon_v2x::medium::Receiver;
use platoon_v2x::message::{ChannelKind, Delivery, Frame, NodeId, Position};
use rand::rngs::StdRng;
use std::any::Any;

/// Credential material the joiner presents.
#[derive(Debug, Clone)]
pub enum JoinerCredentials {
    /// No credentials (plain envelopes).
    None,
    /// Certified signing key issued by the trusted authority.
    Pki {
        /// The joiner's signer.
        signer: Signer,
        /// Its certificate.
        certificate: Certificate,
    },
}

/// Outcome of the joiner's campaign.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct JoinerOutcome {
    /// Join requests sent.
    pub requests_sent: u64,
    /// Whether a `JoinAccept` was received.
    pub accepted: bool,
    /// Whether a `JoinDeny` was received.
    pub denied: bool,
    /// Time from the first request to acceptance, if accepted.
    pub accept_latency: Option<f64>,
}

/// An honest vehicle trailing the platoon and asking to join.
#[derive(Clone, Debug)]
pub struct JoinerAgent {
    /// The joiner's identity.
    pub principal: PrincipalId,
    /// Its radio node.
    pub node: NodeId,
    credentials: JoinerCredentials,
    platoon: PlatoonId,
    /// Gap behind the current tail, metres.
    trail_gap: f64,
    /// Resend period in seconds.
    retry_period: f64,
    /// Time before which the agent stays silent.
    start_at: f64,
    first_request_at: Option<f64>,
    last_request_at: f64,
    outcome: JoinerOutcome,
    /// Slot granted on acceptance (drives arrival beaconing).
    granted_slot: Option<u32>,
    seq: u64,
}

impl JoinerAgent {
    /// Creates a joiner that trails the platoon and retries every
    /// `retry_period` seconds.
    pub fn new(
        principal: PrincipalId,
        node: NodeId,
        credentials: JoinerCredentials,
        platoon: PlatoonId,
        retry_period: f64,
    ) -> Self {
        JoinerAgent {
            principal,
            node,
            credentials,
            platoon,
            trail_gap: 40.0,
            retry_period,
            start_at: 0.0,
            first_request_at: None,
            last_request_at: f64::NEG_INFINITY,
            outcome: JoinerOutcome::default(),
            granted_slot: None,
            seq: 0,
        }
    }

    /// Delays the first request until `start_at` seconds.
    pub fn with_start(mut self, start_at: f64) -> Self {
        self.start_at = start_at;
        self
    }

    /// Overrides the gap behind the world's tail vehicle the joiner drives
    /// at (default 40 m). Corridor worlds pass a *negative* gap to place
    /// the joiner up the road, alongside the platoon it wants to join —
    /// the world tail there belongs to the rearmost platoon, kilometres
    /// behind the lead platoon's leader.
    pub fn with_trail_gap(mut self, gap: f64) -> Self {
        self.trail_gap = gap;
        self
    }

    /// The campaign outcome so far.
    pub fn outcome(&self) -> JoinerOutcome {
        self.outcome
    }

    fn position(&self, world: &World) -> Position {
        let tail = world
            .vehicles
            .last()
            .map(|v| v.vehicle.state.position - v.vehicle.params.length)
            .unwrap_or(0.0);
        (tail - self.trail_gap, 0.0)
    }

    fn seal(&self, msg: &PlatoonMessage) -> Envelope {
        match &self.credentials {
            JoinerCredentials::None => Envelope::plain(self.principal, msg),
            JoinerCredentials::Pki {
                signer,
                certificate,
            } => Envelope::sign(self.principal, msg, signer, *certificate),
        }
    }
}

impl Attack for JoinerAgent {
    fn name(&self) -> &'static str {
        "joiner"
    }

    fn attribute(&self) -> SecurityAttribute {
        // Benign agent; availability is what it measures.
        SecurityAttribute::Availability
    }

    fn on_air(&mut self, world: &mut World, _rng: &mut StdRng, frames: &mut Vec<Frame>) {
        let now = world.time;
        let origin = self.position(world);
        if self.outcome.accepted {
            // Beacon the arrival position so the leader completes the join.
            if let Some(slot) = self.granted_slot {
                self.seq += 1;
                let spacing =
                    world.vehicles[0].vehicle.params.length + 10.0 /* nominal gap */;
                let slot_pos = world.vehicles[0].vehicle.state.position - slot as f64 * spacing;
                let beacon = PlatoonMessage::Beacon(Beacon {
                    sender: self.principal,
                    platoon: self.platoon,
                    role: Role::JoinLeave,
                    seq: self.seq,
                    timestamp: now,
                    position: slot_pos,
                    speed: world.vehicles[0].vehicle.state.speed,
                    accel: 0.0,
                    length: world.vehicles[0].vehicle.params.length,
                });
                frames.push(Frame {
                    sender: self.node,
                    origin,
                    power_dbm: world.medium.dsrc.default_tx_power_dbm,
                    channel: ChannelKind::Dsrc,
                    payload: self.seal(&beacon).encode().into(),
                });
            }
            return;
        }
        if self.outcome.denied || now < self.start_at {
            return;
        }
        if now - self.last_request_at < self.retry_period - 1e-9 {
            return;
        }
        self.last_request_at = now;
        self.first_request_at.get_or_insert(now);
        self.outcome.requests_sent += 1;
        let msg = PlatoonMessage::JoinRequest {
            requester: self.principal,
            platoon: self.platoon,
            position: origin.0,
            timestamp: now,
        };
        frames.push(Frame {
            sender: self.node,
            origin,
            power_dbm: world.medium.dsrc.default_tx_power_dbm,
            channel: ChannelKind::Dsrc,
            payload: self.seal(&msg).encode().into(),
        });
    }

    fn observe(&mut self, world: &mut World, _rng: &mut StdRng, deliveries: &[Delivery]) {
        let now = world.time;
        for d in deliveries {
            if d.receiver != self.node {
                continue;
            }
            let Ok(env) = Envelope::decode(&d.payload) else {
                continue;
            };
            let Ok(msg) = env.open_unverified() else {
                continue;
            };
            match msg {
                PlatoonMessage::JoinAccept {
                    requester, slot, ..
                } if requester == self.principal && !self.outcome.accepted => {
                    self.outcome.accepted = true;
                    self.granted_slot = Some(slot);
                    self.outcome.accept_latency = self.first_request_at.map(|t| (now - t).max(0.0));
                }
                PlatoonMessage::JoinDeny { requester, .. } if requester == self.principal => {
                    self.outcome.denied = true;
                }
                _ => {}
            }
        }
    }

    fn receiver(&self, world: &World) -> Option<Receiver> {
        Some(Receiver {
            id: self.node,
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
