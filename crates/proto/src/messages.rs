//! Application-layer platoon messages: beacons (CAM-style) and manoeuvre
//! messages, with their canonical binary encodings.
//!
//! The message set covers everything the paper's attack catalogue targets:
//! periodic beacons carry the kinematic state that CACC consumes (replay/FDI
//! surface, §V-A), and the join/leave/split manoeuvre messages are the
//! surface of the fake-manoeuvre attack (§V-A.3) and the join-flood DoS
//! (§V-D).

use crate::codec::{DecodeError, Decoder, Encoder};
use platoon_crypto::cert::PrincipalId;
use std::fmt;

/// Identifier of a platoon.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlatoonId(pub u32);

impl fmt::Debug for PlatoonId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Platoon({})", self.0)
    }
}

impl fmt::Display for PlatoonId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Role a vehicle claims in its beacon.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Role {
    /// Platoon leader (human-driven, per §II-B).
    Leader,
    /// Automated platoon member.
    Member,
    /// Vehicle in the process of joining or leaving.
    JoinLeave,
    /// Free vehicle not in any platoon.
    Free,
}

impl Role {
    fn to_u8(self) -> u8 {
        match self {
            Role::Leader => 0,
            Role::Member => 1,
            Role::JoinLeave => 2,
            Role::Free => 3,
        }
    }

    fn from_u8(v: u8) -> Result<Self, DecodeError> {
        Ok(match v {
            0 => Role::Leader,
            1 => Role::Member,
            2 => Role::JoinLeave,
            3 => Role::Free,
            tag => {
                return Err(DecodeError::BadTag {
                    tag,
                    context: "Role",
                })
            }
        })
    }
}

/// A periodic cooperative-awareness beacon (CAM/BSM equivalent).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Beacon {
    /// Claimed sender identity (pseudonymous or long-term).
    pub sender: PrincipalId,
    /// Platoon the sender claims membership of (0 = none).
    pub platoon: PlatoonId,
    /// Sender's claimed role.
    pub role: Role,
    /// Monotonic per-sender sequence number.
    pub seq: u64,
    /// Timestamp in simulation seconds.
    pub timestamp: f64,
    /// Claimed front-bumper position in metres.
    pub position: f64,
    /// Claimed speed in m/s.
    pub speed: f64,
    /// Claimed acceleration in m/s².
    pub accel: f64,
    /// Vehicle length in metres.
    pub length: f64,
}

/// The reason a leader gives when rejecting a join.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinReject {
    /// Platoon is at its maximum size.
    Full,
    /// Credential check failed.
    BadCredentials,
    /// The leader is too busy processing other requests (DoS backpressure).
    Busy,
    /// Admission check (e.g. physical-context verification) failed.
    AdmissionFailed,
}

impl JoinReject {
    fn to_u8(self) -> u8 {
        match self {
            JoinReject::Full => 0,
            JoinReject::BadCredentials => 1,
            JoinReject::Busy => 2,
            JoinReject::AdmissionFailed => 3,
        }
    }

    fn from_u8(v: u8) -> Result<Self, DecodeError> {
        Ok(match v {
            0 => JoinReject::Full,
            1 => JoinReject::BadCredentials,
            2 => JoinReject::Busy,
            3 => JoinReject::AdmissionFailed,
            tag => {
                return Err(DecodeError::BadTag {
                    tag,
                    context: "JoinReject",
                })
            }
        })
    }
}

/// All platoon protocol messages.
#[derive(Clone, Debug, PartialEq)]
pub enum PlatoonMessage {
    /// Periodic kinematic beacon.
    Beacon(Beacon),
    /// A vehicle asks the leader to join.
    JoinRequest {
        /// Requesting vehicle.
        requester: PrincipalId,
        /// Target platoon.
        platoon: PlatoonId,
        /// Requester's claimed position (for gap planning).
        position: f64,
        /// Request timestamp.
        timestamp: f64,
    },
    /// Leader accepts a join, assigning a slot.
    JoinAccept {
        /// The accepted vehicle.
        requester: PrincipalId,
        /// Target platoon.
        platoon: PlatoonId,
        /// Index the joiner will occupy (1 = directly behind the leader).
        slot: u32,
        /// Response timestamp.
        timestamp: f64,
    },
    /// Leader rejects a join.
    JoinDeny {
        /// The rejected vehicle.
        requester: PrincipalId,
        /// Target platoon.
        platoon: PlatoonId,
        /// Why.
        reason: JoinReject,
        /// Response timestamp.
        timestamp: f64,
    },
    /// A member announces it is leaving.
    LeaveRequest {
        /// Leaving vehicle.
        member: PrincipalId,
        /// Its platoon.
        platoon: PlatoonId,
        /// Request timestamp.
        timestamp: f64,
    },
    /// Leader acknowledges a leave.
    LeaveAck {
        /// The departing vehicle.
        member: PrincipalId,
        /// Its platoon.
        platoon: PlatoonId,
        /// Ack timestamp.
        timestamp: f64,
    },
    /// Leader orders the platoon to split: vehicles at `at_index` and behind
    /// form a new platoon.
    SplitCommand {
        /// The platoon being split.
        platoon: PlatoonId,
        /// First index of the new trailing platoon.
        at_index: u32,
        /// The id the trailing platoon will adopt.
        new_platoon: PlatoonId,
        /// Command timestamp.
        timestamp: f64,
    },
    /// Leader orders members to open a gap at `slot` for an entering vehicle.
    GapOpen {
        /// The platoon.
        platoon: PlatoonId,
        /// Slot index where the gap is opened.
        slot: u32,
        /// Extra metres of gap requested.
        extra_gap: f64,
        /// Command timestamp.
        timestamp: f64,
    },
}

const TAG_BEACON: u8 = 1;
const TAG_JOIN_REQUEST: u8 = 2;
const TAG_JOIN_ACCEPT: u8 = 3;
const TAG_JOIN_DENY: u8 = 4;
const TAG_LEAVE_REQUEST: u8 = 5;
const TAG_LEAVE_ACK: u8 = 6;
const TAG_SPLIT: u8 = 7;
const TAG_GAP_OPEN: u8 = 8;

impl PlatoonMessage {
    /// The message timestamp (used by anti-replay filters).
    pub fn timestamp(&self) -> f64 {
        match self {
            PlatoonMessage::Beacon(b) => b.timestamp,
            PlatoonMessage::JoinRequest { timestamp, .. }
            | PlatoonMessage::JoinAccept { timestamp, .. }
            | PlatoonMessage::JoinDeny { timestamp, .. }
            | PlatoonMessage::LeaveRequest { timestamp, .. }
            | PlatoonMessage::LeaveAck { timestamp, .. }
            | PlatoonMessage::SplitCommand { timestamp, .. }
            | PlatoonMessage::GapOpen { timestamp, .. } => *timestamp,
        }
    }

    /// The road position the message claims its sender occupies: a
    /// beacon's position or a join request's.
    pub fn claimed_position(&self) -> Option<f64> {
        match self {
            PlatoonMessage::Beacon(b) => Some(b.position),
            PlatoonMessage::JoinRequest { position, .. } => Some(*position),
            _ => None,
        }
    }

    /// Whether this is a manoeuvre (non-beacon) message — the class the
    /// fake-manoeuvre attack injects.
    pub fn is_maneuver(&self) -> bool {
        !matches!(self, PlatoonMessage::Beacon(_))
    }

    /// Encodes to the canonical wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        match self {
            PlatoonMessage::Beacon(b) => {
                e.u8(TAG_BEACON)
                    .u64(b.sender.0)
                    .u32(b.platoon.0)
                    .u8(b.role.to_u8())
                    .u64(b.seq)
                    .f64(b.timestamp)
                    .f64(b.position)
                    .f64(b.speed)
                    .f64(b.accel)
                    .f64(b.length);
            }
            PlatoonMessage::JoinRequest {
                requester,
                platoon,
                position,
                timestamp,
            } => {
                e.u8(TAG_JOIN_REQUEST)
                    .u64(requester.0)
                    .u32(platoon.0)
                    .f64(*position)
                    .f64(*timestamp);
            }
            PlatoonMessage::JoinAccept {
                requester,
                platoon,
                slot,
                timestamp,
            } => {
                e.u8(TAG_JOIN_ACCEPT)
                    .u64(requester.0)
                    .u32(platoon.0)
                    .u32(*slot)
                    .f64(*timestamp);
            }
            PlatoonMessage::JoinDeny {
                requester,
                platoon,
                reason,
                timestamp,
            } => {
                e.u8(TAG_JOIN_DENY)
                    .u64(requester.0)
                    .u32(platoon.0)
                    .u8(reason.to_u8())
                    .f64(*timestamp);
            }
            PlatoonMessage::LeaveRequest {
                member,
                platoon,
                timestamp,
            } => {
                e.u8(TAG_LEAVE_REQUEST)
                    .u64(member.0)
                    .u32(platoon.0)
                    .f64(*timestamp);
            }
            PlatoonMessage::LeaveAck {
                member,
                platoon,
                timestamp,
            } => {
                e.u8(TAG_LEAVE_ACK)
                    .u64(member.0)
                    .u32(platoon.0)
                    .f64(*timestamp);
            }
            PlatoonMessage::SplitCommand {
                platoon,
                at_index,
                new_platoon,
                timestamp,
            } => {
                e.u8(TAG_SPLIT)
                    .u32(platoon.0)
                    .u32(*at_index)
                    .u32(new_platoon.0)
                    .f64(*timestamp);
            }
            PlatoonMessage::GapOpen {
                platoon,
                slot,
                extra_gap,
                timestamp,
            } => {
                e.u8(TAG_GAP_OPEN)
                    .u32(platoon.0)
                    .u32(*slot)
                    .f64(*extra_gap)
                    .f64(*timestamp);
            }
        }
        e.into_bytes()
    }

    /// Decodes from wire bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for unknown tags, truncation or trailing
    /// bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut d = Decoder::new(bytes);
        let msg = match d.u8()? {
            TAG_BEACON => PlatoonMessage::Beacon(Beacon {
                sender: PrincipalId(d.u64()?),
                platoon: PlatoonId(d.u32()?),
                role: Role::from_u8(d.u8()?)?,
                seq: d.u64()?,
                timestamp: d.f64()?,
                position: d.f64()?,
                speed: d.f64()?,
                accel: d.f64()?,
                length: d.f64()?,
            }),
            TAG_JOIN_REQUEST => PlatoonMessage::JoinRequest {
                requester: PrincipalId(d.u64()?),
                platoon: PlatoonId(d.u32()?),
                position: d.f64()?,
                timestamp: d.f64()?,
            },
            TAG_JOIN_ACCEPT => PlatoonMessage::JoinAccept {
                requester: PrincipalId(d.u64()?),
                platoon: PlatoonId(d.u32()?),
                slot: d.u32()?,
                timestamp: d.f64()?,
            },
            TAG_JOIN_DENY => PlatoonMessage::JoinDeny {
                requester: PrincipalId(d.u64()?),
                platoon: PlatoonId(d.u32()?),
                reason: JoinReject::from_u8(d.u8()?)?,
                timestamp: d.f64()?,
            },
            TAG_LEAVE_REQUEST => PlatoonMessage::LeaveRequest {
                member: PrincipalId(d.u64()?),
                platoon: PlatoonId(d.u32()?),
                timestamp: d.f64()?,
            },
            TAG_LEAVE_ACK => PlatoonMessage::LeaveAck {
                member: PrincipalId(d.u64()?),
                platoon: PlatoonId(d.u32()?),
                timestamp: d.f64()?,
            },
            TAG_SPLIT => PlatoonMessage::SplitCommand {
                platoon: PlatoonId(d.u32()?),
                at_index: d.u32()?,
                new_platoon: PlatoonId(d.u32()?),
                timestamp: d.f64()?,
            },
            TAG_GAP_OPEN => PlatoonMessage::GapOpen {
                platoon: PlatoonId(d.u32()?),
                slot: d.u32()?,
                extra_gap: d.f64()?,
                timestamp: d.f64()?,
            },
            tag => {
                return Err(DecodeError::BadTag {
                    tag,
                    context: "PlatoonMessage",
                })
            }
        };
        d.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_beacon() -> Beacon {
        Beacon {
            sender: PrincipalId(7),
            platoon: PlatoonId(1),
            role: Role::Member,
            seq: 42,
            timestamp: 12.5,
            position: 130.25,
            speed: 24.9,
            accel: -0.3,
            length: 16.5,
        }
    }

    fn all_messages() -> Vec<PlatoonMessage> {
        vec![
            PlatoonMessage::Beacon(sample_beacon()),
            PlatoonMessage::JoinRequest {
                requester: PrincipalId(9),
                platoon: PlatoonId(1),
                position: 55.0,
                timestamp: 3.0,
            },
            PlatoonMessage::JoinAccept {
                requester: PrincipalId(9),
                platoon: PlatoonId(1),
                slot: 4,
                timestamp: 3.1,
            },
            PlatoonMessage::JoinDeny {
                requester: PrincipalId(9),
                platoon: PlatoonId(1),
                reason: JoinReject::Full,
                timestamp: 3.1,
            },
            PlatoonMessage::LeaveRequest {
                member: PrincipalId(5),
                platoon: PlatoonId(1),
                timestamp: 9.0,
            },
            PlatoonMessage::LeaveAck {
                member: PrincipalId(5),
                platoon: PlatoonId(1),
                timestamp: 9.05,
            },
            PlatoonMessage::SplitCommand {
                platoon: PlatoonId(1),
                at_index: 3,
                new_platoon: PlatoonId(2),
                timestamp: 20.0,
            },
            PlatoonMessage::GapOpen {
                platoon: PlatoonId(1),
                slot: 2,
                extra_gap: 25.0,
                timestamp: 21.0,
            },
        ]
    }

    #[test]
    fn all_variants_roundtrip() {
        for msg in all_messages() {
            let bytes = msg.encode();
            let decoded = PlatoonMessage::decode(&bytes).unwrap();
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(matches!(
            PlatoonMessage::decode(&[99]),
            Err(DecodeError::BadTag { tag: 99, .. })
        ));
    }

    #[test]
    fn truncation_rejected_at_every_length() {
        for msg in all_messages() {
            let bytes = msg.encode();
            for cut in 0..bytes.len() {
                assert!(
                    PlatoonMessage::decode(&bytes[..cut]).is_err(),
                    "truncated {msg:?} at {cut} decoded"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = all_messages()[0].encode();
        bytes.push(0);
        assert!(matches!(
            PlatoonMessage::decode(&bytes),
            Err(DecodeError::TrailingBytes { count: 1 })
        ));
    }

    #[test]
    fn bad_role_tag_rejected() {
        let mut bytes = PlatoonMessage::Beacon(sample_beacon()).encode();
        // role byte sits at offset 1 (tag) + 8 (sender) + 4 (platoon) = 13.
        bytes[13] = 17;
        assert!(matches!(
            PlatoonMessage::decode(&bytes),
            Err(DecodeError::BadTag {
                tag: 17,
                context: "Role"
            })
        ));
    }

    #[test]
    fn timestamp_accessor_matches_fields() {
        for msg in all_messages() {
            assert!(msg.timestamp() > 0.0);
        }
    }

    #[test]
    fn maneuver_classification() {
        let msgs = all_messages();
        assert!(!msgs[0].is_maneuver());
        assert!(msgs[1..].iter().all(PlatoonMessage::is_maneuver));
    }

    #[test]
    fn encoding_is_canonical() {
        let m = PlatoonMessage::Beacon(sample_beacon());
        assert_eq!(m.encode(), m.encode());
    }
}
