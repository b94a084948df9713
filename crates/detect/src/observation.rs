//! What detectors see: the observation types the pipeline consumes.
//!
//! Observations carry exactly what a real on-board IDS has at reception
//! time — the message's claims and credential metadata, the physical-layer
//! measurements (RSSI, channel), and the observer's own local context
//! (ranging to its predecessor, the signal power the claimed position
//! would predict). Nothing here requires simulator internals, which keeps
//! the detectors replayable against recorded traces.

use platoon_crypto::cert::PrincipalId;
use platoon_v2x::message::ChannelKind;

/// Credential metadata of a received envelope — what signature/pseudonym
/// material the identity detector can reason over without any keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AuthMeta {
    /// No authenticator.
    Plain,
    /// HMAC under the shared platoon group key.
    GroupMac,
    /// Encrypt-then-MAC under the shared group key.
    Encrypted,
    /// Schnorr signature plus certificate.
    Signed {
        /// The certificate's certified subject.
        subject: PrincipalId,
    },
}

impl AuthMeta {
    /// Coarse strength ranking, for downgrade detection.
    pub fn rank(&self) -> u8 {
        match self {
            AuthMeta::Plain => 0,
            AuthMeta::GroupMac => 1,
            AuthMeta::Encrypted => 2,
            AuthMeta::Signed { .. } => 3,
        }
    }
}

/// The kinematic content of a beacon.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BeaconClaim {
    /// Claimed road position, metres.
    pub position: f64,
    /// Claimed speed, m/s.
    pub speed: f64,
    /// Claimed acceleration, m/s².
    pub accel: f64,
    /// Claimed vehicle length, metres.
    pub length: f64,
    /// Beacon sequence number.
    pub seq: u64,
    /// Sender-claimed generation timestamp, seconds.
    pub timestamp: f64,
}

/// The observer's local context at reception time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ObserverContext {
    /// Observer vehicle index (stable within a run).
    pub observer: usize,
    /// The observer's own identity.
    pub observer_principal: PrincipalId,
    /// The observer's own road position, metres.
    pub observer_position: f64,
    /// The observer's own speed, m/s.
    pub observer_speed: f64,
    /// Whether the claimed sender is the observer's physical predecessor.
    pub sender_is_predecessor: bool,
    /// The observer's own ranging to its predecessor (gap m, closing-rate
    /// m/s), when it has a predecessor in range.
    pub ranged_gap: Option<(f64, f64)>,
    /// Median receive power (dBm) expected if the sender really stood at
    /// its claimed position (RF channels; `None` for VLC).
    pub expected_rssi_dbm: Option<f64>,
    /// Whether the claimed position overlaps road space physically occupied
    /// by another known vehicle.
    pub colocation_conflict: bool,
}

impl ObserverContext {
    /// A neutral context for trace replay and synthetic streams.
    pub fn anonymous(observer: usize) -> Self {
        ObserverContext {
            observer,
            observer_principal: PrincipalId(u64::MAX),
            observer_position: 0.0,
            observer_speed: 0.0,
            sender_is_predecessor: false,
            ranged_gap: None,
            expected_rssi_dbm: None,
            colocation_conflict: false,
        }
    }
}

/// A received beacon, as one observer saw it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BeaconObservation {
    /// Reception time, seconds.
    pub time: f64,
    /// Claimed application-level sender.
    pub sender: PrincipalId,
    /// The kinematic claims.
    pub claim: BeaconClaim,
    /// Received signal strength, dBm.
    pub rssi_dbm: f64,
    /// Channel the frame arrived on.
    pub channel: ChannelKind,
    /// Credential metadata.
    pub auth: AuthMeta,
    /// The observer's local context.
    pub ctx: ObserverContext,
}

impl BeaconObservation {
    /// A physically plausible observation for tests and benchmarks: the
    /// sender cruises at 25 m/s from position 100 m, beaconing at 10 Hz
    /// with a self-consistent claim stream and nominal RSSI.
    pub fn plausible(time: f64, sender: PrincipalId, observer: usize) -> Self {
        BeaconObservation {
            time,
            sender,
            claim: BeaconClaim {
                position: 100.0 + 25.0 * time,
                speed: 25.0,
                accel: 0.0,
                length: 16.5,
                seq: (time / 0.1).round() as u64 + 1,
                timestamp: time,
            },
            rssi_dbm: -60.0,
            channel: ChannelKind::Dsrc,
            auth: AuthMeta::Plain,
            ctx: ObserverContext::anonymous(observer),
        }
    }
}

/// The kind of a non-beacon (manoeuvre) message.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ControlKind {
    /// A join request, with the position it claims to join from.
    JoinRequest {
        /// Claimed current position of the requester, metres.
        claimed_position: f64,
    },
    /// A leave request.
    LeaveRequest,
    /// A split command.
    SplitCommand,
    /// A gap-open command.
    GapOpen,
    /// Any other protocol message.
    Other,
}

/// A received manoeuvre message, as one observer saw it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ControlObservation {
    /// Reception time, seconds.
    pub time: f64,
    /// Claimed application-level sender.
    pub sender: PrincipalId,
    /// What kind of message.
    pub kind: ControlKind,
    /// Sender-claimed generation timestamp, seconds.
    pub timestamp: f64,
    /// Received signal strength, dBm.
    pub rssi_dbm: f64,
    /// Channel the frame arrived on.
    pub channel: ChannelKind,
    /// Credential metadata.
    pub auth: AuthMeta,
    /// The observer's local context.
    pub ctx: ObserverContext,
}

/// A received over-the-air message observation of either kind, in arrival
/// order. Lets callers batch a whole delivery round's ingest into one
/// pipeline call ([`crate::pipeline::Pipeline::ingest_messages`]) while
/// preserving the interleaving the detectors' stateful tracks depend on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MessageObservation {
    /// A received beacon.
    Beacon(BeaconObservation),
    /// A received manoeuvre message.
    Control(ControlObservation),
}

/// One on-board sensor cross-check sample: independent ranging paths
/// (radar vs LiDAR) measured by the same vehicle at the same instant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SensorObservation {
    /// Measurement time, seconds.
    pub time: f64,
    /// Observing vehicle index.
    pub observer: usize,
    /// The observer's own identity (the suspect if its sensors disagree).
    pub observer_principal: PrincipalId,
    /// Radar range to the predecessor, metres.
    pub radar_range: f64,
    /// LiDAR range to the predecessor, metres.
    pub lidar_range: f64,
}

/// Per-step context for time-driven detectors (silence monitoring).
#[derive(Clone, Copy, Debug)]
pub struct TickContext<'a> {
    /// Current time, seconds.
    pub now: f64,
    /// Nominal beacon interval, seconds.
    pub comm_step: f64,
    /// Identities expected to beacon (current platoon members), ordered.
    pub members: &'a [PrincipalId],
    /// Observer indices that are operational this step, ordered.
    pub observers: &'a [usize],
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auth_rank_orders_schemes() {
        assert!(AuthMeta::Plain.rank() < AuthMeta::GroupMac.rank());
        assert!(
            AuthMeta::Encrypted.rank()
                < AuthMeta::Signed {
                    subject: PrincipalId(1)
                }
                .rank()
        );
    }

    #[test]
    fn plausible_stream_is_self_consistent() {
        use crate::checks::{claim_faults, ClaimSnapshot, KinematicLimits};
        let limits = KinematicLimits::default();
        let mut prev: Option<ClaimSnapshot> = None;
        for step in 0..50 {
            let obs = BeaconObservation::plausible(step as f64 * 0.1, PrincipalId(3), 0);
            let snap = ClaimSnapshot {
                time: obs.time,
                position: obs.claim.position,
                speed: obs.claim.speed,
                accel: obs.claim.accel,
            };
            assert!(claim_faults(prev, snap, &limits).is_empty());
            prev = Some(snap);
        }
    }
}
