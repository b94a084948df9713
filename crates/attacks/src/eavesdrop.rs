//! Eavesdropping attack (§V-C, Table II).
//!
//! > "The attacker listens in and takes information from wireless
//! > communications ... This attack's primary goal is to gain information
//! > from a platoon and/or member vehicles ... The sold-on information can
//! > also be GPS locations and tracking information."
//!
//! A purely passive receiver. The attack quantifies the paper's two leakage
//! claims: *content* leakage (plaintext beacons read) and *tracking*
//! leakage (reconstructing a victim vehicle's trajectory from its beacons).
//! Confidentiality countermeasures change what it gets: pseudonym changes
//! break track linkage; payload encryption (out of scope for CAM-style
//! beacons, which are authenticated but public) would blind it entirely.

use platoon_crypto::cert::PrincipalId;
use platoon_proto::envelope::Envelope;
use platoon_proto::messages::PlatoonMessage;
use platoon_sim::attack::{Attack, SecurityAttribute};
use platoon_sim::world::World;
use platoon_v2x::medium::Receiver;
use platoon_v2x::message::{Delivery, NodeId, Position};
use rand::rngs::StdRng;
use std::any::Any;
use std::collections::{HashMap, HashSet};

/// Configuration of the eavesdropper.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EavesdropConfig {
    /// Attacker radio node.
    pub attacker_node: u64,
    /// Longitudinal offset from the platoon centre (0 = pacing alongside).
    pub longitudinal_offset: f64,
    /// Lateral offset, metres.
    pub lateral_offset: f64,
    /// The principal whose trajectory the attacker tries to reconstruct.
    pub victim: u64,
}

impl Default for EavesdropConfig {
    fn default() -> Self {
        EavesdropConfig {
            attacker_node: 8_500,
            longitudinal_offset: 0.0,
            lateral_offset: 8.0,
            victim: 2,
        }
    }
}

/// A reconstructed trajectory point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrackPoint {
    /// Receive time.
    pub time: f64,
    /// Claimed position.
    pub position: f64,
    /// Claimed speed.
    pub speed: f64,
}

/// The passive eavesdropper.
/// # Examples
///
/// ```
/// use platoon_attacks::prelude::*;
/// use platoon_sim::prelude::*;
///
/// let mut engine = Engine::new(Scenario::builder().vehicles(4).duration(5.0).build());
/// engine.add_attack(Box::new(EavesdropAttack::new(EavesdropConfig::default())));
/// engine.run();
/// let ear = engine.attacks()[0].as_any().downcast_ref::<EavesdropAttack>().unwrap();
/// assert!(ear.beacons_read() > 0, "plain beacons leak");
/// ```
#[derive(Clone, Debug)]
pub struct EavesdropAttack {
    config: EavesdropConfig,
    /// Total frames overheard.
    frames_heard: u64,
    /// Total payload bytes captured.
    bytes_captured: u64,
    /// Beacons successfully read as plaintext.
    beacons_read: u64,
    /// Manoeuvre messages successfully read.
    maneuvers_read: u64,
    /// Frames whose content could not be interpreted.
    opaque_frames: u64,
    /// Distinct claimed identities observed.
    identities: HashSet<PrincipalId>,
    /// Reconstructed victim trajectory.
    victim_track: Vec<TrackPoint>,
    /// Per-identity beacon counts (traffic analysis).
    per_identity: HashMap<PrincipalId, u64>,
}

impl EavesdropAttack {
    /// Creates the attack.
    pub fn new(config: EavesdropConfig) -> Self {
        EavesdropAttack {
            config,
            frames_heard: 0,
            bytes_captured: 0,
            beacons_read: 0,
            maneuvers_read: 0,
            opaque_frames: 0,
            identities: HashSet::new(),
            victim_track: Vec::new(),
            per_identity: HashMap::new(),
        }
    }

    /// Total frames overheard.
    pub fn frames_heard(&self) -> u64 {
        self.frames_heard
    }

    /// Total payload bytes captured.
    pub fn bytes_captured(&self) -> u64 {
        self.bytes_captured
    }

    /// Beacons read as plaintext.
    pub fn beacons_read(&self) -> u64 {
        self.beacons_read
    }

    /// Manoeuvre messages read as plaintext.
    pub fn maneuvers_read(&self) -> u64 {
        self.maneuvers_read
    }

    /// Distinct identities observed (pseudonym changes inflate this).
    pub fn identity_count(&self) -> usize {
        self.identities.len()
    }

    /// The reconstructed victim trajectory.
    pub fn victim_track(&self) -> &[TrackPoint] {
        &self.victim_track
    }

    fn position(&self, world: &World) -> Position {
        let n = world.vehicles.len();
        let mid = world.vehicles[n / 2].vehicle.state.position;
        (
            mid + self.config.longitudinal_offset,
            self.config.lateral_offset,
        )
    }
}

impl Attack for EavesdropAttack {
    fn name(&self) -> &'static str {
        "eavesdrop"
    }

    fn attribute(&self) -> SecurityAttribute {
        SecurityAttribute::Confidentiality
    }

    fn observe(&mut self, world: &mut World, _rng: &mut StdRng, deliveries: &[Delivery]) {
        let me = NodeId(self.config.attacker_node);
        for d in deliveries {
            if d.receiver != me {
                continue;
            }
            self.frames_heard += 1;
            self.bytes_captured += d.payload.len() as u64;
            let Ok(env) = Envelope::decode(&d.payload) else {
                self.opaque_frames += 1;
                continue;
            };
            self.identities.insert(env.sender);
            *self.per_identity.entry(env.sender).or_insert(0) += 1;
            // CAM-style payloads are authenticated, not encrypted: the
            // eavesdropper reads them regardless of the auth scheme.
            match env.open_unverified() {
                Ok(PlatoonMessage::Beacon(b)) => {
                    self.beacons_read += 1;
                    if env.sender == PrincipalId(self.config.victim) {
                        self.victim_track.push(TrackPoint {
                            time: world.time,
                            position: b.position,
                            speed: b.speed,
                        });
                    }
                }
                Ok(_) => self.maneuvers_read += 1,
                Err(_) => self.opaque_frames += 1,
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
            .duration(30.0)
            .auth(auth)
            .seed(17)
            .build()
    }

    fn run(auth: AuthMode) -> (Engine, RunSummary) {
        let mut engine = Engine::new(scenario("eavesdrop", auth));
        engine.add_attack(Box::new(EavesdropAttack::new(EavesdropConfig::default())));
        let s = engine.run();
        (engine, s)
    }

    fn attack(engine: &Engine) -> &EavesdropAttack {
        engine.attacks()[0]
            .as_any()
            .downcast_ref::<EavesdropAttack>()
            .unwrap()
    }

    #[test]
    fn passive_listener_reads_plaintext_beacons() {
        let (engine, _) = run(AuthMode::None);
        let a = attack(&engine);
        assert!(a.frames_heard() > 500, "heard {}", a.frames_heard());
        assert!(a.beacons_read() > 500);
        assert_eq!(a.identity_count(), 5);
        assert!(a.bytes_captured() > 10_000);
    }

    #[test]
    fn authentication_does_not_stop_reading() {
        // Signatures authenticate but do not encrypt: the paper's privacy
        // challenge (§VI-B.2) survives a PKI deployment.
        let (engine, _) = run(AuthMode::Pki);
        let a = attack(&engine);
        assert!(
            a.beacons_read() > 500,
            "signed beacons are still readable: {}",
            a.beacons_read()
        );
    }

    #[test]
    fn victim_trajectory_is_reconstructed_accurately() {
        let (engine, _) = run(AuthMode::None);
        let a = attack(&engine);
        assert!(
            a.victim_track().len() > 200,
            "track points {}",
            a.victim_track().len()
        );
        // Compare against the victim's true final trajectory: claimed
        // positions come from GPS (1.5 m noise), so mean error is small.
        let victim_idx = 2;
        let true_final = engine.world().vehicles[victim_idx].vehicle.state.position;
        let last = a.victim_track().last().unwrap();
        assert!(
            (last.position - true_final).abs() < 15.0,
            "track end {} vs truth {}",
            last.position,
            true_final
        );
    }

    #[test]
    fn attack_is_purely_passive() {
        let clean = Engine::new(scenario("eavesdrop-clean", AuthMode::None)).run();
        let (_, attacked) = run(AuthMode::None);
        assert_eq!(attacked.collisions, clean.collisions);
        assert!((attacked.max_spacing_error - clean.max_spacing_error).abs() < 1.0);
    }
}
