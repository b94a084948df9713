//! The simulated world: vehicles, roadside units, the radio medium and the
//! adversary-visible state attacks mutate.

use platoon_crypto::cert::{Certificate, PrincipalId};
use platoon_crypto::keys::SymmetricKey;
use platoon_crypto::signature::Signer;
use platoon_dynamics::controller::{CommPeer, LongitudinalController};
use platoon_dynamics::fuel::FuelMeter;
use platoon_dynamics::sensors::SensorSuite;
use platoon_dynamics::vehicle::Vehicle;
use platoon_proto::messages::{PlatoonId, Role};
use platoon_v2x::hash::FxHashMap;
use platoon_v2x::jamming::Jammer;
use platoon_v2x::medium::RadioMedium;
use platoon_v2x::message::{distance, NodeId, Payload, Position};

/// Credential material a vehicle uses to seal outgoing messages.
#[derive(Clone, Debug)]
pub enum AuthMaterial {
    /// No authentication (the undefended baseline).
    None,
    /// Shared platoon group key (HMAC envelopes).
    GroupMac(SymmetricKey),
    /// Shared group key with payload encryption (encrypt-then-MAC).
    EncryptedGroupMac(SymmetricKey),
    /// Certified signing key (signature envelopes).
    Pki {
        /// The vehicle's signer.
        signer: Signer,
        /// Its certificate from the trusted authority.
        certificate: Certificate,
    },
}

/// The freshest kinematic information heard from a peer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HeardPeer {
    /// Who the information claims to be from.
    pub principal: PrincipalId,
    /// The kinematic content.
    pub peer: CommPeer,
    /// Simulation time the beacon was received.
    pub heard_at: f64,
}

/// Per-vehicle communication state.
#[derive(Clone, Debug, Default)]
pub struct CommState {
    /// Last beacon accepted from the predecessor.
    pub predecessor: Option<HeardPeer>,
    /// Last beacon accepted from the platoon leader.
    pub leader: Option<HeardPeer>,
    /// Wire bytes of the last accepted leader beacon, kept for hop-by-hop
    /// VLC relaying (SP-VLC forwards the leader's message down the optical
    /// chain; the signature inside stays valid because the bytes are
    /// verbatim). Shared, so relay frames clone it for free.
    pub leader_envelope: Option<Payload>,
}

impl CommState {
    /// Converts stored beacons into controller inputs, computing ages.
    pub fn comm_peer_predecessor(&self, now: f64) -> Option<CommPeer> {
        self.predecessor.map(|h| CommPeer {
            age: (now - h.heard_at).max(0.0),
            ..h.peer
        })
    }

    /// Leader view with age, for the controller.
    pub fn comm_peer_leader(&self, now: f64) -> Option<CommPeer> {
        self.leader.map(|h| CommPeer {
            age: (now - h.heard_at).max(0.0),
            ..h.peer
        })
    }
}

/// Falsified content an inside attacker (or malware) injects into the
/// vehicle's own beacons — the "deliberately transmit false or misleading
/// information" FDI variant of §V-A.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BeaconLie {
    /// Added to the claimed position.
    pub position_offset: f64,
    /// Added to the claimed speed.
    pub speed_offset: f64,
    /// Added to the claimed acceleration.
    pub accel_offset: f64,
}

impl BeaconLie {
    /// Whether the lie actually changes anything.
    pub fn is_active(&self) -> bool {
        self.position_offset != 0.0 || self.speed_offset != 0.0 || self.accel_offset != 0.0
    }
}

/// A vehicle participating in the simulation.
#[derive(Clone, Debug)]
pub struct VehicleNode {
    /// Application-level identity (pseudonymous or long-term).
    pub principal: PrincipalId,
    /// Radio identity.
    pub node: NodeId,
    /// Longitudinal dynamics.
    pub vehicle: Vehicle,
    /// On-board sensors (attack surface for spoofing/jamming).
    pub sensors: SensorSuite,
    /// Longitudinal controller.
    pub controller: Box<dyn LongitudinalController>,
    /// Current role.
    pub role: Role,
    /// Which platoon this vehicle currently belongs to.
    pub platoon: PlatoonId,
    /// Beacon sequence counter.
    pub seq: u64,
    /// Encryption nonce counter (never reused within a run).
    pub nonce: u64,
    /// Communication state (freshest accepted beacons).
    pub comm: CommState,
    /// Credential material.
    pub auth: AuthMaterial,
    /// Fuel accounting.
    pub fuel: FuelMeter,
    /// Extra front gap currently commanded (join gaps, fake manoeuvres).
    pub extra_front_gap: f64,
    /// Time at which `extra_front_gap` expires (simulation seconds).
    pub extra_gap_until: f64,
    /// Falsification applied to this vehicle's own outgoing beacons.
    pub beacon_lie: Option<BeaconLie>,
    /// Whether on-board malware has compromised this vehicle.
    pub infected: bool,
    /// Whether on-board hardening (firewall + component isolation, Table III
    /// "Securing Onboard Systems") is deployed; malware spread respects it.
    pub hardened: bool,
    /// Whether the platooning service is operational (malware can disable).
    pub platooning_enabled: bool,
}

impl VehicleNode {
    /// Radio position of the vehicle, on the platoon lane (`y = 0`).
    pub fn position(&self) -> Position {
        (self.vehicle.state.position, 0.0)
    }
}

/// A roadside unit: fixed infrastructure with a radio and a trusted link to
/// the authority.
#[derive(Clone, Debug)]
pub struct Rsu {
    /// Radio identity.
    pub node: NodeId,
    /// Fixed position.
    pub position: Position,
}

/// Mutable world state threaded through the engine and the attack/defense
/// hooks.
#[derive(Clone, Debug)]
pub struct World {
    /// Simulation time in seconds.
    pub time: f64,
    /// Vehicles ordered front (index 0 = original leader) to back.
    pub vehicles: Vec<VehicleNode>,
    /// Roadside units.
    pub rsus: Vec<Rsu>,
    /// The shared radio medium.
    pub medium: RadioMedium,
    /// Active jammers (attacks add and remove these).
    pub jammers: Vec<Jammer>,
    /// Principal → vehicle index, built once with the world.
    principal_lookup: FxHashMap<PrincipalId, usize>,
    /// Radio node → vehicle index, built once with the world.
    node_lookup: FxHashMap<NodeId, usize>,
}

/// Per-tick platoon layout computed in one O(n) pass, replacing the
/// per-vehicle [`World::platoon_local_index`] / [`World::platoon_leader_index`]
/// scans (O(n²) per tick) in the engine's hot loops.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PlatoonLayout {
    /// `local_index[i]`: how many vehicles ahead of `i` share its platoon.
    pub local_index: Vec<usize>,
    /// `leader_index[i]`: index of the vehicle leading `i`'s platoon.
    pub leader_index: Vec<usize>,
}

impl World {
    /// Builds a world and its identity lookup maps.
    pub fn new(
        vehicles: Vec<VehicleNode>,
        rsus: Vec<Rsu>,
        medium: RadioMedium,
        jammers: Vec<Jammer>,
    ) -> Self {
        let mut world = World {
            time: 0.0,
            vehicles,
            rsus,
            medium,
            jammers,
            principal_lookup: FxHashMap::default(),
            node_lookup: FxHashMap::default(),
        };
        world.rebuild_lookup();
        world
    }

    /// Builds the identity lookup maps. The roster is fixed once the world
    /// is built: joins, splits and merges change a vehicle's platoon and
    /// role, never its index or identity.
    fn rebuild_lookup(&mut self) {
        self.principal_lookup.clear();
        self.node_lookup.clear();
        self.principal_lookup.reserve(self.vehicles.len());
        self.node_lookup.reserve(self.vehicles.len());
        for (i, v) in self.vehicles.iter().enumerate() {
            self.principal_lookup.insert(v.principal, i);
            self.node_lookup.insert(v.node, i);
        }
    }

    /// Index of the vehicle with the given principal, if any.
    pub fn index_of(&self, principal: PrincipalId) -> Option<usize> {
        let found = self.principal_lookup.get(&principal).copied();
        if let Some(i) = found {
            debug_assert_eq!(
                self.vehicles[i].principal, principal,
                "stale principal lookup: the vehicle roster changed after World::new"
            );
        }
        found
    }

    /// Index of the vehicle with the given radio node, if any.
    pub fn index_of_node(&self, node: NodeId) -> Option<usize> {
        let found = self.node_lookup.get(&node).copied();
        if let Some(i) = found {
            debug_assert_eq!(
                self.vehicles[i].node, node,
                "stale node lookup: the vehicle roster changed after World::new"
            );
        }
        found
    }

    /// True bumper-to-bumper gap from vehicle `idx` to the vehicle physically
    /// ahead of it, whichever platoon that one belongs to (ground truth;
    /// sensors add noise and faults on top).
    pub fn true_gap(&self, idx: usize) -> Option<f64> {
        if idx == 0 {
            return None;
        }
        Some(
            self.vehicles[idx]
                .vehicle
                .gap_to(&self.vehicles[idx - 1].vehicle),
        )
    }

    /// True range rate (positive = opening) in front of vehicle `idx`.
    pub fn true_range_rate(&self, idx: usize) -> Option<f64> {
        if idx == 0 {
            return None;
        }
        Some(self.vehicles[idx - 1].vehicle.state.speed - self.vehicles[idx].vehicle.state.speed)
    }

    /// Whether vehicle `idx` is not `sender` and its body covers road
    /// position `claimed`, so `sender` cannot stand there (Convoy-style
    /// co-location evidence).
    pub fn occupies(&self, idx: usize, sender: PrincipalId, claimed: f64) -> bool {
        let v = &self.vehicles[idx];
        v.principal != sender
            && (v.vehicle.state.position - claimed).abs() < v.vehicle.params.length * 0.5
    }

    /// Whether any vehicle other than `sender` covers road position
    /// `claimed` ([`Self::occupies`] over the whole fleet).
    pub fn colocation_conflict(&self, sender: PrincipalId, claimed: f64) -> bool {
        (0..self.vehicles.len()).any(|i| self.occupies(i, sender, claimed))
    }

    /// The median power, in dBm, at which vehicle `rx_idx` would receive a
    /// DSRC frame sent at the default power from road position `claimed`:
    /// what an RF frame's RSSI should be if its claim is true.
    pub fn expected_rssi_dbm(&self, rx_idx: usize, claimed: f64) -> f64 {
        let d = distance((claimed, 0.0), self.vehicles[rx_idx].position());
        let dsrc = &self.medium.dsrc;
        dsrc.median_rx_power_dbm(dsrc.default_tx_power_dbm, d)
    }

    /// Platoon-local index of vehicle `idx`: how many vehicles ahead of it
    /// share its platoon id (0 = it leads its platoon).
    pub fn platoon_local_index(&self, idx: usize) -> usize {
        let pid = self.vehicles[idx].platoon;
        self.vehicles[..idx]
            .iter()
            .filter(|v| v.platoon == pid)
            .count()
    }

    /// Index of the vehicle currently leading `idx`'s platoon.
    pub fn platoon_leader_index(&self, idx: usize) -> usize {
        let pid = self.vehicles[idx].platoon;
        self.vehicles
            .iter()
            .position(|v| v.platoon == pid)
            .expect("vehicle idx itself matches")
    }

    /// Computes every vehicle's platoon-local index and leader index in one
    /// pass. Equals calling [`Self::platoon_local_index`] /
    /// [`Self::platoon_leader_index`] per vehicle, at O(n) instead of O(n²).
    pub fn platoon_layout(&self) -> PlatoonLayout {
        let n = self.vehicles.len();
        let mut layout = PlatoonLayout {
            local_index: Vec::with_capacity(n),
            leader_index: Vec::with_capacity(n),
        };
        // (members seen so far, index of first member) per platoon.
        let mut seen: FxHashMap<PlatoonId, (usize, usize)> = FxHashMap::default();
        for (i, v) in self.vehicles.iter().enumerate() {
            let entry = seen.entry(v.platoon).or_insert((0, i));
            layout.local_index.push(entry.0);
            layout.leader_index.push(entry.1);
            entry.0 += 1;
        }
        layout
    }

    /// Number of distinct platoon ids present (fragmentation metric).
    pub fn platoon_count(&self) -> usize {
        let mut ids: Vec<PlatoonId> = self.vehicles.iter().map(|v| v.platoon).collect();
        ids.sort();
        ids.dedup();
        ids.len()
    }
}
