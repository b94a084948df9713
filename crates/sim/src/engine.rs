//! The simulation engine: the sense → communicate → control → integrate loop
//! with attack and defense hook points.
//!
//! One **communication step** (default 100 ms, the CAM beacon interval) runs:
//!
//! 1. `Attack::before_comm` — adversaries mutate the world (jammers, sensor
//!    faults, infections).
//! 2. Honest nodes emit beacons and queued manoeuvre messages, sealed
//!    according to the scenario's [`AuthMode`]; `Attack::on_air` records and
//!    injects frames; the [`RadioMedium`](platoon_v2x::medium::RadioMedium)
//!    decides deliveries.
//! 3. Deliveries are verified (engine-level authentication per the deployed
//!    key scheme, then every [`Defense::filter_rx`]), then applied: beacons
//!    update controller inputs, manoeuvre messages drive the leader's
//!    [`ManeuverEngine`] and member-side split/gap handling.
//! 4. Controllers compute commands; `Defense::adjust_commands` may mitigate.
//! 5. Vehicle dynamics integrate in fine substeps; safety/fuel/stability
//!    metrics accumulate.

use crate::attack::Attack;
use crate::defense::{Defense, RejectReason};
use crate::fault::Fault;
use crate::harness::{fnv1a_fold, FNV_OFFSET};
use crate::metrics::{MetricsCollector, RunSummary};
use crate::par;
use crate::perf::PerfCounters;
use crate::regime::{steps_for, RegimeState};
use crate::scenario::{AuthMode, CommsMode, ControllerKind, Scenario};
use crate::trace::{TraceDetail, TracePhase, TraceRecord, TraceRecorder};
use crate::world::{AuthMaterial, CommState, HeardPeer, PlatoonLayout, Rsu, VehicleNode, World};
use platoon_crypto::cert::{CertificateAuthority, CertificateMemo, PrincipalId};
use platoon_crypto::keys::{KeyPair, SymmetricKey};
use platoon_crypto::signature::Signer;
use platoon_detect::fusion::{Alert, AlertTarget};
use platoon_detect::observation::{
    AuthMeta, BeaconClaim, BeaconObservation, ControlKind, ControlObservation, MessageObservation,
    ObserverContext, SensorObservation, TickContext,
};
use platoon_detect::pipeline::{Pipeline, PipelineConfig};
use platoon_dynamics::acc::AccController;
use platoon_dynamics::cacc::CaccController;
use platoon_dynamics::consensus::ConsensusController;
use platoon_dynamics::controller::{
    CommPeer, ControlContext, LongitudinalController, RadarReading,
};
use platoon_dynamics::fuel::PlatoonPosition;
use platoon_dynamics::ploeg::PloegController;
use platoon_dynamics::sensors::SensorSuite;
use platoon_dynamics::vehicle::Vehicle;
use platoon_proto::envelope::Envelope;
use platoon_proto::maneuver::{JoinOutcome, ManeuverEngine};
use platoon_proto::membership::Roster;
use platoon_proto::messages::{Beacon, PlatoonId, PlatoonMessage, Role};
use platoon_v2x::hash::FxHashMap;
use platoon_v2x::medium::Receiver;
use platoon_v2x::message::{ChannelKind, Delivery, Frame, NodeId, Payload, Position};
use platoon_v2x::spatial::SpatialGrid;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Salt for deriving the trusted authority's key pair from the scenario seed.
const CA_SEED_SALT: u64 = 0xCA00_0000_0000_0001;

/// How close (metres) a joiner's claimed position must be to its reserved
/// slot for the leader to consider the merge physically complete.
const JOIN_ARRIVAL_TOLERANCE: f64 = 30.0;

/// Reusable per-step scratch buffers.
///
/// The engine's hot loop builds the same transient collections every
/// communication step (outgoing frames, the receiver roster, detector
/// observation batches, the dedup record, the command vector). Allocating
/// them once and clearing them per tick keeps the steady-state step free of
/// heap churn; each buffer is `mem::take`n for the duration of the phase
/// that fills it, so the split borrows stay trivial.
#[derive(Debug, Default)]
struct StepScratch {
    /// Outgoing frames handed to the medium.
    frames: Vec<Frame>,
    /// Nodes able to receive this step.
    receivers: Vec<Receiver>,
    /// The medium's deliveries this step, cleared as soon as the delivery
    /// round is over.
    deliveries: Vec<Delivery>,
    /// This step's accepted message observations, in arrival order, for
    /// one batched detector ingest per delivery round.
    observations: Vec<MessageObservation>,
    /// VLC relay staging: (vehicle index, relayed wire bytes).
    relays: Vec<(usize, Payload)>,
    /// Silence-monitoring member roster.
    members: Vec<PrincipalId>,
    /// Operational observer indices.
    observers: Vec<usize>,
    /// Controller commands.
    commands: Vec<f64>,
    /// Protocol dedup: which receivers applied which payload, this step.
    dedup: RoundDedup,
    /// Beacon sealing staging: (vehicle index, message, sealed nonce).
    seal_jobs: Vec<(usize, PlatoonMessage, u64)>,
}

/// Protocol dedup for one frame-major delivery round: a receiver applies
/// each payload once per round, however many frames carry it (the hybrid
/// copy, VLC relays, re-sent bytes).
///
/// A frame never reaches the same receiver twice, so a receiver is checked
/// only against the earlier frames of the round that carry the same bytes.
/// Each frame that applied anything keeps its receivers as one run of
/// `applied` and links to the previous frame with the same bytes, so the
/// round allocates nothing per frame once its buffers are warm.
#[derive(Debug, Default)]
struct RoundDedup {
    /// Payload bytes → the latest entry of `frames` carrying them.
    latest: FxHashMap<Payload, usize>,
    /// The frames that applied at least one delivery, in delivery order.
    frames: Vec<AppliedFrame>,
    /// Receivers (vehicle indices) that applied each frame, frame by frame.
    applied: Vec<u32>,
    /// Whether the current frame has an entry in `frames` yet.
    open: bool,
}

/// One frame's run of receivers in [`RoundDedup::applied`]. The run ends
/// where the next frame's starts.
#[derive(Debug)]
struct AppliedFrame {
    start: usize,
    /// The previous entry of `frames` with the same bytes.
    prev: Option<usize>,
}

impl RoundDedup {
    /// Ends the round, releasing its payload handles.
    fn clear(&mut self) {
        self.latest.clear();
        self.frames.clear();
        self.applied.clear();
        self.open = false;
    }

    /// Moves on to the next frame of the round.
    fn next_frame(&mut self) {
        self.open = false;
    }

    /// Whether receiver `rx` applies `payload`, the current frame's bytes:
    /// false when `rx` already applied an earlier frame with the same bytes
    /// this round. The current frame's first call looks its bytes up, so a
    /// frame no receiver accepts is never hashed.
    fn admit(&mut self, rx: usize, payload: &Payload) -> bool {
        if !self.open {
            let prev = self.latest.insert(payload.clone(), self.frames.len());
            self.frames.push(AppliedFrame {
                start: self.applied.len(),
                prev,
            });
            self.open = true;
        }
        let rx = u32::try_from(rx).expect("vehicle indices fit in u32");
        let mut earlier = self.frames.last().and_then(|f| f.prev);
        while let Some(k) = earlier {
            let run = self.frames[k].start..self.frames[k + 1].start;
            if self.applied[run].contains(&rx) {
                return false;
            }
            earlier = self.frames[k].prev;
        }
        self.applied.push(rx);
        true
    }
}

/// A passive tap on the accepted-message observation stream.
///
/// Attached via [`Engine::attach_observation_sink`], the sink receives
/// every delivery round's accepted observations — the exact batches a
/// detection pipeline would ingest, in arrival order — without influencing
/// the run in any way. The dataset exporter uses this to render labeled
/// per-beacon feature rows; attaching a sink never perturbs the rng
/// stream, so a tapped run is byte-identical to an untapped one.
pub trait ObservationSink: std::fmt::Debug {
    /// Receives one delivery round's accepted observations, arrival order.
    fn on_messages(&mut self, batch: &[MessageObservation]);
    /// Downcast support for extracting recorded data after a run.
    fn as_any(&self) -> &dyn std::any::Any;
}

/// Why an engine could not be snapshotted (or a snapshot could not be
/// verified): some attached component does not support deep cloning, or a
/// `clone_box` implementation lost state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotError {
    component: String,
}

impl SnapshotError {
    fn new(component: impl Into<String>) -> Self {
        SnapshotError {
            component: component.into(),
        }
    }

    /// The component that refused to snapshot, e.g. ``attack `replay` ``.
    pub fn component(&self) -> &str {
        &self.component
    }
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "engine cannot be snapshotted: {}", self.component)
    }
}

impl std::error::Error for SnapshotError {}

/// A frozen, verified copy of a running engine.
///
/// Produced by [`Engine::snapshot`]; [`restore`](Self::restore) hands back
/// a fresh engine that continues byte-identically to the original — same
/// rng stream, same trace digest, same [`RunSummary`] — at any worker
/// thread count. The snapshot stores a canonical [`digest`](Self::digest)
/// of the captured state and re-verifies it on every restore, so silent
/// divergence (a component whose clone loses state) fails loudly instead
/// of producing subtly different results.
#[derive(Debug)]
pub struct EngineSnapshot {
    engine: Engine,
    digest: u64,
}

impl EngineSnapshot {
    /// Canonical digest of the captured state (see
    /// [`Engine::state_digest`]).
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The communication step the snapshot was taken at.
    pub fn tick(&self) -> u64 {
        self.engine.steps_run
    }

    /// Rehydrates a runnable engine from the snapshot. The snapshot stays
    /// valid — restore as many times as needed (each restore re-clones).
    ///
    /// # Errors
    ///
    /// Fails if the re-clone is refused or the rehydrated engine's digest
    /// no longer matches the one captured at snapshot time.
    pub fn restore(&self) -> Result<Engine, SnapshotError> {
        let engine = self.engine.try_clone()?;
        let digest = engine.state_digest();
        if digest != self.digest {
            return Err(SnapshotError::new(format!(
                "restored digest {digest:016x} != snapshot digest {:016x}",
                self.digest
            )));
        }
        Ok(engine)
    }
}

/// The simulation engine.
#[derive(Debug)]
pub struct Engine {
    scenario: Scenario,
    world: World,
    ca: CertificateAuthority,
    /// Certificates whose CA signature has verified this run, so each is
    /// checked once, not at every delivery ([`Self::authenticate`]). Not
    /// run-visible state: it only skips work that would pass again.
    verified_certs: CertificateMemo,
    group_key: SymmetricKey,
    maneuvers: ManeuverEngine,
    attacks: Vec<Box<dyn Attack>>,
    defenses: Vec<Box<dyn Defense>>,
    faults: Vec<Box<dyn Fault>>,
    metrics: MetricsCollector,
    rng: StdRng,
    /// Manoeuvre responses queued by the leader for the next step.
    outbox: Vec<(usize, PlatoonMessage)>,
    /// Latest claimed position per principal (from any accepted beacon).
    claimed_positions: FxHashMap<PrincipalId, (f64, f64)>,
    /// Count of messages rejected by verification or defenses.
    rejected_messages: usize,
    /// Count of detections raised by defenses.
    detections: usize,
    /// Optional streaming misbehavior-detection pipeline (`platoon-detect`).
    pipeline: Option<Pipeline>,
    /// Optional passive tap on the accepted-observation stream (dataset
    /// export); sees exactly the batches the pipeline would ingest.
    obs_sink: Option<Box<dyn ObservationSink>>,
    /// Next platoon id to assign on splits.
    next_platoon_id: u32,
    steps_run: u64,
    /// Driving-regime bookkeeping (active phase, applied channel deltas).
    regime: RegimeState,
    /// Previous step's service state, so an outage is traced once, when it
    /// starts.
    service_was_down: Vec<bool>,
    /// Reusable per-step buffers (see [`StepScratch`]).
    scratch: StepScratch,
    /// Deterministic work counters (see [`crate::perf`]).
    perf: PerfCounters,
    /// Optional per-tick trace recorder (see [`crate::trace`]).
    tracer: Option<TraceRecorder>,
    /// Intra-run worker threads for the shardable step phases (see
    /// [`set_threads`](Self::set_threads)). Never affects results.
    threads: usize,
    /// Cumulative RF (frame, receiver) pairs the medium sampled — the
    /// deterministic work metric the spatial index reduces.
    medium_pairs: u64,
    /// Radio nodes of `vehicles[0]` and `vehicles[n - 1]`, the link
    /// [`RunSummary::leader_tail_pdr`] reports. Only [`Engine::new`] adds
    /// vehicles, so the pair is fixed when the engine is built.
    leader_tail: (NodeId, NodeId),
}

impl Engine {
    /// Builds the world for a scenario: one or more already-formed platoons
    /// cruising at the profile's initial speed with all gaps at their
    /// set-points. With `scenario.platoons > 1` (corridor worlds) each
    /// platoon gets its own id and leader; platoon 1 is the frontmost and
    /// owns the manoeuvre engine.
    pub fn new(scenario: Scenario) -> Self {
        let mut ca = CertificateAuthority::new(
            PrincipalId(1_000_000),
            KeyPair::from_seed(scenario.seed ^ CA_SEED_SALT),
        );
        let group_key = SymmetricKey::derive(&scenario.seed.to_be_bytes(), "platoon-group");
        let v0 = scenario.profile.initial_speed();
        let spacing = scenario.params.length + scenario.desired_gap;
        let per_platoon = scenario.vehicles;
        let platoons = scenario.platoons.max(1);
        let n = per_platoon * platoons;

        let mut vehicles = Vec::with_capacity(n);
        for g in 0..n {
            let (p, i) = (g / per_platoon, g % per_platoon);
            let principal = PrincipalId(g as u64);
            let auth = match scenario.auth {
                AuthMode::None => AuthMaterial::None,
                AuthMode::GroupMac => AuthMaterial::GroupMac(group_key),
                AuthMode::EncryptedGroupMac => AuthMaterial::EncryptedGroupMac(group_key),
                AuthMode::Pki => {
                    let keypair =
                        KeyPair::from_seed(scenario.seed.wrapping_mul(31).wrapping_add(g as u64));
                    AuthMaterial::Pki {
                        signer: Signer::new(keypair),
                        certificate: ca.issue(
                            principal,
                            keypair.public(),
                            0.0,
                            scenario.duration + 3600.0,
                        ),
                    }
                }
            };
            // Leaders at the front of their platoons (largest x), platoon 1
            // frontmost; later platoons trail by the inter-platoon spacing.
            let position = (n - 1 - g) as f64 * spacing
                + scenario.params.length
                + (platoons - 1 - p) as f64 * scenario.platoon_spacing;
            let controller: Box<dyn LongitudinalController> = if i == 0 {
                Box::new(platoon_dynamics::controller::CruiseController::new(v0))
            } else {
                match scenario.controller {
                    ControllerKind::Acc => Box::new(AccController::default()),
                    ControllerKind::Cacc => Box::new(CaccController::default()),
                    ControllerKind::Ploeg => Box::new(PloegController::default()),
                    ControllerKind::Consensus => Box::new(ConsensusController::default()),
                }
            };
            vehicles.push(VehicleNode {
                principal,
                node: NodeId(g as u64),
                vehicle: Vehicle::new(scenario.params, position, v0),
                sensors: SensorSuite::default(),
                controller,
                role: if i == 0 { Role::Leader } else { Role::Member },
                platoon: PlatoonId(p as u32 + 1),
                seq: 0,
                nonce: 0,
                comm: CommState::default(),
                auth,
                fuel: Default::default(),
                extra_front_gap: 0.0,
                extra_gap_until: 0.0,
                beacon_lie: None,
                infected: false,
                hardened: false,
                platooning_enabled: true,
            });
        }

        // RSU node ids start at 10,000, or after the last vehicle's in a
        // larger world: the delivery round relies on every receiver id
        // being distinct, so that a frame reaches each node at most once.
        let first_rsu = 10_000.max(n) as u64;
        let rsus = scenario
            .rsu_positions
            .iter()
            .enumerate()
            .map(|(i, &position)| Rsu {
                node: NodeId(first_rsu + i as u64),
                position,
            })
            .collect();

        // The manoeuvre engine is platoon 1's: only its followers enter the
        // roster. Other platoons in a corridor run cruise independently.
        let mut roster = Roster::new(PlatoonId(1), PrincipalId(0), scenario.max_platoon_size);
        for v in vehicles.iter().take(per_platoon).skip(1) {
            roster
                .admit_tail(v.principal)
                .expect("initial platoon fits");
        }
        let maneuvers = ManeuverEngine::new(roster, scenario.maneuvers);
        let metrics = MetricsCollector::new(n, scenario.comm_step);
        let leader_tail = (vehicles[0].node, vehicles[n - 1].node);
        let rng = StdRng::seed_from_u64(scenario.seed);
        let medium = scenario.medium;

        Engine {
            world: World::new(vehicles, rsus, medium, Vec::new()),
            ca,
            verified_certs: CertificateMemo::new(),
            group_key,
            maneuvers,
            attacks: Vec::new(),
            defenses: Vec::new(),
            faults: Vec::new(),
            metrics,
            rng,
            outbox: Vec::new(),
            claimed_positions: FxHashMap::default(),
            rejected_messages: 0,
            detections: 0,
            pipeline: None,
            obs_sink: None,
            next_platoon_id: platoons as u32 + 1,
            steps_run: 0,
            regime: RegimeState::default(),
            threads: 1,
            medium_pairs: 0,
            leader_tail,
            service_was_down: vec![false; n],
            scratch: StepScratch::default(),
            perf: PerfCounters::default(),
            tracer: None,
            scenario,
        }
    }

    /// Number of communication steps executed so far.
    pub fn steps_run(&self) -> u64 {
        self.steps_run
    }

    /// Sets the number of worker threads for the shardable per-vehicle step
    /// phase, frame sealing.
    ///
    /// Results are **byte-identical for every thread count**: work is
    /// sharded in contiguous index chunks and merged in vehicle order, and
    /// every rng-consuming phase stays sequential. `1` (the default) runs
    /// the same path inline, with zero thread overhead.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Cumulative RF (frame, receiver) pairs the medium sampled across the
    /// run — the deterministic work metric the spatial index reduces.
    pub fn medium_pairs_considered(&self) -> u64 {
        self.medium_pairs
    }

    /// Plugs in an adversary.
    pub fn add_attack(&mut self, attack: Box<dyn Attack>) {
        self.attacks.push(attack);
    }

    /// Plugs in a security mechanism.
    pub fn add_defense(&mut self, defense: Box<dyn Defense>) {
        self.defenses.push(defense);
    }

    /// Plugs in a benign fault (see [`crate::fault`]).
    pub fn add_fault(&mut self, fault: Box<dyn Fault>) {
        self.faults.push(fault);
    }

    /// The trusted authority (for provisioning defenses or attacker
    /// credentials in experiments).
    pub fn ca(&self) -> &CertificateAuthority {
        &self.ca
    }

    /// Mutable authority access (revocation during a run).
    pub fn ca_mut(&mut self) -> &mut CertificateAuthority {
        &mut self.ca
    }

    /// The platoon group key (when `AuthMode::GroupMac` — but always derived,
    /// so experiments can hand it to insiders).
    pub fn group_key(&self) -> SymmetricKey {
        self.group_key
    }

    /// The world state.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Mutable world access for test scaffolding and experiment setup.
    pub fn world_mut(&mut self) -> &mut World {
        &mut self.world
    }

    /// The scenario this engine runs.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The leader's manoeuvre engine.
    pub fn maneuvers(&self) -> &ManeuverEngine {
        &self.maneuvers
    }

    /// Plugged-in attacks (for downcasting after a run).
    pub fn attacks(&self) -> &[Box<dyn Attack>] {
        &self.attacks
    }

    /// Plugged-in defenses (for downcasting after a run).
    pub fn defenses(&self) -> &[Box<dyn Defense>] {
        &self.defenses
    }

    /// Plugged-in faults.
    pub fn faults(&self) -> &[Box<dyn Fault>] {
        &self.faults
    }

    /// Attaches a streaming misbehavior-detection pipeline. The engine
    /// feeds it every observation vehicles already see — received beacons
    /// and manoeuvre messages (after channel delivery, with RSSI and
    /// credential metadata), on-board radar/LiDAR cross-check samples, and
    /// a per-step tick for silence monitoring. Alerts it raises are
    /// counted in `detections` and traced as detector alerts.
    pub fn attach_detectors(&mut self, pipeline: Pipeline) {
        self.pipeline = Some(pipeline);
    }

    /// Builds and attaches the stock detection bank from a config, first
    /// resolving scenario-dependent tuning: the frequency detector's
    /// nominal beacon rate becomes the scenario's configured rate
    /// (`1 / comm_step`), so its flood limit tracks what the platoon
    /// actually transmits instead of assuming 10 Hz. Prefer this over
    /// [`attach_detectors`](Self::attach_detectors) unless the pipeline
    /// was assembled by hand.
    pub fn attach_detector_config(&mut self, mut config: PipelineConfig) {
        if self.scenario.comm_step > 0.0 {
            config.frequency.nominal_rate_hz = 1.0 / self.scenario.comm_step;
        }
        self.pipeline = Some(Pipeline::new(config));
    }

    /// Attaches a passive [`ObservationSink`] fed the same accepted-message
    /// batches a detection pipeline would ingest. Works with or without a
    /// pipeline attached and never perturbs the run.
    pub fn attach_observation_sink(&mut self, sink: Box<dyn ObservationSink>) {
        self.obs_sink = Some(sink);
    }

    /// Detaches and returns the observation sink (to extract recorded data).
    pub fn take_observation_sink(&mut self) -> Option<Box<dyn ObservationSink>> {
        self.obs_sink.take()
    }

    /// Attaches a per-tick trace recorder. Each step emits phase-scoped
    /// [`TraceRecord`]s stamped with the tick index and tick-derived
    /// simulation time only — never wall clock — so the recorded stream is
    /// identical across worker counts and machines. The recorder's digest
    /// is folded into the [`RunSummary`].
    pub fn attach_tracer(&mut self, tracer: TraceRecorder) {
        self.tracer = Some(tracer);
    }

    /// Detaches and returns the recorder (to extract the recorded trace).
    pub fn take_tracer(&mut self) -> Option<TraceRecorder> {
        self.tracer.take()
    }

    /// Emits one trace record into `tracer` if one is attached.
    ///
    /// A free-standing helper over the field (rather than `&mut self`) so
    /// phases that already hold disjoint field borrows — the fault/defense
    /// hook loops, delivery processing — can emit without fighting the
    /// borrow checker.
    fn trace_into(
        tracer: &mut Option<TraceRecorder>,
        tick: u64,
        time: f64,
        phase: TracePhase,
        detail: TraceDetail,
    ) {
        if let Some(t) = tracer.as_mut() {
            t.record(&TraceRecord {
                tick,
                time,
                phase,
                detail,
            });
        }
    }

    /// Every alert the detection pipeline has raised, in raise order
    /// (empty when no pipeline is attached).
    pub fn alerts(&self) -> &[Alert] {
        self.pipeline.as_ref().map(|p| p.alerts()).unwrap_or(&[])
    }

    /// The metric collector.
    pub fn metrics(&self) -> &MetricsCollector {
        &self.metrics
    }

    /// The deterministic work counters accumulated so far.
    pub fn perf(&self) -> &PerfCounters {
        &self.perf
    }

    /// Rotates the platoon group key, excluding the listed principals from
    /// the new epoch — the §VI-A.2 eviction mechanism: "updating the keys so
    /// that anomalous users can be screened out faster". Excluded members
    /// keep the old key; everything they send afterwards fails verification,
    /// and they can no longer read encrypted traffic.
    ///
    /// Only meaningful under the group-key auth modes; a no-op otherwise.
    pub fn rekey_excluding(&mut self, excluded: &[PrincipalId]) {
        if !matches!(
            self.scenario.auth,
            AuthMode::GroupMac | AuthMode::EncryptedGroupMac
        ) {
            return;
        }
        self.group_key = SymmetricKey::derive(self.group_key.as_bytes(), "platoon-group-rotation");
        for v in self.world.vehicles.iter_mut() {
            if excluded.contains(&v.principal) {
                continue; // stays on the dead epoch
            }
            v.auth = match self.scenario.auth {
                AuthMode::GroupMac => AuthMaterial::GroupMac(self.group_key),
                AuthMode::EncryptedGroupMac => AuthMaterial::EncryptedGroupMac(self.group_key),
                _ => unreachable!("guarded above"),
            };
        }
    }

    /// Queues a *legitimate* split command from the leader: the platoon
    /// divides at `at_index` (platoon-local) on the next step. Returns the
    /// id assigned to the new trailing platoon.
    ///
    /// # Errors
    ///
    /// Propagates [`platoon_proto::membership::RosterError`] if the index is
    /// invalid for the current roster.
    pub fn command_split(
        &mut self,
        at_index: usize,
    ) -> Result<PlatoonId, platoon_proto::membership::RosterError> {
        let new_platoon = PlatoonId(self.next_platoon_id);
        self.maneuvers.handle_split(at_index, new_platoon)?;
        self.next_platoon_id += 1;
        self.outbox.push((
            0,
            PlatoonMessage::SplitCommand {
                platoon: self.world.vehicles[0].platoon,
                at_index: at_index as u32,
                new_platoon,
                timestamp: self.world.time,
            },
        ));
        Ok(new_platoon)
    }

    /// Merges the platoon immediately trailing the lead platoon back into
    /// it: its vehicles revert to followers of the original leader and
    /// re-enter the roster (the §II-B reform manoeuvre after a split, and
    /// how "all savings are lost ... until the platoon can reform" ends).
    ///
    /// Returns the number of vehicles merged: 0 if nothing trails, or if
    /// the lead roster has no room for every trailing vehicle (the merge is
    /// all or nothing).
    pub fn command_merge(&mut self) -> usize {
        let lead_platoon = self.world.vehicles[0].platoon;
        // Find the first trailing platoon id after the lead block.
        let Some(trailing) = self
            .world
            .vehicles
            .iter()
            .map(|v| v.platoon)
            .find(|p| *p != lead_platoon)
        else {
            return 0;
        };
        let roster = self.maneuvers.roster();
        let entering = self
            .world
            .vehicles
            .iter()
            .filter(|v| v.platoon == trailing && !roster.contains(v.principal))
            .count();
        if roster.len() + entering > roster.max_size {
            return 0;
        }
        let mut merged = 0;
        for idx in 0..self.world.vehicles.len() {
            if self.world.vehicles[idx].platoon != trailing {
                continue;
            }
            let principal = self.world.vehicles[idx].principal;
            let v = &mut self.world.vehicles[idx];
            v.platoon = lead_platoon;
            if v.role == Role::Leader && idx != 0 {
                v.role = Role::Member;
                // Restore the scenario's follower controller.
                v.controller = match self.scenario.controller {
                    ControllerKind::Acc => Box::new(AccController::default()),
                    ControllerKind::Cacc => Box::new(CaccController::default()),
                    ControllerKind::Ploeg => Box::new(PloegController::default()),
                    ControllerKind::Consensus => Box::new(ConsensusController::default()),
                };
                v.comm = CommState::default();
            }
            if !self.maneuvers.roster().contains(principal) {
                self.maneuvers
                    .roster_mut()
                    .admit_tail(principal)
                    .expect("room checked above");
            }
            merged += 1;
        }
        merged
    }

    /// Queues a *legitimate* gap-open command from the leader: the member at
    /// platoon-local `slot` opens `extra_gap` metres for an entering vehicle.
    pub fn command_gap_open(&mut self, slot: usize, extra_gap: f64) {
        self.outbox.push((
            0,
            PlatoonMessage::GapOpen {
                platoon: self.world.vehicles[0].platoon,
                slot: slot as u32,
                extra_gap,
                timestamp: self.world.time,
            },
        ));
    }

    /// Runs the scenario to completion and returns the summary.
    ///
    /// The tick count comes from [`steps_for`], which is exact on whole
    /// multiples of the step and truncates partial ticks — the previous
    /// `round()` derivation simulated a full extra tick whenever the
    /// duration landed on a half-step. The loop resumes from
    /// [`steps_run`](Self::steps_run) rather than always stepping the full
    /// count, so a restored snapshot continues to the scheduled end instead
    /// of overshooting it.
    pub fn run(&mut self) -> RunSummary {
        let total = steps_for(self.scenario.duration, self.scenario.comm_step);
        while self.steps_run < total {
            self.step();
        }
        self.restore_faults();
        self.summary()
    }

    /// Restores every plugged-in fault's saved state.
    ///
    /// [`run`](Self::run) calls this after the step loop so scoped faults
    /// hand the world back unmodified even when a run ends mid-window;
    /// manual steppers driving [`step`](Self::step) directly should call it
    /// themselves once done. Idempotent.
    pub fn restore_faults(&mut self) {
        for fault in self.faults.iter_mut() {
            fault.restore(&mut self.world);
        }
        // The regime layer tracks its channel deltas the same way faults
        // do; hand the medium back at its scenario baseline too.
        self.world.medium.dsrc.noise_floor_dbm -= self.regime.applied_noise_db;
        self.regime.applied_noise_db = 0.0;
        self.world.medium.vlc.ambient_outage_prob -= self.regime.applied_vlc_outage;
        self.regime.applied_vlc_outage = 0.0;
    }

    /// Applies the scenario's regime plan for the tick about to run:
    /// announces phase transitions (trace + detector pipeline), retargets
    /// the channel noise environment delta-style, and decides whether
    /// members beacon this tick. Runs *before* Phase 0 so faults and
    /// attacks act on the already-retargeted environment.
    fn apply_regime(&mut self, tick: u64, now: f64) {
        let Some(plan) = &self.scenario.regimes else {
            self.regime.beacon_this_tick = true;
            return;
        };
        let (idx, start_tick) = plan.phase_at(tick, self.scenario.comm_step);
        let phase = &plan.phases[idx];
        let beacon_every = phase.beacon_every;
        let noise_db = phase.noise_extra_db;
        if self.regime.phase != Some(idx) {
            let label = phase.label.clone();
            self.regime.phase = Some(idx);
            self.regime.phase_start_tick = start_tick;
            Self::trace_into(
                &mut self.tracer,
                tick,
                now,
                TracePhase::Regime,
                TraceDetail::RegimeEnter {
                    label: label.clone(),
                },
            );
            if let Some(pipeline) = self.pipeline.as_mut() {
                pipeline.on_regime(&label);
            }
        }
        // Delta application, exactly like `NoiseFloorRamp`: add the change
        // relative to what this layer already applied, so regime noise and
        // fault-injected noise compose without clobbering each other.
        self.world.medium.dsrc.noise_floor_dbm += noise_db - self.regime.applied_noise_db;
        self.regime.applied_noise_db = noise_db;
        // The optical channel has no RF noise floor; weather/tunnel dB map
        // onto ambient-outage probability so every active medium degrades.
        let vlc_outage = noise_db * platoon_v2x::vlc::VLC_OUTAGE_PER_DB;
        self.world.medium.vlc.ambient_outage_prob += vlc_outage - self.regime.applied_vlc_outage;
        self.regime.applied_vlc_outage = vlc_outage;
        self.regime.beacon_this_tick = (tick - start_tick).is_multiple_of(beacon_every);
    }

    /// Captures the full run state — world, rng, metrics, detector
    /// pipeline, tracer, fault/attack/defense internals — as a verified
    /// [`EngineSnapshot`].
    ///
    /// # Errors
    ///
    /// Fails when an attached attack or defense does not support deep
    /// cloning (its `clone_box` returns `None`), when an observation sink
    /// is attached (the sink is a side channel the snapshot cannot carry —
    /// re-attach it to the restored engine instead), or when the captured
    /// copy's digest disagrees with the live engine's (a `clone_box`
    /// implementation lost state).
    pub fn snapshot(&self) -> Result<EngineSnapshot, SnapshotError> {
        let digest = self.state_digest();
        let engine = self.try_clone()?;
        let cloned = engine.state_digest();
        if cloned != digest {
            return Err(SnapshotError::new(format!(
                "captured digest {cloned:016x} != live digest {digest:016x}"
            )));
        }
        Ok(EngineSnapshot { engine, digest })
    }

    /// Deep-clones the engine, component by component. Attacks and
    /// defenses go through their `clone_box` hooks; the first one that
    /// refuses names itself in the error. Scratch buffers are *not* copied
    /// — they are cleared before every use, so a fresh default is
    /// equivalent.
    pub fn try_clone(&self) -> Result<Engine, SnapshotError> {
        if self.obs_sink.is_some() {
            // The sink taps the observation stream without being part of
            // the simulation state; a clone could not carry it and the
            // tapped rows would silently stop. Refuse instead.
            return Err(SnapshotError::new(
                "observation sink (re-attach it to the restored engine)",
            ));
        }
        let attacks = self
            .attacks
            .iter()
            .map(|a| {
                a.clone_box()
                    .ok_or_else(|| SnapshotError::new(format!("attack `{}`", a.name())))
            })
            .collect::<Result<_, _>>()?;
        let defenses = self
            .defenses
            .iter()
            .map(|d| {
                d.clone_box()
                    .ok_or_else(|| SnapshotError::new(format!("defense `{}`", d.name())))
            })
            .collect::<Result<_, _>>()?;
        Ok(Engine {
            scenario: self.scenario.clone(),
            world: self.world.clone(),
            ca: self.ca.clone(),
            verified_certs: self.verified_certs.clone(),
            group_key: self.group_key,
            maneuvers: self.maneuvers.clone(),
            attacks,
            defenses,
            faults: self.faults.clone(),
            metrics: self.metrics.clone(),
            rng: self.rng.clone(),
            outbox: self.outbox.clone(),
            claimed_positions: self.claimed_positions.clone(),
            rejected_messages: self.rejected_messages,
            detections: self.detections,
            pipeline: self.pipeline.clone(),
            obs_sink: None,
            next_platoon_id: self.next_platoon_id,
            steps_run: self.steps_run,
            regime: self.regime.clone(),
            service_was_down: self.service_was_down.clone(),
            scratch: StepScratch::default(),
            perf: self.perf,
            tracer: self.tracer.clone(),
            threads: self.threads,
            medium_pairs: self.medium_pairs,
            leader_tail: self.leader_tail,
        })
    }

    /// A canonical FNV-1a digest over the engine's run-visible state:
    /// tick/time, the rng stream position (probed by cloning — the live
    /// stream is untouched), per-vehicle kinematics and protocol counters,
    /// the channel environment, the perf counters, the verdict tallies and
    /// the trace digest. Two engines with equal digests continue
    /// byte-identically; the snapshot machinery uses it to verify restores.
    pub fn state_digest(&self) -> u64 {
        let mut words: Vec<u64> = Vec::with_capacity(24 + self.world.vehicles.len() * 7);
        words.push(self.steps_run);
        words.push(self.world.time.to_bits());
        // Probe the rng position by drawing from a clone: StdRng draws are
        // a pure function of internal state, so four words pin the stream
        // without perturbing it.
        let mut probe = self.rng.clone();
        for _ in 0..4 {
            words.push(probe.next_u64());
        }
        for v in &self.world.vehicles {
            words.push(v.vehicle.state.position.to_bits());
            words.push(v.vehicle.state.speed.to_bits());
            words.push(v.vehicle.state.accel.to_bits());
            words.push(v.seq);
            words.push(v.nonce);
            words.push(u64::from(v.platoon.0));
            words.push(u64::from(v.platooning_enabled));
        }
        words.push(self.world.medium.dsrc.noise_floor_dbm.to_bits());
        words.push(self.world.medium.vlc.ambient_outage_prob.to_bits());
        let p = &self.perf;
        words.extend([
            p.ticks,
            p.frames_built,
            p.bytes_encoded,
            p.frame_bytes,
            p.payload_clones_avoided,
            p.deliveries,
            p.detector_observations,
            p.commands_computed,
        ]);
        words.push(self.rejected_messages as u64);
        words.push(self.detections as u64);
        words.push(self.medium_pairs);
        if let Some(tracer) = &self.tracer {
            let d = tracer.digest();
            words.extend([d.records, d.dropped, d.hash]);
        }
        words.iter().fold(FNV_OFFSET, |hash, word| {
            fnv1a_fold(hash, &word.to_le_bytes())
        })
    }

    /// Advances the engine by `ticks` communication steps.
    ///
    /// This is checkpoint *catch-up*, not simulation skipping: every tick
    /// draws from the rng stream and feeds detector hysteresis, so a
    /// restored engine must replay the exact per-tick computation to stay
    /// byte-identical to an uninterrupted run — which this does, in a
    /// tight loop. Combined with [`snapshot`](Self::snapshot)/
    /// [`EngineSnapshot::restore`] it gives interrupt-and-resume semantics:
    /// the resumed run's [`RunSummary`], trace digest and
    /// [`PerfCounters`] match the straight-through run byte for byte at
    /// any worker thread count.
    pub fn fast_forward(&mut self, ticks: u64) {
        for _ in 0..ticks {
            self.step();
        }
    }

    /// Advances one communication step.
    pub fn step(&mut self) {
        let now = self.world.time;
        let tick = self.steps_run;

        // Pre-phase: driving-regime retargeting (noise environment, beacon
        // cadence, phase-transition announcements).
        self.apply_regime(tick, now);

        // Phase 0: benign environment degradation (faults precede
        // adversaries, so attacks act on the already-degraded world).
        for fault in self.faults.iter_mut() {
            fault.apply(&mut self.world, now);
            Self::trace_into(
                &mut self.tracer,
                tick,
                now,
                TracePhase::Fault,
                TraceDetail::FaultApplied {
                    fault: fault.name(),
                },
            );
        }

        // Phase 1: adversary world mutation.
        for attack in self.attacks.iter_mut() {
            attack.before_comm(&mut self.world, &mut self.rng);
        }

        // Phase 2: honest transmissions. The frame buffer is reused across
        // steps (capacity survives the clear).
        let mut frames = std::mem::take(&mut self.scratch.frames);
        frames.clear();
        self.build_outgoing_frames(now, &mut frames);
        if self.regime.beacon_this_tick && self.world.vehicles[0].platooning_enabled {
            self.metrics.leader_beacons += 1;
        }
        let honest_frames = frames.len() as u64;
        for attack in self.attacks.iter_mut() {
            attack.on_air(&mut self.world, &mut self.rng, &mut frames);
        }
        if !self.attacks.is_empty() {
            Self::trace_into(
                &mut self.tracer,
                tick,
                now,
                TracePhase::Attack,
                TraceDetail::AttackFrames {
                    honest: honest_frames,
                    total: frames.len() as u64,
                },
            );
        }

        let mut receivers = std::mem::take(&mut self.scratch.receivers);
        receivers.clear();
        receivers.extend(
            self.world
                .vehicles
                .iter()
                .filter(|v| v.platooning_enabled)
                .map(|v| Receiver {
                    id: v.node,
                    position: v.position(),
                }),
        );
        receivers.extend(self.world.rsus.iter().map(|r| Receiver {
            id: r.node,
            position: r.position,
        }));
        for attack in self.attacks.iter() {
            if let Some(rx) = attack.receiver(&self.world) {
                // Deduplicate delivery targets: a duplicate id (two attacks
                // sharing an attacker node, or an eavesdropper colliding
                // with a vehicle/RSU id) would make the medium decode every
                // frame once per roster entry, double-counting the
                // eavesdropper's capture and the detector ingest.
                if receivers.iter().all(|r| r.id != rx.id) {
                    receivers.push(rx);
                }
            }
        }

        let mut deliveries = std::mem::take(&mut self.scratch.deliveries);
        let step_stats = self.world.medium.step(
            now,
            &frames,
            &receivers,
            &self.world.jammers,
            &mut self.rng,
            &mut deliveries,
        );
        self.medium_pairs += step_stats.pairs_considered as u64;
        if self.tracer.is_some() {
            // Per-tick max delivery latency: canonical NaN when nothing
            // landed (the same convention as `per_frame_ratio`).
            let tick_max_latency = deliveries
                .iter()
                .map(|d| d.latency)
                .fold(f64::NAN, f64::max);
            Self::trace_into(
                &mut self.tracer,
                tick,
                now,
                TracePhase::Medium,
                TraceDetail::MediumStep {
                    offered: step_stats.offered as u64,
                    delivered: step_stats.delivered as u64,
                    lost: step_stats.lost as u64,
                    max_latency: tick_max_latency,
                },
            );
        }

        for attack in self.attacks.iter_mut() {
            attack.observe(&mut self.world, &mut self.rng, &deliveries);
        }

        // Return the buffers (keeping their capacity) before phase 3.
        self.scratch.frames = frames;
        self.scratch.receivers = receivers;

        // Phase 3: reception and protocol processing.
        self.process_deliveries(&deliveries, now);
        deliveries.clear();
        self.scratch.deliveries = deliveries;

        // Expire pending joins (ghosts) and mirror held gaps onto vehicles.
        self.maneuvers.expire_pending(now);
        self.mirror_pending_gaps(now);

        // Phase 4: control.
        let mut commands = std::mem::take(&mut self.scratch.commands);
        self.compute_commands(now, &mut commands);
        for defense in self.defenses.iter_mut() {
            defense.adjust_commands(&self.world, &mut commands);
        }
        for (v, u) in self.world.vehicles.iter_mut().zip(commands.iter()) {
            v.vehicle.set_command(*u);
        }
        self.scratch.commands = commands;

        // Detection pass.
        for defense in self.defenses.iter_mut() {
            for det in defense.on_step(&mut self.world, &mut self.rng) {
                self.detections += 1;
                Self::trace_into(
                    &mut self.tracer,
                    tick,
                    now,
                    TracePhase::Detector,
                    TraceDetail::DetectorAlert {
                        suspect: Some(det.suspect.0),
                    },
                );
            }
        }
        self.run_detection_pipeline(now);

        // Phase 5: integrate dynamics and collect metrics.
        self.integrate_and_measure(now);

        self.world.time = now + self.scenario.comm_step;
        self.steps_run += 1;
        self.perf.ticks += 1;
    }

    /// Seals a message according to the vehicle's credential material.
    fn seal(v: &mut VehicleNode, msg: &PlatoonMessage) -> Envelope {
        if matches!(v.auth, AuthMaterial::EncryptedGroupMac(_)) {
            v.nonce += 1;
        }
        Self::seal_prepared(v, msg, v.nonce)
    }

    /// Seal with a pre-reserved nonce: the rng/counter-free half of
    /// [`Self::seal`], shardable across threads. Signatures are
    /// deterministic (RFC 6979-style), so sealing draws no randomness.
    fn seal_prepared(v: &VehicleNode, msg: &PlatoonMessage, nonce: u64) -> Envelope {
        match &v.auth {
            AuthMaterial::None => Envelope::plain(v.principal, msg),
            AuthMaterial::GroupMac(key) => Envelope::mac(v.principal, msg, key),
            AuthMaterial::EncryptedGroupMac(key) => {
                Envelope::seal_encrypted(v.principal, msg, key, nonce)
            }
            AuthMaterial::Pki {
                signer,
                certificate,
            } => Envelope::sign(v.principal, msg, signer, *certificate),
        }
    }

    /// Builds a vehicle's outgoing beacon. The claimed position comes from
    /// the GPS receiver — which is exactly why GPS spoofing (§V-G) poisons
    /// the information the platoon shares, not just local navigation. A GPS
    /// outage falls back to dead-reckoned truth (inertial backup).
    fn beacon_for(v: &mut VehicleNode, now: f64, rng: &mut StdRng) -> Beacon {
        v.seq += 1;
        let lie = v.beacon_lie.unwrap_or_default();
        let gps_position = v
            .sensors
            .gps
            .measure(v.vehicle.state.position, v.vehicle.state.speed, now, rng)
            .map(|(p, _)| p)
            .unwrap_or(v.vehicle.state.position);
        Beacon {
            sender: v.principal,
            platoon: v.platoon,
            role: v.role,
            seq: v.seq,
            timestamp: now,
            position: gps_position + lie.position_offset,
            speed: (v.vehicle.state.speed + lie.speed_offset).max(0.0),
            accel: v.vehicle.state.accel + lie.accel_offset,
            length: v.vehicle.params.length,
        }
    }

    /// Fills `frames` with this step's honest transmissions. Each sealed
    /// envelope is encoded exactly once; the hybrid-channel copy and any
    /// VLC relay share the encoded bytes ([`Payload`] is `Arc`-backed, so
    /// a clone is a refcount bump, not a byte copy).
    fn build_outgoing_frames(&mut self, now: f64, frames: &mut Vec<Frame>) {
        let comms = self.scenario.comms;
        let power = self.world.medium.dsrc.default_tx_power_dbm;
        let hybrid_channel = match comms {
            CommsMode::DsrcOnly => None,
            CommsMode::HybridVlc => Some(ChannelKind::Vlc),
            CommsMode::HybridCv2x => Some(ChannelKind::CV2x),
        };

        // Beacons from every operational vehicle. A regime phase with a
        // beacon cadence divisor (congestion-control backoff) silences
        // whole ticks; manoeuvre traffic in the outbox below still goes out.
        if self.regime.beacon_this_tick {
            // The rng-consuming half (GPS measurement, seq/nonce counters)
            // runs sequentially in vehicle order; the pure seal + encode
            // work (MACs, encryption, deterministic signatures) is sharded
            // across the engine threads, and frames are pushed in vehicle
            // order.
            let mut jobs = std::mem::take(&mut self.scratch.seal_jobs);
            jobs.clear();
            for (idx, v) in self.world.vehicles.iter_mut().enumerate() {
                if !v.platooning_enabled {
                    continue;
                }
                let beacon = Self::beacon_for(v, now, &mut self.rng);
                if matches!(v.auth, AuthMaterial::EncryptedGroupMac(_)) {
                    v.nonce += 1;
                }
                jobs.push((idx, PlatoonMessage::Beacon(beacon), v.nonce));
            }
            let vehicles = &self.world.vehicles;
            let payloads: Vec<Payload> =
                par::map_indexed(&jobs, self.threads, |_, (idx, msg, nonce)| {
                    Self::seal_prepared(&vehicles[*idx], msg, *nonce)
                        .encode()
                        .into()
                });
            for ((idx, _, _), payload) in jobs.iter().zip(payloads) {
                let v = &self.world.vehicles[*idx];
                Self::push_sealed(&mut self.perf, frames, v, power, hybrid_channel, payload);
            }
            self.scratch.seal_jobs = jobs;
        }

        // SP-VLC hop-by-hop relaying: each member forwards the freshest
        // leader beacon it holds down the optical chain, so leader data
        // survives RF jamming one hop at a time (Ucar et al. [2]). The
        // relayed frame shares the stored wire image.
        if self.regime.beacon_this_tick && comms == CommsMode::HybridVlc {
            let mut relays = std::mem::take(&mut self.scratch.relays);
            relays.clear();
            relays.extend(
                self.world
                    .vehicles
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| v.platooning_enabled)
                    .filter_map(|(i, v)| {
                        let heard = v.comm.leader.as_ref()?;
                        if now - heard.heard_at > 0.3 {
                            return None;
                        }
                        Some((i, v.comm.leader_envelope.clone()?))
                    }),
            );
            for (idx, payload) in relays.drain(..) {
                let v = &self.world.vehicles[idx];
                self.perf.frames_built += 1;
                self.perf.frame_bytes += payload.len() as u64;
                self.perf.payload_clones_avoided += 1;
                frames.push(Frame {
                    sender: v.node,
                    origin: v.position(),
                    power_dbm: power,
                    channel: ChannelKind::Vlc,
                    payload,
                });
            }
            self.scratch.relays = relays;
        }

        // Queued manoeuvre responses / commands.
        let outbox = std::mem::take(&mut self.outbox);
        for (idx, msg) in outbox {
            if idx >= self.world.vehicles.len() {
                continue;
            }
            if !self.world.vehicles[idx].platooning_enabled {
                continue;
            }
            let payload = Self::seal(&mut self.world.vehicles[idx], &msg)
                .encode()
                .into();
            let v = &self.world.vehicles[idx];
            Self::push_sealed(&mut self.perf, frames, v, power, hybrid_channel, payload);
        }
    }

    /// Pushes one freshly encoded envelope from `v`: the DSRC frame, then
    /// the hybrid channel's copy sharing the same bytes, and counts both.
    fn push_sealed(
        perf: &mut PerfCounters,
        frames: &mut Vec<Frame>,
        v: &VehicleNode,
        power_dbm: f64,
        hybrid_channel: Option<ChannelKind>,
        payload: Payload,
    ) {
        perf.bytes_encoded += payload.len() as u64;
        perf.frames_built += 1;
        perf.frame_bytes += payload.len() as u64;
        frames.push(Frame {
            sender: v.node,
            origin: v.position(),
            power_dbm,
            channel: ChannelKind::Dsrc,
            payload: payload.clone(),
        });
        if let Some(channel) = hybrid_channel {
            perf.frames_built += 1;
            perf.frame_bytes += payload.len() as u64;
            perf.payload_clones_avoided += 1;
            frames.push(Frame {
                sender: v.node,
                origin: v.position(),
                power_dbm,
                channel,
                payload,
            });
        }
    }

    /// The message inside `env` as the deployed key scheme reads it:
    /// decrypted under `EncryptedGroupMac`, decoded as sent otherwise.
    /// `None` when it does not decode. It does not depend on the receiver,
    /// so the delivery round opens it once per frame; the authenticator is
    /// checked per delivery ([`Self::authenticate`]).
    fn open_body(&self, env: &Envelope) -> Option<PlatoonMessage> {
        match self.scenario.auth {
            AuthMode::EncryptedGroupMac => env.open_encrypted_unverified(&self.group_key).ok(),
            AuthMode::None | AuthMode::GroupMac | AuthMode::Pki => env.open_unverified().ok(),
        }
    }

    /// Engine-level authentication per the deployed key scheme: checks the
    /// authenticator only. The message is opened once per frame
    /// ([`Self::open_body`]). Under PKI every delivery runs, in order:
    /// revocation, the certificate's issuer and validity window, its CA
    /// signature (once per certificate per run, through `verified_certs`),
    /// the subject match and the message's own signature.
    fn authenticate(&mut self, env: &Envelope, now: f64) -> Result<(), RejectReason> {
        match self.scenario.auth {
            AuthMode::None => Ok(()),
            AuthMode::GroupMac => env
                .check_mac(&self.group_key)
                .map_err(|_| RejectReason::AuthFailed),
            AuthMode::EncryptedGroupMac => env
                .check_encrypted(&self.group_key)
                .map_err(|_| RejectReason::AuthFailed),
            AuthMode::Pki => {
                if let platoon_proto::envelope::AuthScheme::Signed { certificate, .. } = &env.auth {
                    if self.ca.revokes(certificate) {
                        return Err(RejectReason::Distrusted);
                    }
                }
                let (key, id) = (self.ca.public(), self.ca.id());
                env.check_signed(&key, id, now, Some(&mut self.verified_certs))
                    .map_err(|_| RejectReason::AuthFailed)
            }
        }
    }

    /// Engine-level authentication, then the frame's opened `body` (a body
    /// that did not open fails authentication), then every defense's
    /// `filter_rx` on that body. The first refusal rejects the delivery: it
    /// is counted in `rejected_messages` and traced as a defense verdict,
    /// and `None` comes back; an accepted delivery gets its body back.
    fn screen<'m>(
        &mut self,
        rx_idx: usize,
        delivery: &Delivery,
        env: &Envelope,
        body: Option<&'m PlatoonMessage>,
        now: f64,
    ) -> Option<&'m PlatoonMessage> {
        let verdict = self.authenticate(env, now).and_then(|()| {
            let msg = body.ok_or(RejectReason::AuthFailed)?;
            for defense in self.defenses.iter_mut() {
                defense.filter_rx(rx_idx, &self.world, delivery, env.sender, msg, now)?;
            }
            Ok(msg)
        });
        let reason = match verdict {
            Ok(msg) => return Some(msg),
            Err(reason) => reason,
        };
        self.rejected_messages += 1;
        if self.tracer.is_some() {
            Self::trace_into(
                &mut self.tracer,
                self.steps_run,
                now,
                TracePhase::Defense,
                TraceDetail::DefenseVerdict {
                    receiver: rx_idx as u64,
                    sender: env.sender.0,
                    reason: format!("{reason:?}"),
                },
            );
        }
        None
    }

    /// Phase 3, one frame at a time. A frame's deliveries are adjacent (see
    /// [`Delivery::frame`]), so its envelope and message body are decoded
    /// once, its bytes looked up for dedup once, and a beacon's claimed
    /// position recorded once, at its first accepted delivery. That decode
    /// is the only one on the receive path: every delivery is still
    /// screened on its own (its authenticator checked, every `filter_rx`
    /// run), then deduplicated, observed and applied, in delivery order,
    /// and each of those steps borrows the one opened body.
    fn process_deliveries(&mut self, deliveries: &[Delivery], now: f64) {
        self.perf.deliveries += deliveries.len() as u64;
        // Protocol dedup: in hybrid modes the same payload arrives on two
        // channels; apply it once per receiver per step so counters (e.g.
        // join-request statistics) are not inflated. Defenses still see
        // every copy via filter_rx (the hybrid cross-validator needs both).
        let mut dedup = std::mem::take(&mut self.scratch.dedup);
        // Accepted message observations accumulate here in arrival order
        // and are handed to the detection pipeline in one batched ingest
        // after the loop. The constructed observations depend only on
        // state `apply_message` does not touch (true kinematics, rosters
        // of principals, the radio config), so batching preserves the
        // exact per-delivery stream the detectors saw before.
        let mut observations = std::mem::take(&mut self.scratch.observations);
        observations.clear();
        // Co-location context for the detector observations: with a finite
        // radio horizon the all-vehicle scan per observation becomes a grid
        // query. Positions are frozen for the whole delivery loop (kinematics
        // only change in the integration phase), so one grid serves all
        // deliveries this step.
        let wants_observations = self.pipeline.is_some() || self.obs_sink.is_some();
        let coloc: Option<(SpatialGrid, f64)> =
            if wants_observations && self.world.medium.radio_horizon_m.is_finite() {
                let positions: Vec<Position> = self
                    .world
                    .vehicles
                    .iter()
                    .map(|v| (v.vehicle.state.position, 0.0))
                    .collect();
                let radius = self
                    .world
                    .vehicles
                    .iter()
                    .map(|v| v.vehicle.params.length * 0.5)
                    .fold(0.0, f64::max);
                Some((SpatialGrid::build(radius.max(1.0), &positions), radius))
            } else {
                None
            };
        // Platoon layout cache for `apply_message`, invalidated whenever a
        // manoeuvre rewrites platoon membership mid-loop.
        let mut layout_cache: Option<PlatoonLayout> = None;
        // PDR accounting: the tail hearing the leader at least once this
        // step, so hybrid duplicates do not inflate the ratio.
        let (leader, tail) = self.leader_tail;
        let mut tail_heard_leader = false;
        for frame in deliveries.chunk_by(|a, b| a.frame == b.frame) {
            let head = &frame[0];
            if head.sender == leader && !tail_heard_leader {
                tail_heard_leader = frame.iter().any(|d| d.receiver == tail);
            }
            let Ok(env) = Envelope::decode(&head.payload) else {
                continue;
            };
            let body = self.open_body(&env);
            // Every delivery of a frame claims the same position for its
            // sender, which only `try_complete_joins` reads.
            let mut claim = match &body {
                Some(PlatoonMessage::Beacon(b)) => Some(b.position),
                _ => None,
            };
            dedup.next_frame();
            for delivery in frame {
                let Some(rx_idx) = self.world.index_of_node(delivery.receiver) else {
                    continue; // RSU or attacker receiver; vehicles only here.
                };
                let Some(msg) = self.screen(rx_idx, delivery, &env, body.as_ref(), now) else {
                    continue;
                };
                if !dedup.admit(rx_idx, &delivery.payload) {
                    continue; // duplicate channel copy already applied
                }
                if let Some(position) = claim.take() {
                    self.claimed_positions.insert(env.sender, (position, now));
                }
                if wants_observations {
                    observations.push(Self::build_observation(
                        &self.world,
                        rx_idx,
                        delivery,
                        &env,
                        msg,
                        now,
                        coloc.as_ref(),
                    ));
                }
                self.apply_message(
                    rx_idx,
                    env.sender,
                    msg,
                    &delivery.payload,
                    now,
                    &mut layout_cache,
                );
            }
        }
        if tail_heard_leader {
            self.metrics.leader_tail_deliveries += 1;
        }
        if let Some(pipeline) = self.pipeline.as_mut() {
            self.perf.detector_observations += observations.len() as u64;
            pipeline.ingest_messages(&observations);
        }
        if let Some(sink) = self.obs_sink.as_mut() {
            sink.on_messages(&observations);
        }
        dedup.clear();
        self.scratch.dedup = dedup;
        self.scratch.observations = observations;
    }

    /// Translates one accepted delivery into the observation the receiver's
    /// on-board IDS would see. `coloc` is an optional pre-built grid over
    /// vehicle road positions (paired with the fleet's maximum half-length)
    /// that turns the co-location scan into a range query.
    fn build_observation(
        world: &World,
        rx_idx: usize,
        delivery: &Delivery,
        env: &Envelope,
        msg: &PlatoonMessage,
        now: f64,
        coloc: Option<&(SpatialGrid, f64)>,
    ) -> MessageObservation {
        use platoon_proto::envelope::AuthScheme;
        let auth = match &env.auth {
            AuthScheme::Plain => AuthMeta::Plain,
            AuthScheme::GroupMac { .. } => AuthMeta::GroupMac,
            AuthScheme::EncryptedGroupMac { .. } => AuthMeta::Encrypted,
            AuthScheme::Signed { certificate, .. } => AuthMeta::Signed {
                subject: certificate.subject,
            },
        };
        let rx = &world.vehicles[rx_idx];
        // The position the message claims its sender occupies (for RSSI and
        // co-location context).
        let claimed_position = msg.claimed_position();
        // RSSI the claimed position would predict (RF channels only; VLC
        // has no meaningful received-power model).
        let expected_rssi_dbm = match (claimed_position, delivery.channel) {
            (Some(claimed), ChannelKind::Dsrc | ChannelKind::CV2x) => {
                Some(world.expected_rssi_dbm(rx_idx, claimed))
            }
            _ => None,
        };
        let colocation_conflict = claimed_position.is_some_and(|claimed| {
            match coloc {
                // Grid path: every vehicle matching the per-vehicle predicate
                // lies within the fleet's max half-length of the claim, so
                // querying at that radius and re-applying the exact predicate
                // reproduces the scan's answer.
                Some((grid, radius)) if claimed.is_finite() => {
                    grid.any_within((claimed, 0.0), *radius, |i| {
                        world.occupies(i, env.sender, claimed)
                    })
                }
                _ => world.colocation_conflict(env.sender, claimed),
            }
        });
        let ctx = ObserverContext {
            observer: rx_idx,
            observer_principal: rx.principal,
            observer_position: rx.vehicle.state.position,
            observer_speed: rx.vehicle.state.speed,
            sender_is_predecessor: rx_idx > 0 && world.vehicles[rx_idx - 1].principal == env.sender,
            // The observer's own ranging to its predecessor: the control
            // loop's radar path (ground truth here; sensor noise rides on
            // the control reading, not the IDS cross-check — the same
            // convention VPD-ADA uses).
            ranged_gap: if rx_idx > 0 {
                world.true_gap(rx_idx).zip(world.true_range_rate(rx_idx))
            } else {
                None
            },
            expected_rssi_dbm,
            colocation_conflict,
        };
        match msg {
            PlatoonMessage::Beacon(b) => MessageObservation::Beacon(BeaconObservation {
                time: now,
                sender: env.sender,
                claim: BeaconClaim {
                    position: b.position,
                    speed: b.speed,
                    accel: b.accel,
                    length: b.length,
                    seq: b.seq,
                    timestamp: b.timestamp,
                },
                rssi_dbm: delivery.rssi_dbm,
                channel: delivery.channel,
                auth,
                ctx,
            }),
            other => {
                let kind = match other {
                    PlatoonMessage::JoinRequest { position, .. } => ControlKind::JoinRequest {
                        claimed_position: *position,
                    },
                    PlatoonMessage::LeaveRequest { .. } => ControlKind::LeaveRequest,
                    PlatoonMessage::SplitCommand { .. } => ControlKind::SplitCommand,
                    PlatoonMessage::GapOpen { .. } => ControlKind::GapOpen,
                    _ => ControlKind::Other,
                };
                MessageObservation::Control(ControlObservation {
                    time: now,
                    sender: env.sender,
                    kind,
                    timestamp: other.timestamp(),
                    rssi_dbm: delivery.rssi_dbm,
                    channel: delivery.channel,
                    auth,
                    ctx,
                })
            }
        }
    }

    /// Per-step detection-pipeline work: on-board sensor cross-checks,
    /// silence monitoring, and draining freshly raised alerts into the
    /// `detections` count and the trace.
    fn run_detection_pipeline(&mut self, now: f64) {
        let Some(pipeline) = self.pipeline.as_mut() else {
            return;
        };
        // Radar-vs-LiDAR cross-check samples for every operational follower
        // (independent ranging paths over the same true gap).
        for idx in 1..self.world.vehicles.len() {
            let v = &self.world.vehicles[idx];
            if !v.platooning_enabled {
                continue;
            }
            let Some(true_gap) = self.world.true_gap(idx) else {
                continue;
            };
            let true_rate = self.world.true_range_rate(idx).unwrap_or(0.0);
            let radar = v
                .sensors
                .radar
                .measure(true_gap, true_rate, now, &mut self.rng);
            let lidar = v.sensors.lidar.measure(true_gap, now, &mut self.rng);
            if let (Some((radar_range, _)), Some(lidar_range)) = (radar, lidar) {
                self.perf.detector_observations += 1;
                pipeline.observe_sensors(&SensorObservation {
                    time: now,
                    observer: idx,
                    observer_principal: v.principal,
                    radar_range,
                    lidar_range,
                });
            }
        }
        // Silence monitoring: every vehicle is *expected* to beacon; only
        // operational vehicles observe.
        let mut members = std::mem::take(&mut self.scratch.members);
        members.clear();
        members.extend(self.world.vehicles.iter().map(|v| v.principal));
        let mut observers = std::mem::take(&mut self.scratch.observers);
        observers.clear();
        observers.extend(
            self.world
                .vehicles
                .iter()
                .enumerate()
                .filter(|(_, v)| v.platooning_enabled)
                .map(|(i, _)| i),
        );
        self.perf.detector_observations += 1; // the per-step silence tick
        pipeline.tick(&TickContext {
            now,
            comm_step: self.scenario.comm_step,
            members: &members,
            observers: &observers,
        });
        self.scratch.members = members;
        self.scratch.observers = observers;
        for alert in pipeline.take_alerts() {
            self.detections += 1;
            let suspect = match alert.target {
                AlertTarget::Sender(suspect) => Some(suspect.0),
                AlertTarget::Channel => None,
            };
            Self::trace_into(
                &mut self.tracer,
                self.steps_run,
                now,
                TracePhase::Detector,
                TraceDetail::DetectorAlert { suspect },
            );
        }
    }

    /// Looks up (or lazily computes) the delivery loop's platoon layout.
    /// Callers must clear the cache after any platoon-membership mutation.
    fn layout_of<'a>(world: &World, cache: &'a mut Option<PlatoonLayout>) -> &'a PlatoonLayout {
        cache.get_or_insert_with(|| world.platoon_layout())
    }

    /// Applies one accepted delivery of `msg`, claimed by `claimed_sender`
    /// and received as `payload`, at vehicle `rx_idx`.
    fn apply_message(
        &mut self,
        rx_idx: usize,
        claimed_sender: PrincipalId,
        msg: &PlatoonMessage,
        payload: &Payload,
        now: f64,
        layout: &mut Option<PlatoonLayout>,
    ) {
        match *msg {
            PlatoonMessage::Beacon(b) => {
                let cached = Self::layout_of(&self.world, layout);
                let local_idx = cached.local_index[rx_idx];
                let leader_idx = cached.leader_index[rx_idx];
                let peer = CommPeer {
                    position: b.position,
                    speed: b.speed,
                    accel: b.accel,
                    length: b.length,
                    age: 0.0,
                };
                let heard = HeardPeer {
                    principal: claimed_sender,
                    peer,
                    heard_at: now,
                };
                if local_idx > 0 {
                    let pred_principal = self.world.vehicles[rx_idx - 1].principal;
                    if claimed_sender == pred_principal {
                        self.world.vehicles[rx_idx].comm.predecessor = Some(heard);
                    }
                    let leader_principal = self.world.vehicles[leader_idx].principal;
                    if claimed_sender == leader_principal {
                        self.world.vehicles[rx_idx].comm.leader = Some(heard);
                        // The received bytes only feed VLC relaying. They
                        // equal the envelope's re-encoding: the wire format
                        // is canonical.
                        if self.scenario.comms == CommsMode::HybridVlc {
                            self.world.vehicles[rx_idx].comm.leader_envelope =
                                Some(payload.clone());
                        }
                    }
                }
                // Leader: a beacon from a pending joiner claiming to be at
                // its reserved slot completes the join.
                if rx_idx == 0 {
                    self.try_complete_joins(now);
                }
            }
            PlatoonMessage::JoinRequest {
                requester,
                platoon,
                position,
                ..
            } => {
                // Only the lead platoon's leader owns the manoeuvre engine;
                // a split-off leader (also Role::Leader) must not admit
                // vehicles into a roster it does not hold.
                if rx_idx != 0 || self.world.vehicles[rx_idx].platoon != platoon {
                    return;
                }
                let credentials_ok = self
                    .defenses
                    .iter_mut()
                    .all(|defense| defense.authorize_join(requester));
                let slot_hint = self.slot_for_position(position);
                let outcome = self.maneuvers.handle_join_request_with_slot(
                    requester,
                    now,
                    credentials_ok,
                    slot_hint,
                );
                match outcome {
                    JoinOutcome::Accept { slot } => {
                        self.outbox.push((
                            rx_idx,
                            PlatoonMessage::JoinAccept {
                                requester,
                                platoon: self.world.vehicles[rx_idx].platoon,
                                slot: slot as u32,
                                timestamp: now,
                            },
                        ));
                        self.outbox.push((
                            rx_idx,
                            PlatoonMessage::GapOpen {
                                platoon: self.world.vehicles[rx_idx].platoon,
                                slot: slot as u32,
                                extra_gap: self.scenario.maneuvers.join_gap_extra,
                                timestamp: now,
                            },
                        ));
                    }
                    JoinOutcome::Deny(reason) => {
                        self.outbox.push((
                            rx_idx,
                            PlatoonMessage::JoinDeny {
                                requester,
                                platoon: self.world.vehicles[rx_idx].platoon,
                                reason,
                                timestamp: now,
                            },
                        ));
                    }
                    JoinOutcome::Dropped => {}
                }
            }
            PlatoonMessage::LeaveRequest {
                member, platoon, ..
            } => {
                if rx_idx != 0 || self.world.vehicles[rx_idx].platoon != platoon {
                    return;
                }
                if self.maneuvers.handle_leave(member).is_ok() {
                    self.outbox.push((
                        rx_idx,
                        PlatoonMessage::LeaveAck {
                            member,
                            platoon: self.world.vehicles[rx_idx].platoon,
                            timestamp: now,
                        },
                    ));
                }
            }
            PlatoonMessage::SplitCommand {
                platoon,
                at_index,
                new_platoon,
                ..
            } => {
                // Members obey a split claimed to come from their platoon
                // leader. (Authentication — or its absence — already
                // happened; this check is the protocol-level authorisation.)
                let cached = Self::layout_of(&self.world, layout);
                let leader_idx = cached.leader_index[rx_idx];
                let local_idx = cached.local_index[rx_idx];
                let leader_principal = self.world.vehicles[leader_idx].principal;
                if claimed_sender != leader_principal
                    || self.world.vehicles[rx_idx].platoon != platoon
                {
                    return;
                }
                if local_idx >= at_index as usize && local_idx > 0 {
                    self.execute_split_membership(rx_idx, new_platoon);
                    // Membership changed: later deliveries this step must
                    // recompute the layout.
                    *layout = None;
                }
            }
            PlatoonMessage::GapOpen {
                platoon,
                slot,
                extra_gap,
                ..
            } => {
                let cached = Self::layout_of(&self.world, layout);
                let leader_idx = cached.leader_index[rx_idx];
                let local_idx = cached.local_index[rx_idx];
                let leader_principal = self.world.vehicles[leader_idx].principal;
                if claimed_sender != leader_principal
                    || self.world.vehicles[rx_idx].platoon != platoon
                {
                    return;
                }
                if local_idx == slot as usize {
                    let v = &mut self.world.vehicles[rx_idx];
                    v.extra_front_gap = extra_gap;
                    v.extra_gap_until = now + self.scenario.maneuvers.join_timeout;
                }
            }
            PlatoonMessage::JoinAccept { .. }
            | PlatoonMessage::JoinDeny { .. }
            | PlatoonMessage::LeaveAck { .. } => {
                // Consumed by joiner agents (observers), not platoon members.
            }
        }
    }

    /// Converts a claimed road position into a roster slot hint.
    fn slot_for_position(&self, position: f64) -> Option<usize> {
        let n = self.world.vehicles.len();
        for idx in 0..n {
            if self.world.vehicles[idx].vehicle.state.position < position {
                return Some(idx.max(1));
            }
        }
        None // behind everyone: tail join
    }

    /// Completes pending joins whose principals have beaconed an arrival
    /// position near their reserved slot.
    fn try_complete_joins(&mut self, now: f64) {
        let pending: Vec<(PrincipalId, usize)> = self
            .maneuvers
            .pending()
            .map(|p| (p.requester, p.slot))
            .collect();
        for (requester, slot) in pending {
            let Some(&(claimed_pos, heard_at)) = self.claimed_positions.get(&requester) else {
                continue;
            };
            if now - heard_at > 1.0 {
                continue;
            }
            let slot_pos = self.expected_slot_position(slot);
            if (claimed_pos - slot_pos).abs() <= JOIN_ARRIVAL_TOLERANCE {
                // A refused completion (the roster filled up meanwhile)
                // leaves the join pending: it retries on the next arrival
                // beacon or expires.
                let _ = self.maneuvers.complete_join(requester);
            }
        }
    }

    /// Road position a vehicle occupying `slot` would have.
    fn expected_slot_position(&self, slot: usize) -> f64 {
        let spacing = self.scenario.params.length + self.scenario.desired_gap;
        let leader_pos = self.world.vehicles[0].vehicle.state.position;
        leader_pos - slot as f64 * spacing
    }

    /// Marks `rx_idx` and all same-platoon vehicles behind it as members of
    /// `new_platoon`, promoting the frontmost to leader of the new platoon.
    fn execute_split_membership(&mut self, rx_idx: usize, new_platoon: PlatoonId) {
        let old = self.world.vehicles[rx_idx].platoon;
        let mut first_new: Option<usize> = None;
        for idx in rx_idx..self.world.vehicles.len() {
            if self.world.vehicles[idx].platoon == old {
                self.world.vehicles[idx].platoon = new_platoon;
                if first_new.is_none() {
                    first_new = Some(idx);
                }
            }
        }
        if let Some(front) = first_new {
            // The new platoon's front vehicle leads with radar-based ACC so
            // it keeps a safe distance from the platoon ahead (a split-off
            // leader must not blindly cruise into the front platoon's tail).
            self.world.vehicles[front].role = Role::Leader;
            self.world.vehicles[front].controller = Box::new(AccController::default());
            self.world.vehicles[front].comm = CommState::default();
        }
        self.next_platoon_id = self.next_platoon_id.max(new_platoon.0 + 1);
    }

    /// Fills `commands` (cleared first) with one command per vehicle.
    fn compute_commands(&mut self, now: f64, commands: &mut Vec<f64>) {
        let dt = self.scenario.comm_step;
        // The active regime phase may retarget the leader profile (at
        // phase-local time, so each phase's profile starts from its own
        // t=0) and the commanded gap. Control follows the phase; spacing
        // metrics stay relative to the scenario's nominal gap.
        let mut profile = self.scenario.profile;
        let mut desired_gap = self.scenario.desired_gap;
        let mut profile_now = now;
        if let (Some(plan), Some(idx)) = (&self.scenario.regimes, self.regime.phase) {
            let phase = &plan.phases[idx];
            if let Some(p) = phase.profile {
                profile = p;
                profile_now = now - self.regime.phase_start_tick as f64 * self.scenario.comm_step;
            }
            if let Some(gap) = phase.desired_gap {
                desired_gap = gap;
            }
        }
        let n = self.world.vehicles.len();
        commands.clear();
        commands.resize(n, 0.0);
        self.perf.commands_computed += n as u64;

        // One O(n) layout pass replaces the per-vehicle O(n) local-index
        // scans (membership cannot change while commands are computed).
        let layout = self.world.platoon_layout();
        // Indexed loop on purpose: the body needs simultaneous &mut access
        // to `commands[idx]` and `self` (for contexts and controllers).
        #[allow(clippy::needless_range_loop)]
        for idx in 0..n {
            let local_idx = layout.local_index[idx];
            if !self.world.vehicles[idx].platooning_enabled && local_idx > 0 {
                // Platooning service down: fall back to radar-only ACC-like
                // behaviour to avoid modelling a driverless brick.
                let ctx = self.control_context(idx, local_idx, desired_gap, dt, now);
                let mut fallback = AccController::default();
                commands[idx] = fallback.command(&ctx);
                continue;
            }
            if local_idx == 0 {
                // Leads its platoon: the original leader tracks the speed
                // profile directly; split-off leaders run the cruise
                // controller frozen at their split-time speed.
                if idx == 0 {
                    let target = profile.target_speed(profile_now);
                    let speed = self.world.vehicles[idx].vehicle.state.speed;
                    commands[idx] = 0.8 * (target - speed);
                } else {
                    let ctx = self.control_context(idx, local_idx, desired_gap, dt, now);
                    commands[idx] = self.world.vehicles[idx].controller.command(&ctx);
                }
            } else {
                let ctx = self.control_context(idx, local_idx, desired_gap, dt, now);
                commands[idx] = self.world.vehicles[idx].controller.command(&ctx);
            }
        }
    }

    fn control_context(
        &mut self,
        idx: usize,
        local_idx: usize,
        desired_gap: f64,
        dt: f64,
        now: f64,
    ) -> ControlContext {
        let extra = if now < self.world.vehicles[idx].extra_gap_until {
            self.world.vehicles[idx].extra_front_gap
        } else {
            0.0
        };
        let radar = if idx > 0 {
            let true_gap = self.world.true_gap(idx).expect("idx > 0");
            let true_rate = self.world.true_range_rate(idx).expect("idx > 0");
            let primary = self.world.vehicles[idx]
                .sensors
                .radar
                .measure(true_gap, true_rate, now, &mut self.rng)
                .map(|(range, range_rate)| RadarReading { range, range_rate });
            // LiDAR failover: if the radar is blind (jammed or disabled by a
            // sensor guard), range on the LiDAR with the true closing rate.
            primary.or_else(|| {
                self.world.vehicles[idx]
                    .sensors
                    .lidar
                    .measure(true_gap, now, &mut self.rng)
                    .map(|range| RadarReading {
                        range,
                        range_rate: true_rate,
                    })
            })
        } else {
            None
        };
        let v = &self.world.vehicles[idx];
        ControlContext {
            dt,
            ego: v.vehicle.state,
            index: local_idx,
            radar,
            predecessor: v.comm.comm_peer_predecessor(now),
            leader: v.comm.comm_peer_leader(now),
            desired_gap: desired_gap + extra,
            desired_offset_from_leader: local_idx as f64
                * (self.scenario.params.length + desired_gap),
        }
    }

    fn mirror_pending_gaps(&mut self, now: f64) {
        // Clear expired extra gaps.
        for v in self.world.vehicles.iter_mut() {
            if now >= v.extra_gap_until {
                v.extra_front_gap = 0.0;
            }
        }
    }

    fn integrate_and_measure(&mut self, now: f64) {
        let substeps = (self.scenario.comm_step / self.scenario.dyn_step).round() as usize;
        let dt = self.scenario.dyn_step;
        let n = self.world.vehicles.len();
        // Membership is stable during integration: one layout serves every
        // substep's fuel accounting.
        let layout = self.world.platoon_layout();

        for _ in 0..substeps.max(1) {
            for v in self.world.vehicles.iter_mut() {
                v.vehicle.step(dt);
            }
            // Safety observation per substep (collisions are fast).
            for idx in 1..n {
                let gap = self.world.true_gap(idx).expect("idx > 0");
                let rate = self.world.true_range_rate(idx).expect("idx > 0");
                let before = self.metrics.safety.collision_count();
                self.metrics
                    .safety
                    .observe(self.world.time, idx - 1, gap, rate);
                if self.metrics.safety.collision_count() > before {
                    Self::trace_into(
                        &mut self.tracer,
                        self.steps_run,
                        now,
                        TracePhase::Dynamics,
                        TraceDetail::SafetyEvent {
                            kind: "collision",
                            vehicle: idx as u64,
                        },
                    );
                }
            }
            // Fuel per substep.
            for idx in 0..n {
                let local_idx = layout.local_index[idx];
                let gap = if idx > 0 {
                    self.world.true_gap(idx).expect("idx > 0").max(0.0)
                } else {
                    f64::INFINITY
                };
                let position = if local_idx == 0 {
                    if n > 1 && idx == 0 {
                        PlatoonPosition::Leader
                    } else {
                        PlatoonPosition::Solo
                    }
                } else {
                    PlatoonPosition::Follower
                };
                let v = &mut self.world.vehicles[idx];
                let (speed, accel) = (v.vehicle.state.speed, v.vehicle.state.accel);
                v.fuel
                    .record(&v.vehicle.params, speed, accel, position, gap.min(1e6), dt);
            }
        }

        // Per-comm-step series.
        #[allow(clippy::needless_range_loop)]
        for idx in 1..n {
            let gap = self.world.true_gap(idx).expect("idx > 0");
            self.metrics.spacing_errors[idx - 1].push(gap - self.scenario.desired_gap);
        }
        for (idx, v) in self.world.vehicles.iter().enumerate() {
            self.metrics.speeds[idx].push(v.vehicle.state.speed);
        }
        let tail = self.world.vehicles.last().expect("platoon non-empty");
        let age = tail
            .comm
            .leader
            .map(|h| (self.world.time - h.heard_at).clamp(0.0, 10.0))
            .unwrap_or(10.0);
        self.metrics.tail_leader_age.push(age);
        let fragmented = self.world.platoon_count() > 1;
        let any_down = self.world.vehicles.iter().any(|v| !v.platooning_enabled);
        // Log service transitions (once per outage).
        for idx in 0..n {
            let down = !self.world.vehicles[idx].platooning_enabled;
            if down && !self.service_was_down[idx] {
                Self::trace_into(
                    &mut self.tracer,
                    self.steps_run,
                    now,
                    TracePhase::Dynamics,
                    TraceDetail::SafetyEvent {
                        kind: "service-down",
                        vehicle: idx as u64,
                    },
                );
            }
            self.service_was_down[idx] = down;
        }
        self.metrics
            .record_step_state(self.scenario.comm_step, fragmented, any_down);
    }

    /// Builds the run summary from the collected metrics.
    pub fn summary(&self) -> RunSummary {
        let stability = self.metrics.stability();
        let n = self.world.vehicles.len();
        let fuel: f64 = self
            .world
            .vehicles
            .iter()
            .map(|v| v.fuel.litres_per_100km())
            .filter(|f| f.is_finite())
            .sum::<f64>()
            / n as f64;
        assert_eq!(
            (self.world.vehicles[0].node, self.world.vehicles[n - 1].node),
            self.leader_tail,
            "the leader-tail link is fixed when the engine is built"
        );
        let mean_abs: f64 = if self.metrics.spacing_errors.is_empty() {
            0.0
        } else {
            let (sum, count) = self
                .metrics
                .spacing_errors
                .iter()
                .flat_map(|s| s.values.iter())
                .fold((0.0, 0usize), |(s, c), v| (s + v.abs(), c + 1));
            if count == 0 {
                0.0
            } else {
                sum / count as f64
            }
        };

        RunSummary {
            label: self.scenario.label.clone(),
            duration: self.world.time,
            vehicles: n,
            max_spacing_error: stability
                .linf_errors
                .iter()
                .copied()
                .fold(0.0_f64, f64::max),
            oscillation_energy: stability.total_energy,
            worst_amplification: stability.worst_amplification(),
            string_stable: stability.is_string_stable(0.05),
            collisions: self.metrics.safety.collision_count(),
            min_gap: self.metrics.safety.global_min_gap(),
            min_ttc: self.metrics.safety.min_ttc,
            fuel_l_per_100km: fuel,
            leader_tail_pdr: self.metrics.leader_tail_pdr(),
            tail_leader_age_mean: self.metrics.tail_leader_age.mean(),
            fragmented_fraction: self.metrics.fragmented_fraction(),
            service_down_fraction: self.metrics.service_down_fraction(),
            maneuvers: self.maneuvers.stats(),
            rejected_messages: self.rejected_messages,
            detections: self.detections,
            mean_abs_spacing_error: mean_abs,
            perf: self.perf,
            trace: self.tracer.as_ref().map(TraceRecorder::digest),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platoon_crypto::cert::Certificate;
    use platoon_crypto::hmac::hmac_sha256;
    use platoon_crypto::signature::Signature;
    use platoon_proto::envelope::AuthScheme;

    /// `Engine::authenticate` as it was while every delivery decoded its
    /// own message: the authenticator check and the decode in one call.
    fn authenticate_in_one(
        engine: &Engine,
        env: &Envelope,
        now: f64,
    ) -> Result<PlatoonMessage, RejectReason> {
        match engine.scenario.auth {
            AuthMode::None => env.open_unverified().map_err(|_| RejectReason::AuthFailed),
            AuthMode::GroupMac => env
                .verify_mac(&engine.group_key)
                .map_err(|_| RejectReason::AuthFailed),
            AuthMode::EncryptedGroupMac => env
                .open_encrypted(&engine.group_key)
                .map_err(|_| RejectReason::AuthFailed),
            AuthMode::Pki => {
                if let AuthScheme::Signed { certificate, .. } = &env.auth {
                    if engine.ca.revokes(certificate) {
                        return Err(RejectReason::Distrusted);
                    }
                }
                env.verify_signed(&engine.ca.public(), engine.ca.id(), now)
                    .map_err(|_| RejectReason::AuthFailed)
            }
        }
    }

    /// Envelopes of every scheme from principal 1, each valid and spoiled
    /// in every way a verdict can tell apart, with the time each is checked
    /// at, and principal 1's certificate. Certificates come from `engine`'s
    /// authority, valid on [0, 100]; one of them is revoked.
    fn verdict_cases(engine: &mut Engine) -> (Vec<(String, Envelope, f64)>, Certificate) {
        let sender = PrincipalId(1);
        let key = engine.group_key();
        let msg = PlatoonMessage::Beacon(Beacon {
            sender,
            platoon: PlatoonId(1),
            role: Role::Member,
            seq: 3,
            timestamp: 9.5,
            position: 120.0,
            speed: 24.0,
            accel: 0.1,
            length: 16.5,
        });
        let keys = KeyPair::from_seed(77);
        let signer = Signer::new(keys);
        let certificate = engine.ca_mut().issue(sender, keys.public(), 0.0, 100.0);
        let revoked_keys = KeyPair::from_seed(78);
        let revoked = engine
            .ca_mut()
            .issue(sender, revoked_keys.public(), 0.0, 100.0);
        engine.ca_mut().revoke(revoked.serial());

        // The same schemes over an empty message body, which never decodes,
        // with authenticators valid over it.
        let image = |tag: &[u8], extra: &[u8]| -> Vec<u8> {
            [tag, &sender.0.to_be_bytes(), extra].concat()
        };
        let empty_mac = Envelope {
            sender,
            auth: AuthScheme::GroupMac {
                tag: hmac_sha256(key.as_bytes(), &image(b"pmac", &[])).0,
            },
            payload: Vec::new(),
        };
        let empty_encrypted = Envelope {
            sender,
            auth: AuthScheme::EncryptedGroupMac {
                tag: hmac_sha256(key.as_bytes(), &image(b"penc-tag", &5u64.to_be_bytes())).0,
                nonce: 5,
            },
            payload: Vec::new(),
        };
        let empty_signed = Envelope {
            sender,
            auth: AuthScheme::Signed {
                signature: signer.sign_deterministic(&image(b"psig", &[])),
                certificate,
            },
            payload: Vec::new(),
        };
        assert!(empty_mac.check_mac(&key).is_ok());
        assert!(empty_encrypted.check_encrypted(&key).is_ok());
        let ca = engine.ca();
        assert!(empty_signed
            .check_signed(&ca.public(), ca.id(), 10.0, None)
            .is_ok());

        let schemes = [
            (
                "plain",
                Envelope::plain(sender, &msg),
                Envelope::plain(sender, &msg),
            ),
            ("group MAC", Envelope::mac(sender, &msg, &key), empty_mac),
            (
                "encrypted",
                Envelope::seal_encrypted(sender, &msg, &key, 5),
                empty_encrypted,
            ),
            (
                "signed",
                Envelope::sign(sender, &msg, &signer, certificate),
                empty_signed,
            ),
        ];
        let mut cases = Vec::new();
        for (scheme, valid, mut malformed) in schemes {
            if scheme == "plain" {
                malformed.payload.clear();
            }
            let mut flipped_payload = valid.clone();
            flipped_payload.payload[20] ^= 0x01;
            let mut flipped_auth = valid.clone();
            match &mut flipped_auth.auth {
                AuthScheme::Plain => {}
                AuthScheme::GroupMac { tag } | AuthScheme::EncryptedGroupMac { tag, .. } => {
                    tag[0] ^= 0x01;
                }
                AuthScheme::Signed { signature, .. } => {
                    let mut bytes = signature.to_bytes();
                    bytes[0] ^= 0x01;
                    *signature = Signature::from_bytes(&bytes);
                }
            }
            let mut swapped = valid.clone();
            swapped.sender = PrincipalId(2);
            cases.extend([
                (format!("{scheme}: valid"), valid.clone(), 10.0),
                (
                    format!("{scheme}: flipped payload byte"),
                    flipped_payload,
                    10.0,
                ),
                (
                    format!("{scheme}: flipped authenticator"),
                    flipped_auth,
                    10.0,
                ),
                (format!("{scheme}: swapped sender"), swapped, 10.0),
                (format!("{scheme}: expired certificate"), valid, 200.0),
                (format!("{scheme}: malformed body"), malformed, 10.0),
            ]);
        }
        cases.push((
            "signed: revoked certificate".to_string(),
            Envelope::sign(sender, &msg, &Signer::new(revoked_keys), revoked),
            10.0,
        ));
        // A certificate the memo has accepted, presented again: past its
        // window, copied with a later `not_after` or another issuer id under
        // the original signature, and carried by another principal that
        // signs its own message.
        let stretched = Certificate {
            not_after: 1000.0,
            ..certificate
        };
        let reissued = Certificate {
            issuer: PrincipalId(engine.ca().id().0 + 1),
            ..certificate
        };
        let other = Signer::new(KeyPair::from_seed(79));
        cases.extend([
            (
                "signed: valid at 5".to_string(),
                Envelope::sign(sender, &msg, &signer, certificate),
                5.0,
            ),
            (
                "signed: the same certificate at 150, past not_after".to_string(),
                Envelope::sign(sender, &msg, &signer, certificate),
                150.0,
            ),
            (
                "signed: not_after extended, original signature".to_string(),
                Envelope::sign(sender, &msg, &signer, stretched),
                10.0,
            ),
            (
                "signed: issuer changed".to_string(),
                Envelope::sign(sender, &msg, &signer, reissued),
                10.0,
            ),
            (
                "signed: certificate under another sender".to_string(),
                Envelope::sign(PrincipalId(2), &msg, &other, certificate),
                10.0,
            ),
        ]);
        (cases, certificate)
    }

    /// Each case's verdict from the per-frame body and the per-delivery
    /// check, asserted equal to [`authenticate_in_one`]'s.
    fn checked_verdicts(
        engine: &mut Engine,
        cases: &[(String, Envelope, f64)],
        pass: &str,
    ) -> Vec<Result<PlatoonMessage, RejectReason>> {
        let mode = engine.scenario.auth;
        cases
            .iter()
            .map(|(case, env, now)| {
                let want = authenticate_in_one(engine, env, *now);
                let body = engine.open_body(env);
                let got = engine
                    .authenticate(env, *now)
                    .and_then(|()| body.ok_or(RejectReason::AuthFailed));
                assert_eq!(got, want, "{mode:?}, {pass}, {case}");
                got
            })
            .collect()
    }

    #[test]
    fn per_frame_body_and_per_delivery_check_reach_the_one_call_verdict() {
        let modes = [
            AuthMode::None,
            AuthMode::GroupMac,
            AuthMode::EncryptedGroupMac,
            AuthMode::Pki,
        ];
        let mut accepted = 0;
        for mode in modes {
            // Each order starts from a cold certificate memo and runs every
            // case twice, so each case meets the memo cold and warm.
            for reverse in [false, true] {
                let mut engine = Engine::new(Scenario::builder().vehicles(3).auth(mode).build());
                let (mut cases, certificate) = verdict_cases(&mut engine);
                if reverse {
                    cases.reverse();
                }
                let cold = checked_verdicts(&mut engine, &cases, "cold");
                let warm = checked_verdicts(&mut engine, &cases, "warm");
                assert_eq!(cold, warm, "{mode:?}");
                // Revoking a certificate the memo has accepted distrusts it
                // at once.
                engine.ca_mut().revoke(certificate.serial());
                let revoked = checked_verdicts(&mut engine, &cases, "revoked");
                let verdict = |verdicts: &[Result<PlatoonMessage, RejectReason>], name: &str| {
                    let at = cases.iter().position(|(case, ..)| case == name);
                    verdicts[at.expect("case exists")].clone()
                };
                if mode == AuthMode::Pki {
                    assert_eq!(
                        engine.verified_certs.len(),
                        1,
                        "only principal 1's certificate passes its CA check"
                    );
                    assert!(verdict(&warm, "signed: valid").is_ok());
                    assert_eq!(
                        verdict(&warm, "signed: revoked certificate"),
                        Err(RejectReason::Distrusted)
                    );
                    for name in [
                        "signed: the same certificate at 150, past not_after",
                        "signed: not_after extended, original signature",
                        "signed: issuer changed",
                        "signed: certificate under another sender",
                    ] {
                        assert_eq!(
                            verdict(&warm, name),
                            Err(RejectReason::AuthFailed),
                            "{name}"
                        );
                    }
                    assert_eq!(
                        verdict(&revoked, "signed: valid"),
                        Err(RejectReason::Distrusted)
                    );
                } else {
                    assert_eq!(revoked, warm, "{mode:?}: revocation is PKI's alone");
                }
                accepted += cold.iter().filter(|v| v.is_ok()).count();
            }
        }
        // Every mode accepts its own valid scheme in both orders.
        assert!(accepted >= 8, "accepted {accepted}");
    }

    /// Puts beacons of vehicle 1 on the air every step whose certificates
    /// fail their CA check: its own certificate with `not_after` extended
    /// under the original signature, and one from a rogue authority that
    /// claims the real authority's id.
    #[derive(Debug)]
    struct ForgedCertificates;

    impl Attack for ForgedCertificates {
        fn name(&self) -> &'static str {
            "forged-certificates"
        }

        fn attribute(&self) -> crate::attack::SecurityAttribute {
            crate::attack::SecurityAttribute::Authenticity
        }

        fn on_air(&mut self, world: &mut World, _rng: &mut StdRng, frames: &mut Vec<Frame>) {
            let v = &world.vehicles[1];
            let AuthMaterial::Pki {
                signer,
                certificate,
            } = &v.auth
            else {
                return;
            };
            let mut rogue = CertificateAuthority::new(certificate.issuer, KeyPair::from_seed(666));
            let forged = [
                Certificate {
                    not_after: certificate.not_after + 1000.0,
                    ..*certificate
                },
                rogue.issue(v.principal, signer.public(), 0.0, 1e6),
            ];
            let msg = PlatoonMessage::Beacon(Beacon {
                sender: v.principal,
                platoon: v.platoon,
                role: v.role,
                seq: v.seq,
                timestamp: world.time,
                position: v.vehicle.state.position,
                speed: v.vehicle.state.speed,
                accel: v.vehicle.state.accel,
                length: v.vehicle.params.length,
            });
            for certificate in forged {
                let env = Envelope::sign(v.principal, &msg, signer, certificate);
                frames.push(Frame {
                    sender: NodeId(9_000),
                    origin: v.position(),
                    power_dbm: 20.0,
                    channel: ChannelKind::Dsrc,
                    payload: env.encode().into(),
                });
            }
        }

        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    #[test]
    fn a_pki_run_remembers_exactly_its_vehicles_certificates() {
        let scenario = Scenario::builder()
            .vehicles(8)
            .auth(AuthMode::Pki)
            .comms(CommsMode::HybridVlc)
            .duration(5.0)
            .build();
        let mut engine = Engine::new(scenario);
        engine.add_attack(Box::new(ForgedCertificates));
        let summary = engine.run();
        assert!(
            summary.rejected_messages > 100,
            "the forgeries reached receivers: {}",
            summary.rejected_messages
        );
        let authority = engine.ca.public();
        let certificates: Vec<Certificate> = engine
            .world
            .vehicles
            .iter()
            .map(|v| match &v.auth {
                AuthMaterial::Pki { certificate, .. } => *certificate,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(certificates.len(), 8);
        assert_eq!(engine.verified_certs.len(), 8);
        for certificate in &certificates {
            assert!(engine.verified_certs.contains(certificate, &authority));
        }
    }

    #[test]
    fn a_pki_engine_resumes_byte_identically_from_a_mid_run_snapshot() {
        let build = || {
            let scenario = Scenario::builder()
                .vehicles(8)
                .auth(AuthMode::Pki)
                .comms(CommsMode::HybridVlc)
                .duration(6.0)
                .build();
            let mut engine = Engine::new(scenario);
            engine.attach_detector_config(PipelineConfig::default_profile());
            engine.attach_tracer(TraceRecorder::new());
            engine
        };
        let mut straight = build();
        let want = straight.run();
        let mut interrupted = build();
        interrupted.fast_forward(30);
        assert_eq!(interrupted.verified_certs.len(), 8, "the memo is warm");
        let snapshot = interrupted.snapshot().expect("a PKI engine snapshots");
        drop(interrupted);
        let mut resumed = snapshot.restore().expect("the snapshot restores");
        assert_eq!(resumed.run(), want);
        assert!(want.trace.is_some());
        assert_eq!(resumed.state_digest(), straight.state_digest());
        assert_eq!(resumed.perf(), straight.perf());
    }

    #[test]
    fn rsu_node_ids_stay_clear_of_vehicle_ids() {
        // 1001 platoons of 10: vehicle node ids run past 10,000, where the
        // RSU ids of a smaller world start.
        let scenario = Scenario::builder()
            .vehicles(10)
            .max_platoon_size(10)
            .platoons(1001)
            .rsu((0.0, 8.0))
            .rsu((1500.0, 8.0))
            .build();
        let engine = Engine::new(scenario);
        let world = engine.world();
        assert_eq!(world.vehicles.len(), 10_010);
        for rsu in &world.rsus {
            assert_eq!(world.index_of_node(rsu.node), None, "{:?}", rsu.node);
        }
        assert_eq!(world.rsus[0].node, NodeId(10_010));
    }

    #[test]
    fn merge_is_refused_whole_when_the_lead_roster_lacks_room() {
        let scenario = Scenario::builder()
            .vehicles(4)
            .max_platoon_size(4)
            .duration(10.0)
            .build();
        let mut engine = Engine::new(scenario);
        engine.command_split(2).expect("valid split index");
        for _ in 0..10 {
            engine.step();
        }
        assert_eq!(engine.world.platoon_count(), 2, "the split took effect");
        // A newcomer takes one of the two places the split freed.
        engine
            .maneuvers
            .roster_mut()
            .admit_tail(PrincipalId(99))
            .expect("room after the split");
        assert_eq!(engine.command_merge(), 0);
        assert_eq!(engine.world.platoon_count(), 2, "nothing merged");
        assert_eq!(engine.maneuvers.roster().len(), 3);
    }

    #[test]
    fn round_dedup_checks_earlier_frames_with_the_same_bytes() {
        let mut dedup = RoundDedup::default();
        let beacon: Payload = b"sealed leader beacon".as_slice().into();
        let other: Payload = b"another vehicle's beacon".as_slice().into();
        // Frame 0, the original, reaches receivers 1 and 2.
        dedup.next_frame();
        assert!(dedup.admit(1, &beacon));
        assert!(dedup.admit(2, &beacon));
        // Frame 1 carries other bytes.
        dedup.next_frame();
        assert!(dedup.admit(1, &other));
        // Frame 2 is a byte copy of frame 0 in its own allocation: the same
        // bytes, so it merges.
        let copy: Payload = beacon.to_vec().into();
        dedup.next_frame();
        assert!(!dedup.admit(2, &copy));
        assert!(dedup.admit(3, &copy));
        // Frame 3 shares frame 0's allocation (a hybrid copy or a relay);
        // the check walks back through frames 2 and 0.
        dedup.next_frame();
        assert!(!dedup.admit(3, &beacon));
        assert!(!dedup.admit(1, &beacon));
        assert!(dedup.admit(4, &beacon));
        // Bytes that differ from the beacon's never merge with it: one
        // flipped byte, a strict prefix, and other bytes of equal length.
        let mut flipped = beacon.to_vec();
        flipped[7] ^= 1;
        let near: [&[u8]; 3] = [&flipped, &beacon[..19], &[b'x'; 20]];
        for bytes in near {
            dedup.next_frame();
            for rx in 1..=4 {
                assert!(dedup.admit(rx, &bytes.into()), "{bytes:?} at {rx}");
            }
        }
        // Two keys from the first four frames, one per near miss.
        assert_eq!(dedup.latest.len(), 5);
        // A new round forgets every key.
        dedup.clear();
        assert!(dedup.latest.is_empty());
        dedup.next_frame();
        assert!(dedup.admit(2, &beacon));
    }
}
