//! Scenario configuration and builder.
//!
//! A scenario describes everything about a run *except* the attacks and
//! defenses, which are plugged into the engine separately so every
//! experiment can ablate them independently.

use crate::regime::RegimePlan;
use platoon_dynamics::profiles::SpeedProfile;
use platoon_dynamics::vehicle::VehicleParams;
use platoon_proto::maneuver::ManeuverConfig;
use platoon_v2x::medium::RadioMedium;

/// Which longitudinal controller the followers run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ControllerKind {
    /// Radar-only adaptive cruise control.
    Acc,
    /// PATH/Rajamani CACC (leader + predecessor feed-forward).
    Cacc,
    /// Ploeg time-gap CACC (predecessor feed-forward only).
    Ploeg,
    /// Consensus controller over {predecessor, leader}.
    Consensus,
}

/// How outgoing messages are sealed and, symmetrically, what receivers
/// expect (the deployed key infrastructure).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AuthMode {
    /// Plain envelopes — the undefended baseline.
    None,
    /// Shared platoon group key (HMAC).
    GroupMac,
    /// Shared platoon group key with payload encryption (encrypt-then-MAC):
    /// adds confidentiality against eavesdroppers.
    EncryptedGroupMac,
    /// Per-vehicle certified signatures.
    Pki,
}

/// Which channels vehicles transmit their beacons on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommsMode {
    /// 802.11p only (the paper's baseline).
    DsrcOnly,
    /// 802.11p plus VLC to the adjacent vehicle (SP-VLC hybrid, §VI-A.4).
    HybridVlc,
    /// 802.11p plus C-V2X sidelink redundancy \[36\].
    HybridCv2x,
}

/// Full description of a simulation run.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Human-readable label for reports.
    pub label: String,
    /// Number of vehicles including the leader.
    pub vehicles: usize,
    /// Vehicle parameters (same for the whole platoon).
    pub params: VehicleParams,
    /// Follower controller.
    pub controller: ControllerKind,
    /// Desired bumper-to-bumper gap in metres (CACC constant spacing).
    pub desired_gap: f64,
    /// Leader speed profile.
    pub profile: SpeedProfile,
    /// Authentication deployment.
    pub auth: AuthMode,
    /// Channel deployment.
    pub comms: CommsMode,
    /// Communication/control step in seconds (beacon interval).
    pub comm_step: f64,
    /// Dynamics integration substep in seconds.
    pub dyn_step: f64,
    /// Simulated duration in seconds.
    pub duration: f64,
    /// RNG seed (runs are fully deterministic given the seed).
    pub seed: u64,
    /// Positions (x, y) of roadside units.
    pub rsu_positions: Vec<(f64, f64)>,
    /// Manoeuvre engine limits.
    pub maneuvers: ManeuverConfig,
    /// Radio medium parameters.
    pub medium: RadioMedium,
    /// Maximum platoon size (roster capacity).
    pub max_platoon_size: usize,
    /// Number of independent platoons on the corridor (each of
    /// [`Self::vehicles`] trucks). `1` is the classic single-platoon world;
    /// larger values build highway-scale worlds where platoon 1 leads and
    /// owns the manoeuvre engine.
    pub platoons: usize,
    /// Bumper-to-bumper distance between consecutive platoons in metres
    /// (only meaningful when [`Self::platoons`] > 1).
    pub platoon_spacing: f64,
    /// Piecewise driving-regime schedule (cruise → congestion →
    /// stop-and-go → tunnel, …). `None` keeps the single static regime.
    pub regimes: Option<RegimePlan>,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario::builder().build()
    }
}

impl Scenario {
    /// Starts a builder with sensible defaults: 8 trucks, CACC at a 10 m
    /// gap, 25 m/s cruise with a sinusoidal perturbation, 10 Hz beacons,
    /// no authentication, DSRC only, 60 s run.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder {
            scenario: Scenario {
                label: "default".to_string(),
                vehicles: 8,
                params: VehicleParams::truck(),
                controller: ControllerKind::Cacc,
                desired_gap: 10.0,
                profile: SpeedProfile::Sinusoid {
                    mean: 25.0,
                    amplitude: 1.5,
                    period: 20.0,
                },
                auth: AuthMode::None,
                comms: CommsMode::DsrcOnly,
                comm_step: 0.1,
                dyn_step: 0.01,
                duration: 60.0,
                seed: 42,
                rsu_positions: Vec::new(),
                maneuvers: ManeuverConfig::default(),
                medium: RadioMedium::default(),
                max_platoon_size: 16,
                platoons: 1,
                platoon_spacing: 150.0,
                regimes: None,
            },
        }
    }
}

/// Fluent builder for [`Scenario`].
#[derive(Clone, Debug)]
pub struct ScenarioBuilder {
    scenario: Scenario,
}

impl ScenarioBuilder {
    /// Sets the report label.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.scenario.label = label.into();
        self
    }

    /// Sets the platoon size (including the leader).
    pub fn vehicles(mut self, n: usize) -> Self {
        self.scenario.vehicles = n;
        self
    }

    /// Sets the vehicle parameters.
    pub fn params(mut self, params: VehicleParams) -> Self {
        self.scenario.params = params;
        self
    }

    /// Sets the follower controller.
    pub fn controller(mut self, kind: ControllerKind) -> Self {
        self.scenario.controller = kind;
        self
    }

    /// Sets the desired inter-vehicle gap in metres.
    pub fn desired_gap(mut self, gap: f64) -> Self {
        self.scenario.desired_gap = gap;
        self
    }

    /// Sets the leader speed profile.
    pub fn profile(mut self, profile: SpeedProfile) -> Self {
        self.scenario.profile = profile;
        self
    }

    /// Sets the authentication deployment.
    pub fn auth(mut self, auth: AuthMode) -> Self {
        self.scenario.auth = auth;
        self
    }

    /// Sets the channel deployment.
    pub fn comms(mut self, comms: CommsMode) -> Self {
        self.scenario.comms = comms;
        self
    }

    /// Sets the simulated duration in seconds.
    pub fn duration(mut self, secs: f64) -> Self {
        self.scenario.duration = secs;
        self
    }

    /// Sets the communication step (beacon interval), seconds. The beacon
    /// rate is its reciprocal: 0.05 → 20 Hz beaconing.
    pub fn comm_step(mut self, secs: f64) -> Self {
        self.scenario.comm_step = secs;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.scenario.seed = seed;
        self
    }

    /// Adds a roadside unit at the given position.
    pub fn rsu(mut self, position: (f64, f64)) -> Self {
        self.scenario.rsu_positions.push(position);
        self
    }

    /// Sets the manoeuvre limits.
    pub fn maneuvers(mut self, cfg: ManeuverConfig) -> Self {
        self.scenario.maneuvers = cfg;
        self
    }

    /// Sets the medium parameters.
    pub fn medium(mut self, medium: RadioMedium) -> Self {
        self.scenario.medium = medium;
        self
    }

    /// Sets the maximum platoon size.
    pub fn max_platoon_size(mut self, n: usize) -> Self {
        self.scenario.max_platoon_size = n;
        self
    }

    /// Sets the number of independent platoons on the corridor (each of
    /// `vehicles` trucks; platoon 1 leads and owns the manoeuvre engine).
    pub fn platoons(mut self, n: usize) -> Self {
        self.scenario.platoons = n;
        self
    }

    /// Sets the bumper-to-bumper distance between consecutive platoons.
    pub fn platoon_spacing(mut self, metres: f64) -> Self {
        self.scenario.platoon_spacing = metres;
        self
    }

    /// Attaches a piecewise driving-regime plan; phases retarget the
    /// leader profile, gap, channel noise and beacon cadence at
    /// deterministic tick boundaries.
    pub fn regimes(mut self, plan: RegimePlan) -> Self {
        self.scenario.regimes = Some(plan);
        self
    }

    /// Sets the medium's radio horizon in metres: beyond this distance
    /// frames are treated as undetectable and the medium switches from the
    /// all-pairs scan to a spatial-grid index. `f64::INFINITY` (the
    /// default) keeps the exact legacy full-scan behaviour.
    pub fn radio_horizon(mut self, metres: f64) -> Self {
        self.scenario.medium.radio_horizon_m = metres;
        self
    }

    /// Finalises the scenario.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent (fewer than 2
    /// vehicles, non-positive steps, or a duration shorter than one step).
    pub fn build(self) -> Scenario {
        let mut s = self.scenario;
        // The medium's step length is definitionally the communication step;
        // attack rate-accumulators and MAC scheduling both read it from the
        // medium, so keep the two coupled.
        s.medium.step_len = s.comm_step;
        assert!(s.vehicles >= 2, "a platoon needs at least 2 vehicles");
        assert!(
            s.comm_step > 0.0 && s.dyn_step > 0.0,
            "steps must be positive"
        );
        assert!(
            s.comm_step >= s.dyn_step,
            "comm step must not be shorter than the dynamics step"
        );
        assert!(s.duration >= s.comm_step, "duration shorter than one step");
        assert!(s.max_platoon_size >= s.vehicles, "platoon exceeds max size");
        assert!(s.platoons >= 1, "at least one platoon");
        assert!(
            s.platoon_spacing.is_finite() && s.platoon_spacing >= 0.0,
            "platoon spacing must be finite and non-negative"
        );
        if let Some(plan) = &s.regimes {
            if let Err(msg) = plan.validate() {
                panic!("invalid regime plan: {msg}");
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_builds() {
        let s = Scenario::default();
        assert_eq!(s.vehicles, 8);
        assert_eq!(s.controller, ControllerKind::Cacc);
    }

    #[test]
    fn builder_sets_fields() {
        let s = Scenario::builder()
            .label("test")
            .vehicles(4)
            .controller(ControllerKind::Ploeg)
            .desired_gap(8.0)
            .auth(AuthMode::Pki)
            .comms(CommsMode::HybridVlc)
            .duration(30.0)
            .seed(7)
            .rsu((100.0, 5.0))
            .build();
        assert_eq!(s.label, "test");
        assert_eq!(s.vehicles, 4);
        assert_eq!(s.auth, AuthMode::Pki);
        assert_eq!(s.rsu_positions.len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn single_vehicle_rejected() {
        Scenario::builder().vehicles(1).build();
    }

    #[test]
    #[should_panic(expected = "max size")]
    fn oversize_platoon_rejected() {
        Scenario::builder()
            .vehicles(20)
            .max_platoon_size(10)
            .build();
    }
}
