//! Piecewise driving-regime plans: highway cruise → congestion →
//! stop-and-go → tunnel, each phase retargeting the leader's speed
//! profile, the platoon gap, the channel noise environment, and the beacon
//! cadence at seed-deterministic tick boundaries.
//!
//! A [`RegimePlan`] layers *under* the fault schedule: regimes describe
//! the benign environment (traffic density, weather, road geometry) while
//! faults and attacks perturb it. Channel degradation is applied
//! delta-style each tick, exactly like `NoiseFloorRamp`, so the two
//! compose without clobbering each other.
//!
//! Phase boundaries are integer ticks derived by [`steps_for`], the same
//! epsilon-robust conversion `Engine::run` uses for the run length — so a
//! plan whose per-phase durations were summed in `f64` (and therefore
//! drifted by one ulp) still lands every boundary on the intended tick.

use platoon_dynamics::profiles::SpeedProfile;

/// Converts a duration in seconds into a whole number of simulation steps,
/// robust to `f64` representation error in either direction.
///
/// `(duration / step).round()` overshoots by a full tick when the duration
/// lands on a half-step (30.25 s at 0.1 s rounds to 303 ticks, simulating
/// 30.3 s); a bare `floor()` undershoots when an exact multiple divides to
/// just below an integer (`30.0 / 0.1 == 299.999…94`). Nudging the
/// quotient up by an epsilon far below one tick before flooring gives the
/// exact count for multiples and truncates partial ticks, which is the
/// intended semantics: never simulate past `duration`.
pub fn steps_for(duration: f64, step: f64) -> u64 {
    ((duration / step) + 1e-6).floor() as u64
}

/// One phase of a [`RegimePlan`]: a labelled stretch of driving regime.
#[derive(Clone, Debug, PartialEq)]
pub struct RegimePhase {
    /// Phase label, e.g. `"cruise"`, `"stop-and-go"`, `"tunnel"`. Announced
    /// to regime-aware detectors and recorded in the trace.
    pub label: String,
    /// Phase length in simulated seconds.
    pub duration: f64,
    /// Leader speed profile for this phase, evaluated at *phase-local*
    /// time. `None` keeps the scenario's own profile (at run time).
    pub profile: Option<SpeedProfile>,
    /// Commanded intra-platoon gap override in metres, e.g. tightened in
    /// congestion. Affects control only; spacing-error metrics stay
    /// relative to the scenario's nominal gap.
    pub desired_gap: Option<f64>,
    /// Extra channel noise in dB for this phase (tunnel walls, weather).
    /// Raises the DSRC noise floor by this amount and the VLC
    /// ambient-outage rate by `VLC_OUTAGE_PER_DB` per dB, so every active
    /// medium degrades.
    pub noise_extra_db: f64,
    /// Beacon cadence divisor: members beacon every this many comm steps
    /// (1 = every step). Models congestion-control backoff in dense
    /// traffic or constrained channels.
    pub beacon_every: u64,
}

fn default_beacon_every() -> u64 {
    1
}

impl RegimePhase {
    /// A phase with the given label and duration that changes nothing —
    /// compose the regime with the `with_*` builders.
    pub fn new(label: &str, duration: f64) -> Self {
        RegimePhase {
            label: label.to_string(),
            duration,
            profile: None,
            desired_gap: None,
            noise_extra_db: 0.0,
            beacon_every: default_beacon_every(),
        }
    }

    /// Sets the leader speed profile (phase-local time).
    pub fn with_profile(mut self, profile: SpeedProfile) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Overrides the commanded intra-platoon gap.
    pub fn with_desired_gap(mut self, gap: f64) -> Self {
        self.desired_gap = Some(gap);
        self
    }

    /// Adds channel noise (dB over the baseline) for the phase.
    pub fn with_noise(mut self, extra_db: f64) -> Self {
        self.noise_extra_db = extra_db;
        self
    }

    /// Sets the beacon cadence divisor.
    pub fn with_beacon_every(mut self, every: u64) -> Self {
        self.beacon_every = every;
        self
    }
}

/// A piecewise regime schedule attached to a scenario. Phases run in
/// order; once the plan is exhausted the final phase persists to the end
/// of the run.
#[derive(Clone, Debug, PartialEq)]
pub struct RegimePlan {
    /// The phases, in chronological order.
    pub phases: Vec<RegimePhase>,
}

impl RegimePlan {
    /// Wraps a phase list into a plan.
    pub fn new(phases: Vec<RegimePhase>) -> Self {
        RegimePlan { phases }
    }

    /// Structural validation, called from `Scenario::build`.
    pub fn validate(&self) -> Result<(), String> {
        if self.phases.is_empty() {
            return Err("regime plan has no phases".to_string());
        }
        for phase in &self.phases {
            if phase.label.is_empty() {
                return Err("regime phase has an empty label".to_string());
            }
            if phase.duration <= 0.0 || phase.duration.is_nan() {
                return Err(format!(
                    "regime phase `{}` has non-positive duration {}",
                    phase.label, phase.duration
                ));
            }
            if phase.beacon_every == 0 {
                return Err(format!(
                    "regime phase `{}` has beacon_every = 0",
                    phase.label
                ));
            }
        }
        Ok(())
    }

    /// Sum of the phase durations in seconds.
    pub fn total_duration(&self) -> f64 {
        self.phases.iter().map(|p| p.duration).sum()
    }

    /// The start tick of each phase, derived from *cumulative* durations
    /// via [`steps_for`]. Converting each phase length separately and
    /// summing would lose the fractional ticks at every boundary; the
    /// cumulative form keeps the boundaries and the total run length
    /// consistent.
    pub fn boundaries(&self, comm_step: f64) -> Vec<u64> {
        let mut elapsed = 0.0;
        self.phases
            .iter()
            .map(|p| {
                let start = steps_for(elapsed, comm_step);
                elapsed += p.duration;
                start
            })
            .collect()
    }

    /// The phase active at `tick`: `(phase index, phase start tick)`.
    /// Ticks past the last boundary stay in the final phase.
    pub fn phase_at(&self, tick: u64, comm_step: f64) -> (usize, u64) {
        let starts = self.boundaries(comm_step);
        let mut active = 0;
        for (idx, &start) in starts.iter().enumerate() {
            if start <= tick {
                active = idx;
            } else {
                break;
            }
        }
        (active, starts[active])
    }
}

/// The engine's per-run regime bookkeeping: which phase is active and what
/// channel deltas are currently applied (so they can be removed exactly,
/// like fault deltas). Cloned wholesale by `Engine::snapshot`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RegimeState {
    /// Index of the active phase, `None` before the first step.
    pub(crate) phase: Option<usize>,
    /// Tick at which the active phase began.
    pub(crate) phase_start_tick: u64,
    /// DSRC noise currently added by the regime layer, dB.
    pub(crate) applied_noise_db: f64,
    /// VLC ambient-outage probability currently added by the regime layer.
    pub(crate) applied_vlc_outage: f64,
    /// Whether members beacon on the tick being processed.
    pub(crate) beacon_this_tick: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_for_is_exact_on_multiples_and_truncates_partials() {
        // Exact multiple whose quotient sits just below the integer: a
        // bare floor() would drop a whole tick here.
        let (duration, step) = (0.3_f64, 0.1_f64);
        assert!(duration / step < 3.0);
        assert_eq!(steps_for(0.3, 0.1), 3);
        assert_eq!(steps_for(30.0, 0.1), 300);
        // Partial tick truncates instead of rounding up (the old round()
        // derivation simulated 303 ticks — a step past the duration).
        assert_eq!(steps_for(30.25, 0.1), 302);
        // A duration accumulated by summing 0.1-second slices in f64
        // drifts off the exact value (above it, here) but must still run
        // the intended tick count.
        let drifted: f64 = (0..3).map(|_| 0.1).sum();
        assert!(drifted != 0.3);
        assert_eq!(steps_for(drifted, 0.1), 3);
    }

    #[test]
    fn boundaries_use_cumulative_durations() {
        let plan = RegimePlan::new(vec![
            RegimePhase::new("a", 10.0),
            RegimePhase::new("b", 0.35),
            RegimePhase::new("c", 9.65),
        ]);
        // Per-phase conversion would give starts [0, 100, 103] but a total
        // of 100 + 3 + 96 = 199 steps; cumulative conversion keeps the
        // total at steps_for(20.0) = 200.
        assert_eq!(plan.boundaries(0.1), vec![0, 100, 103]);
        assert_eq!(steps_for(plan.total_duration(), 0.1), 200);
    }

    #[test]
    fn phase_lookup_clamps_to_the_final_phase() {
        let plan = RegimePlan::new(vec![RegimePhase::new("a", 1.0), RegimePhase::new("b", 1.0)]);
        assert_eq!(plan.phase_at(0, 0.1), (0, 0));
        assert_eq!(plan.phase_at(9, 0.1), (0, 0));
        assert_eq!(plan.phase_at(10, 0.1), (1, 10));
        assert_eq!(plan.phase_at(5000, 0.1), (1, 10));
    }

    #[test]
    fn validation_rejects_malformed_plans() {
        assert!(RegimePlan::new(vec![]).validate().is_err());
        assert!(RegimePlan::new(vec![RegimePhase::new("", 1.0)])
            .validate()
            .is_err());
        assert!(RegimePlan::new(vec![RegimePhase::new("a", 0.0)])
            .validate()
            .is_err());
        let mut bad = RegimePhase::new("a", 1.0);
        bad.beacon_every = 0;
        assert!(RegimePlan::new(vec![bad]).validate().is_err());
        assert!(RegimePlan::new(vec![RegimePhase::new("a", 1.0)])
            .validate()
            .is_ok());
    }

    #[test]
    fn phase_builders_compose() {
        let phase = RegimePhase::new("tunnel", 4.5)
            .with_profile(SpeedProfile::Constant { speed: 20.0 })
            .with_desired_gap(7.0)
            .with_noise(15.0)
            .with_beacon_every(2);
        assert_eq!(phase.label, "tunnel");
        assert_eq!(phase.profile, Some(SpeedProfile::Constant { speed: 20.0 }));
        assert_eq!(phase.desired_gap, Some(7.0));
        assert_eq!(phase.noise_extra_db, 15.0);
        assert_eq!(phase.beacon_every, 2);
    }
}
