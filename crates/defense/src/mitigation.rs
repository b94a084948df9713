//! Attack-resilient control mitigation — Table III "Control Algorithms",
//! after Petrillo et al. \[7\].
//!
//! §VI-A.3: control algorithms "can only reduce the impact of the attack on
//! a platoon" — they do not identify the attacker, they bound what malicious
//! inputs can do to the closed loop. The measures are deliberately
//! *asymmetric*: braking is fail-safe and must never be hindered, while
//! network-induced acceleration and command whiplash are bounded.
//!
//! * **acceleration clamp** — positive commands are saturated below the
//!   physical limit, bounding how hard malicious data can push a vehicle
//!   into its predecessor;
//! * **acceleration slew limit** — command *increases* are rate-limited,
//!   so forged/replayed beacons cannot whipsaw the actuator (braking is
//!   exempt);
//! * **brake sanity check** — a strong brake demand that contradicts the
//!   local radar (gap larger than desired and not closing) is attenuated:
//!   the phantom-braking countermeasure, cross-checking the network against
//!   on-board sensing exactly as \[7\] does with local observers;
//! * **safety override** — independent of everything else, an
//!   imminent-collision time-to-collision triggers firm braking (AEB).

use platoon_sim::defense::Defense;
use platoon_sim::world::World;
use std::any::Any;

/// Configuration of the mitigation layer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MitigationConfig {
    /// Clamp positive (accelerating) commands to this many m/s² (None = off).
    pub accel_clamp: Option<f64>,
    /// Maximum command *increase* per second, m/s³ (None = off). Braking is
    /// never slew-limited.
    pub accel_slew: Option<f64>,
    /// Enable the radar-consistency brake sanity check.
    pub brake_sanity: bool,
    /// Brake demands stronger than this (m/s², positive number) are subject
    /// to the sanity check.
    pub sanity_brake_threshold: f64,
    /// Enable the radar-consistency *acceleration* sanity check: a push to
    /// accelerate while the gap is already below the set-point and closing
    /// contradicts local sensing (stale/forged speed data biasing the
    /// equilibrium).
    pub accel_sanity: bool,
    /// Enable the bounded-deviation governor: once the radar gap deviates
    /// from the set-point by more than `governor_deadband`, the cooperative
    /// command is blended with a purely local (radar-only) gap controller.
    /// Malicious communicated data can then bias the equilibrium only within
    /// a bounded envelope — the core guarantee of the resilient-control
    /// approach of \[7\].
    pub deviation_governor: bool,
    /// Deadband in metres before the governor engages.
    pub governor_deadband: f64,
    /// The platoon's configured gap set-point in metres (the deployment
    /// parameter the sanity checks are calibrated against).
    pub gap_setpoint: f64,
    /// Engage the safety override when the true time-to-collision falls
    /// below this many seconds (None = off).
    pub safety_ttc: Option<f64>,
    /// Override braking strength, m/s² (positive number, applied negative).
    pub override_brake: f64,
}

impl Default for MitigationConfig {
    fn default() -> Self {
        MitigationConfig {
            accel_clamp: Some(1.5),
            accel_slew: Some(8.0),
            brake_sanity: true,
            sanity_brake_threshold: 1.0,
            accel_sanity: true,
            deviation_governor: true,
            governor_deadband: 3.0,
            gap_setpoint: 10.0,
            safety_ttc: Some(2.0),
            override_brake: 6.0,
        }
    }
}

/// The control mitigation defense.
/// # Examples
///
/// ```
/// use platoon_defense::prelude::*;
/// use platoon_sim::prelude::*;
///
/// let mut engine = Engine::new(Scenario::builder().vehicles(4).duration(5.0).build());
/// engine.add_defense(Box::new(MitigationDefense::new(MitigationConfig::default())));
/// let summary = engine.run();
/// assert_eq!(summary.collisions, 0);
/// ```
#[derive(Clone, Debug)]
pub struct MitigationDefense {
    config: MitigationConfig,
    /// Previous step's (post-mitigation) commands per vehicle.
    previous: Vec<f64>,
    clamps: u64,
    slews: u64,
    sanity_blocks: u64,
    overrides: u64,
}

impl MitigationDefense {
    /// Creates the mitigation layer.
    pub fn new(config: MitigationConfig) -> Self {
        MitigationDefense {
            config,
            previous: Vec::new(),
            clamps: 0,
            slews: 0,
            sanity_blocks: 0,
            overrides: 0,
        }
    }

    /// Times the acceleration clamp engaged.
    pub fn clamp_count(&self) -> u64 {
        self.clamps
    }

    /// Times the slew limiter engaged.
    pub fn slew_count(&self) -> u64 {
        self.slews
    }

    /// Times the brake sanity check attenuated a phantom brake.
    pub fn sanity_count(&self) -> u64 {
        self.sanity_blocks
    }

    /// Times the safety override engaged.
    pub fn override_count(&self) -> u64 {
        self.overrides
    }
}

impl Defense for MitigationDefense {
    fn name(&self) -> &'static str {
        "control-mitigation"
    }

    fn adjust_commands(&mut self, world: &World, commands: &mut [f64]) {
        if self.previous.len() != commands.len() {
            self.previous = commands.to_vec();
        }
        let dt = world.medium.step_len;

        for (idx, u) in commands.iter_mut().enumerate() {
            // The leader is human-driven (§II-B): mitigation applies to the
            // automated followers.
            if idx == 0 {
                continue;
            }
            let gap = world.true_gap(idx);
            let rate = world.true_range_rate(idx);

            if let Some(clamp) = self.config.accel_clamp {
                if *u > clamp {
                    *u = clamp;
                    self.clamps += 1;
                }
            }
            if let Some(slew) = self.config.accel_slew {
                let max_up = self.previous[idx] + slew * dt;
                if *u > max_up {
                    *u = max_up;
                    self.slews += 1;
                }
            }
            if self.config.brake_sanity && *u < -self.config.sanity_brake_threshold {
                // Strong brake demand: does the local radar agree there is
                // anything to brake for? CACC's whole benefit is braking on
                // the *communicated* predecessor deceleration before the gap
                // visibly closes, so an anticipatory brake while the vehicle
                // ahead really is decelerating must never be attenuated —
                // the check only fires when local sensing contradicts the
                // demand on every axis: healthy gap, not closing, and the
                // predecessor not braking.
                let ahead_braking = world.vehicles[idx - 1].vehicle.state.accel < -0.5;
                if let (Some(gap), Some(rate)) = (gap, rate) {
                    if gap > self.config.gap_setpoint - 2.0 && rate > -0.5 && !ahead_braking {
                        // Blatant contradiction (gap beyond set-point and
                        // already opening): cancel the phantom brake
                        // entirely; otherwise keep a residual so a marginal
                        // honest cue still bleeds speed.
                        *u = if gap > self.config.gap_setpoint && rate >= 0.0 {
                            0.0
                        } else {
                            -self.config.sanity_brake_threshold
                        };
                        self.sanity_blocks += 1;
                    }
                }
            }
            if self.config.accel_sanity && *u > 0.3 {
                if let (Some(gap), Some(rate)) = (gap, rate) {
                    // Already closer than the set-point and still closing:
                    // accelerating contradicts local sensing.
                    if gap < self.config.gap_setpoint - 1.0 && rate < 0.5 {
                        *u = 0.0;
                        self.sanity_blocks += 1;
                    }
                }
            }
            if self.config.deviation_governor {
                if let (Some(gap), Some(rate)) = (gap, rate) {
                    let err = gap - self.config.gap_setpoint;
                    if err.abs() > self.config.governor_deadband {
                        // Bounded-deviation semantics: outside the deadband
                        // the cooperative command may not *oppose* the local
                        // (radar-only) gap loop. Too close → it may not push
                        // harder than the blend; too far → it may not brake
                        // below the blend. Commands that already agree with
                        // local sensing (honest catch-up at full throttle,
                        // honest emergency braking) pass untouched, so the
                        // governor bounds what forged data can do without
                        // hindering legitimate transients.
                        // Heavily rate-damped local loop: kd/kp ≈ 6 keeps
                        // the governed string from amplifying disturbances
                        // toward the tail. Local sensing gets the majority
                        // weight: past the deadband the network has already
                        // demonstrated it cannot be holding the set-point.
                        let u_local = 0.2 * err + 1.2 * rate;
                        let blend = 0.3 * *u + 0.7 * u_local;
                        let governed = if err < 0.0 {
                            (*u).min(blend)
                        } else {
                            (*u).max(blend)
                        };
                        if governed != *u {
                            *u = governed;
                            self.sanity_blocks += 1;
                        }
                    }
                }
            }
            if let Some(ttc_limit) = self.config.safety_ttc {
                if let (Some(gap), Some(rate)) = (gap, rate) {
                    if let Some(ttc) = platoon_dynamics::safety::time_to_collision(gap, rate) {
                        if ttc < ttc_limit {
                            *u = -self.config.override_brake;
                            self.overrides += 1;
                        }
                    }
                }
            }
            self.previous[idx] = *u;
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn clone_box(&self) -> Option<Box<dyn Defense>> {
        Some(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platoon_attacks::prelude::*;
    use platoon_sim::prelude::*;

    fn scenario(label: &str) -> Scenario {
        use platoon_dynamics::profiles::SpeedProfile;
        Scenario::builder()
            .label(label)
            .vehicles(6)
            .duration(60.0)
            .profile(SpeedProfile::BrakeTest {
                cruise: 25.0,
                low: 15.0,
                brake_at: 8.0,
                hold: 5.0,
            })
            .seed(3)
            .build()
    }

    #[test]
    fn mitigation_reduces_replay_impact() {
        let mut undefended = Engine::new(scenario("mit-undef"));
        undefended.add_attack(Box::new(ReplayAttack::new(ReplayConfig::default())));
        let u = undefended.run();

        let mut defended = Engine::new(scenario("mit"));
        defended.add_attack(Box::new(ReplayAttack::new(ReplayConfig::default())));
        defended.add_defense(Box::new(
            MitigationDefense::new(MitigationConfig::default()),
        ));
        let d = defended.run();

        assert!(
            d.oscillation_energy < 0.7 * u.oscillation_energy,
            "mitigation must damp the disturbance: {} vs {}",
            d.oscillation_energy,
            u.oscillation_energy
        );
        assert_eq!(d.collisions, 0);
        let m = defended.defenses()[0]
            .as_any()
            .downcast_ref::<MitigationDefense>()
            .unwrap();
        assert!(m.sanity_count() > 0, "phantom brakes should be attenuated");
    }

    #[test]
    fn safety_override_prevents_sensor_spoof_collision() {
        // The 15 m radar bias that crashes the undefended platoon
        // (attacks::sensor_spoof tests) is caught by the TTC override.
        let mut engine = Engine::new(
            Scenario::builder()
                .label("mit-aeb")
                .vehicles(6)
                .duration(40.0)
                .seed(29)
                .build(),
        );
        engine.add_attack(Box::new(SensorSpoofAttack::new(SensorSpoofConfig {
            mode: SensorAttackMode::Spoof { bias: 15.0 },
            also_lidar: true, // defeat the fusion failover too
            ..Default::default()
        })));
        engine.add_defense(Box::new(
            MitigationDefense::new(MitigationConfig::default()),
        ));
        let s = engine.run();
        assert_eq!(s.collisions, 0, "mitigation must prevent the crash");
        let m = engine.defenses()[0]
            .as_any()
            .downcast_ref::<MitigationDefense>()
            .unwrap();
        // Either the deviation governor held the gap away from the
        // emergency regime, or the TTC override fired as the last resort.
        assert!(
            m.override_count() > 0 || (m.sanity_count() > 0 && s.min_gap > 1.0),
            "a mitigation layer should have engaged: overrides {}, sanity {}, min gap {}",
            m.override_count(),
            m.sanity_count(),
            s.min_gap
        );
    }

    #[test]
    fn honest_platoon_unharmed_by_mitigation() {
        let clean = Engine::new(scenario("mit-clean")).run();
        let mut engine = Engine::new(scenario("mit-honest"));
        engine.add_defense(Box::new(
            MitigationDefense::new(MitigationConfig::default()),
        ));
        let s = engine.run();
        assert_eq!(s.collisions, 0, "mitigation must never cause a crash");
        // Braking is unhindered; only acceleration transients are shaped,
        // so tracking stays comparable.
        assert!(
            s.max_spacing_error < clean.max_spacing_error * 1.5 + 1.0,
            "{} vs {}",
            s.max_spacing_error,
            clean.max_spacing_error
        );
    }

    #[test]
    fn disabled_measures_do_nothing() {
        let cfg = MitigationConfig {
            accel_clamp: None,
            accel_slew: None,
            brake_sanity: false,
            sanity_brake_threshold: 1.0,
            accel_sanity: false,
            deviation_governor: false,
            governor_deadband: 3.0,
            gap_setpoint: 10.0,
            safety_ttc: None,
            override_brake: 6.0,
        };
        let mut engine = Engine::new(scenario("mit-off"));
        engine.add_attack(Box::new(ReplayAttack::new(ReplayConfig::default())));
        engine.add_defense(Box::new(MitigationDefense::new(cfg)));
        engine.run();
        let m = engine.defenses()[0]
            .as_any()
            .downcast_ref::<MitigationDefense>()
            .unwrap();
        assert_eq!(
            m.clamp_count() + m.slew_count() + m.sanity_count() + m.override_count(),
            0
        );
    }
}
