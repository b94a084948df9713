//! Leader speed profiles: the disturbance inputs that excite a platoon.
//!
//! String-stability and attack-impact experiments need repeatable leader
//! behaviour. The profiles here mirror the standard Plexe/VENTOS evaluation
//! workloads: constant cruise, a step change, a sinusoidal perturbation (the
//! classic string-stability probe), an emergency-braking test, and a
//! synthetic urban drive composed of deterministic pseudo-random phases.

/// A deterministic target-speed profile `v(t)` for the platoon leader.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SpeedProfile {
    /// Hold a constant speed.
    Constant {
        /// Cruise speed in m/s.
        speed: f64,
    },
    /// Step from `initial` to `target` at time `at`.
    Step {
        /// Speed before the step, m/s.
        initial: f64,
        /// Speed after the step, m/s.
        target: f64,
        /// Step time in seconds.
        at: f64,
    },
    /// Sinusoidal perturbation around a mean speed — the canonical
    /// string-stability excitation.
    Sinusoid {
        /// Mean speed in m/s.
        mean: f64,
        /// Peak deviation in m/s.
        amplitude: f64,
        /// Period of the oscillation in seconds.
        period: f64,
    },
    /// Cruise, then brake hard to `low` at `brake_at`, hold for `hold`,
    /// then recover to the cruise speed.
    BrakeTest {
        /// Cruise speed in m/s.
        cruise: f64,
        /// Speed during the braking phase in m/s.
        low: f64,
        /// Brake onset time in seconds.
        brake_at: f64,
        /// Duration of the low-speed hold in seconds.
        hold: f64,
    },
    /// Piecewise-constant speeds changing every `phase` seconds, drawn
    /// deterministically from `seed` in `[min, max]` — a stand-in for a
    /// recorded urban/highway drive cycle.
    UrbanDrive {
        /// Minimum phase speed, m/s.
        min: f64,
        /// Maximum phase speed, m/s.
        max: f64,
        /// Phase duration in seconds.
        phase: f64,
        /// Seed for the deterministic phase sequence.
        seed: u64,
    },
}

impl SpeedProfile {
    /// The target speed at time `t` seconds.
    pub fn target_speed(&self, t: f64) -> f64 {
        match *self {
            SpeedProfile::Constant { speed } => speed,
            SpeedProfile::Step {
                initial,
                target,
                at,
            } => {
                if t < at {
                    initial
                } else {
                    target
                }
            }
            SpeedProfile::Sinusoid {
                mean,
                amplitude,
                period,
            } => mean + amplitude * (std::f64::consts::TAU * t / period).sin(),
            SpeedProfile::BrakeTest {
                cruise,
                low,
                brake_at,
                hold,
            } => {
                if t >= brake_at && t < brake_at + hold {
                    low
                } else {
                    cruise
                }
            }
            SpeedProfile::UrbanDrive {
                min,
                max,
                phase,
                seed,
            } => {
                let idx = (t / phase).floor() as u64;
                // SplitMix64 over (seed, idx) for a deterministic sequence.
                let mut z = seed
                    .wrapping_add(idx.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
                min + unit * (max - min)
            }
        }
    }

    /// The speed the profile starts at (used to initialise the platoon).
    pub fn initial_speed(&self) -> f64 {
        self.target_speed(0.0)
    }
}

impl Default for SpeedProfile {
    fn default() -> Self {
        SpeedProfile::Constant { speed: 25.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let p = SpeedProfile::Constant { speed: 20.0 };
        for t in [0.0, 1.0, 100.0] {
            assert_eq!(p.target_speed(t), 20.0);
        }
    }

    #[test]
    fn step_switches_at_time() {
        let p = SpeedProfile::Step {
            initial: 20.0,
            target: 25.0,
            at: 10.0,
        };
        assert_eq!(p.target_speed(9.99), 20.0);
        assert_eq!(p.target_speed(10.0), 25.0);
        assert_eq!(p.initial_speed(), 20.0);
    }

    #[test]
    fn sinusoid_bounds_and_period() {
        let p = SpeedProfile::Sinusoid {
            mean: 25.0,
            amplitude: 2.0,
            period: 10.0,
        };
        for i in 0..1000 {
            let v = p.target_speed(i as f64 * 0.05);
            assert!((23.0..=27.0).contains(&v));
        }
        // Quarter period hits the peak.
        assert!((p.target_speed(2.5) - 27.0).abs() < 1e-9);
        // Periodicity.
        assert!((p.target_speed(3.0) - p.target_speed(13.0)).abs() < 1e-9);
    }

    #[test]
    fn brake_test_phases() {
        let p = SpeedProfile::BrakeTest {
            cruise: 25.0,
            low: 10.0,
            brake_at: 30.0,
            hold: 5.0,
        };
        assert_eq!(p.target_speed(0.0), 25.0);
        assert_eq!(p.target_speed(31.0), 10.0);
        assert_eq!(p.target_speed(36.0), 25.0);
    }

    #[test]
    fn urban_drive_deterministic_and_bounded() {
        let p = SpeedProfile::UrbanDrive {
            min: 5.0,
            max: 15.0,
            phase: 10.0,
            seed: 7,
        };
        for i in 0..200 {
            let t = i as f64 * 0.7;
            let v = p.target_speed(t);
            assert!((5.0..=15.0).contains(&v), "v={v} at t={t}");
            assert_eq!(v, p.target_speed(t), "must be deterministic");
        }
        // Different phases give different speeds (with overwhelming likelihood).
        assert_ne!(p.target_speed(0.0), p.target_speed(11.0));
        // Constant within a phase.
        assert_eq!(p.target_speed(0.0), p.target_speed(9.9));
    }

    #[test]
    fn urban_drive_seed_sensitivity() {
        let a = SpeedProfile::UrbanDrive {
            min: 5.0,
            max: 15.0,
            phase: 10.0,
            seed: 1,
        };
        let b = SpeedProfile::UrbanDrive {
            min: 5.0,
            max: 15.0,
            phase: 10.0,
            seed: 2,
        };
        assert_ne!(a.target_speed(0.0), b.target_speed(0.0));
    }
}
