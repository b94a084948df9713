//! On-board sensor models: radar, GPS and LiDAR, each with noise, outage and
//! an adversary-controllable fault channel.
//!
//! §V-G of the paper catalogues GPS spoofing (overpowering the true signal
//! with a biased replica), sensor jamming (blinding cameras/radar) and CAN
//! -level spoofing. The models here expose exactly those handles:
//!
//! * every sensor has a [`SensorFault`] that an attack can set (bias ramp,
//!   frozen value, outage), and
//! * the VPD-ADA defense (platoon-defense crate) cross-checks the *same
//!   quantity from independent sensors*, which is only meaningful if the
//!   sensors are separate models with separate fault channels — hence three
//!   distinct types rather than one generic "position sensor".

use rand::Rng;

/// Adversarial or environmental fault applied to a sensor.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum SensorFault {
    /// Sensor is healthy.
    #[default]
    None,
    /// A constant additive bias (e.g. GPS spoofing at fixed offset).
    Bias {
        /// Additive offset in the sensor's unit.
        offset: f64,
    },
    /// A bias that grows linearly with time since `start` — the classic
    /// "slow-drag" GPS spoof of §V-G that walks the victim off its true
    /// position without a detectable jump.
    Ramp {
        /// Drift rate in unit/s.
        rate: f64,
        /// Time the ramp started, in seconds.
        start: f64,
    },
    /// Sensor output frozen at the last pre-fault value (stuck-at fault /
    /// malware-controlled replay of a stale reading).
    Frozen {
        /// The stuck value.
        value: f64,
    },
    /// No output at all (jammed / blinded).
    Outage,
}

impl SensorFault {
    /// Applies the fault to a true value at time `now`; `None` = no output.
    pub fn apply(&self, truth: f64, now: f64) -> Option<f64> {
        match *self {
            SensorFault::None => Some(truth),
            SensorFault::Bias { offset } => Some(truth + offset),
            SensorFault::Ramp { rate, start } => Some(truth + rate * (now - start).max(0.0)),
            SensorFault::Frozen { value } => Some(value),
            SensorFault::Outage => None,
        }
    }

    /// Whether the sensor is under any fault.
    pub fn is_active(&self) -> bool {
        !matches!(self, SensorFault::None)
    }
}

/// Forward-looking radar measuring range and range rate to the predecessor.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Radar {
    /// 1-σ range noise in metres.
    pub range_noise: f64,
    /// 1-σ range-rate noise in m/s.
    pub rate_noise: f64,
    /// Maximum detection range in metres.
    pub max_range: f64,
    /// Current fault state (applied to the range output).
    pub fault: SensorFault,
}

impl Default for Radar {
    fn default() -> Self {
        Radar {
            range_noise: 0.1,
            rate_noise: 0.05,
            max_range: 120.0,
            fault: SensorFault::None,
        }
    }
}

impl Radar {
    /// Measures a true `(range, range_rate)` pair at time `now`.
    ///
    /// Returns `None` when the target is out of range or the radar is jammed.
    pub fn measure<R: Rng + ?Sized>(
        &self,
        true_range: f64,
        true_rate: f64,
        now: f64,
        rng: &mut R,
    ) -> Option<(f64, f64)> {
        if true_range > self.max_range || true_range < 0.0 {
            return None;
        }
        let range = self.fault.apply(true_range, now)?;
        let range = range + gauss(rng) * self.range_noise;
        let rate = true_rate + gauss(rng) * self.rate_noise;
        Some((range.max(0.0), rate))
    }
}

/// GPS receiver measuring absolute longitudinal position and speed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Gps {
    /// 1-σ position noise in metres.
    pub position_noise: f64,
    /// 1-σ speed noise in m/s.
    pub speed_noise: f64,
    /// Current fault state (applied to position).
    pub fault: SensorFault,
}

impl Default for Gps {
    fn default() -> Self {
        Gps {
            position_noise: 1.5,
            speed_noise: 0.1,
            fault: SensorFault::None,
        }
    }
}

impl Gps {
    /// Measures true `(position, speed)` at time `now`.
    pub fn measure<R: Rng + ?Sized>(
        &self,
        true_position: f64,
        true_speed: f64,
        now: f64,
        rng: &mut R,
    ) -> Option<(f64, f64)> {
        let pos = self.fault.apply(true_position, now)?;
        Some((
            pos + gauss(rng) * self.position_noise,
            true_speed + gauss(rng) * self.speed_noise,
        ))
    }
}

/// LiDAR measuring range to the predecessor — an independent second ranging
/// modality for sensor-fusion defenses (VPD-ADA gathers positional evidence
/// "from multiple sources such as LiDAR ... and GPS", §VI-A.3).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Lidar {
    /// 1-σ range noise in metres (LiDAR is more precise than radar).
    pub range_noise: f64,
    /// Maximum detection range in metres.
    pub max_range: f64,
    /// Current fault state.
    pub fault: SensorFault,
}

impl Default for Lidar {
    fn default() -> Self {
        Lidar {
            range_noise: 0.03,
            max_range: 80.0,
            fault: SensorFault::None,
        }
    }
}

impl Lidar {
    /// Measures a true range at time `now`.
    pub fn measure<R: Rng + ?Sized>(&self, true_range: f64, now: f64, rng: &mut R) -> Option<f64> {
        if true_range > self.max_range || true_range < 0.0 {
            return None;
        }
        let range = self.fault.apply(true_range, now)?;
        Some((range + gauss(rng) * self.range_noise).max(0.0))
    }
}

/// The full sensor suite carried by a platoon vehicle.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct SensorSuite {
    /// Forward radar.
    pub radar: Radar,
    /// GPS receiver.
    pub gps: Gps,
    /// Forward LiDAR.
    pub lidar: Lidar,
}

/// Standard-normal draw via Box-Muller.
fn gauss<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn healthy_radar_is_unbiased() {
        let radar = Radar::default();
        let mut rng = rng();
        let n = 5000;
        let mean: f64 = (0..n)
            .map(|_| radar.measure(20.0, 0.0, 0.0, &mut rng).unwrap().0)
            .sum::<f64>()
            / n as f64;
        assert!((mean - 20.0).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn radar_out_of_range_returns_none() {
        let radar = Radar::default();
        assert!(radar.measure(500.0, 0.0, 0.0, &mut rng()).is_none());
        assert!(radar.measure(-1.0, 0.0, 0.0, &mut rng()).is_none());
    }

    #[test]
    fn bias_fault_shifts_mean() {
        let radar = Radar {
            fault: SensorFault::Bias { offset: 5.0 },
            ..Default::default()
        };
        let mut rng = rng();
        let mean: f64 = (0..2000)
            .map(|_| radar.measure(20.0, 0.0, 0.0, &mut rng).unwrap().0)
            .sum::<f64>()
            / 2000.0;
        assert!((mean - 25.0).abs() < 0.05);
    }

    #[test]
    fn ramp_fault_grows_over_time() {
        let f = SensorFault::Ramp {
            rate: 0.5,
            start: 10.0,
        };
        assert_eq!(f.apply(100.0, 10.0), Some(100.0));
        assert_eq!(f.apply(100.0, 20.0), Some(105.0));
        // Before the start there is no drift.
        assert_eq!(f.apply(100.0, 5.0), Some(100.0));
    }

    #[test]
    fn frozen_fault_ignores_truth() {
        let f = SensorFault::Frozen { value: 42.0 };
        assert_eq!(f.apply(0.0, 0.0), Some(42.0));
        assert_eq!(f.apply(1000.0, 99.0), Some(42.0));
    }

    #[test]
    fn outage_fault_blinds_all_sensors() {
        let mut rng = rng();
        let radar = Radar {
            fault: SensorFault::Outage,
            ..Default::default()
        };
        let gps = Gps {
            fault: SensorFault::Outage,
            ..Default::default()
        };
        let lidar = Lidar {
            fault: SensorFault::Outage,
            ..Default::default()
        };
        assert!(radar.measure(20.0, 0.0, 0.0, &mut rng).is_none());
        assert!(gps.measure(100.0, 25.0, 0.0, &mut rng).is_none());
        assert!(lidar.measure(20.0, 0.0, &mut rng).is_none());
    }

    #[test]
    fn lidar_noise_lower_than_radar() {
        let suite = SensorSuite::default();
        assert!(suite.lidar.range_noise < suite.radar.range_noise);
    }

    #[test]
    fn gps_measures_speed_independent_of_position_fault() {
        let gps = Gps {
            fault: SensorFault::Bias { offset: 50.0 },
            ..Default::default()
        };
        let mut rng = rng();
        let (pos, speed) = gps.measure(100.0, 25.0, 0.0, &mut rng).unwrap();
        assert!(pos > 140.0, "bias applied to position: {pos}");
        assert!((speed - 25.0).abs() < 1.0, "speed unaffected: {speed}");
    }

    #[test]
    fn fault_activity_flag() {
        assert!(!SensorFault::None.is_active());
        assert!(SensorFault::Outage.is_active());
        assert!(SensorFault::Bias { offset: 0.0 }.is_active());
    }

    #[test]
    fn measurements_never_negative_range() {
        let radar = Radar {
            fault: SensorFault::Bias { offset: -100.0 },
            ..Default::default()
        };
        let mut rng = rng();
        for _ in 0..100 {
            let (r, _) = radar.measure(5.0, 0.0, 0.0, &mut rng).unwrap();
            assert!(r >= 0.0);
        }
    }
}
