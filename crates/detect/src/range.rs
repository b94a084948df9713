//! Position/range-consistency detector: beacon claims cross-checked
//! against the observer's own ranging sensors, physical co-location, and
//! the receive power the claimed position would predict — plus an
//! on-board radar-vs-LiDAR cross-check that flags the observer's *own*
//! sensor stack when its independent ranging paths diverge (GPS/sensor
//! spoofing of the ego vehicle).

use crate::checks;
use crate::detector::{Detector, Evidence};
use crate::fusion::AlertTarget;
use crate::observation::{BeaconObservation, SensorObservation};
use std::collections::BTreeMap;

/// Tuning for the range-consistency detector.
#[derive(Clone, Debug)]
pub struct RangeConfig {
    /// Tolerated |claimed gap − ranged gap|, metres.
    pub gap_tolerance: f64,
    /// Tolerated |claimed closing rate − ranged closing rate|, m/s.
    pub rate_tolerance: f64,
    /// Tolerated |observed RSSI − RSSI expected at claimed position|, dB.
    pub rssi_tolerance_db: f64,
    /// Radar-vs-LiDAR disagreement that counts as a sensor fault, metres.
    pub sensor_disagreement: f64,
    /// Consecutive disagreeing samples before the sensor fault is reported.
    pub sensor_debounce: u32,
}

impl Default for RangeConfig {
    fn default() -> Self {
        RangeConfig {
            gap_tolerance: 6.0,
            rate_tolerance: 3.0,
            rssi_tolerance_db: 18.0,
            sensor_disagreement: 3.0,
            sensor_debounce: 3,
        }
    }
}

/// Streaming range/position-consistency detector.
#[derive(Clone, Debug, Default)]
pub struct RangeConsistencyDetector {
    config: RangeConfig,
    // Per-observer run length of consecutive radar/LiDAR disagreements.
    sensor_streak: BTreeMap<usize, u32>,
}

impl RangeConsistencyDetector {
    /// Creates the detector with the given tuning.
    pub fn new(config: RangeConfig) -> Self {
        RangeConsistencyDetector {
            config,
            sensor_streak: BTreeMap::new(),
        }
    }
}

impl Detector for RangeConsistencyDetector {
    fn name(&self) -> &'static str {
        "range"
    }

    fn clone_box(&self) -> Box<dyn Detector> {
        Box::new(self.clone())
    }

    fn observe_beacon(&mut self, obs: &BeaconObservation, sink: &mut Vec<Evidence>) {
        if obs.ctx.sender_is_predecessor {
            if let Some((measured_gap, measured_rate)) = obs.ctx.ranged_gap {
                let claimed_gap = obs.claim.position - obs.claim.length - obs.ctx.observer_position;
                let claimed_rate = obs.claim.speed - obs.ctx.observer_speed;
                if checks::ranging_mismatch(
                    claimed_gap,
                    measured_gap,
                    claimed_rate,
                    measured_rate,
                    self.config.gap_tolerance,
                    self.config.rate_tolerance,
                ) {
                    sink.push(Evidence {
                        time: obs.time,
                        target: AlertTarget::Sender(obs.sender),
                        detector: self.name(),
                        strength: 0.5,
                    });
                }
            }
        }
        if obs.ctx.colocation_conflict {
            sink.push(Evidence {
                time: obs.time,
                target: AlertTarget::Sender(obs.sender),
                detector: self.name(),
                strength: 0.7,
            });
        }
        if let Some(expected) = obs.ctx.expected_rssi_dbm {
            if checks::rssi_anomaly(expected, obs.rssi_dbm, self.config.rssi_tolerance_db) {
                sink.push(Evidence {
                    time: obs.time,
                    target: AlertTarget::Sender(obs.sender),
                    detector: self.name(),
                    strength: 0.5,
                });
            }
        }
    }

    fn observe_sensors(&mut self, obs: &SensorObservation, sink: &mut Vec<Evidence>) {
        let streak = self.sensor_streak.entry(obs.observer).or_insert(0);
        if (obs.radar_range - obs.lidar_range).abs() > self.config.sensor_disagreement {
            *streak += 1;
            if *streak >= self.config.sensor_debounce {
                sink.push(Evidence {
                    time: obs.time,
                    target: AlertTarget::Sender(obs.observer_principal),
                    detector: self.name(),
                    strength: 0.6,
                });
            }
        } else {
            *streak = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platoon_crypto::cert::PrincipalId;

    fn ranged(time: f64, claimed_position: f64, measured_gap: f64) -> BeaconObservation {
        let mut obs = BeaconObservation::plausible(time, PrincipalId(1), 2);
        obs.claim.position = claimed_position;
        obs.ctx.observer_position = 50.0;
        obs.ctx.observer_speed = 25.0;
        obs.ctx.sender_is_predecessor = true;
        obs.ctx.ranged_gap = Some((measured_gap, 0.0));
        obs
    }

    #[test]
    fn consistent_ranging_is_silent() {
        let mut det = RangeConsistencyDetector::default();
        let mut sink = Vec::new();
        // Claimed gap = 90 - 16.5 - 50 = 23.5 m, radar says 24 m: fine.
        det.observe_beacon(&ranged(1.0, 90.0, 24.0), &mut sink);
        assert!(sink.is_empty());
    }

    #[test]
    fn gap_lie_emits_evidence() {
        let mut det = RangeConsistencyDetector::default();
        let mut sink = Vec::new();
        // Claimed gap 23.5 m but radar measures 9 m — a >6 m lie.
        det.observe_beacon(&ranged(1.0, 90.0, 9.0), &mut sink);
        assert_eq!(sink.len(), 1);
        assert_eq!(sink[0].detector, "range");
    }

    #[test]
    fn colocation_and_rssi_anomalies_emit() {
        let mut det = RangeConsistencyDetector::default();
        let mut sink = Vec::new();
        let mut obs = BeaconObservation::plausible(0.5, PrincipalId(7), 0);
        obs.ctx.colocation_conflict = true;
        obs.ctx.expected_rssi_dbm = Some(-55.0);
        obs.rssi_dbm = -95.0; // 40 dB off the claimed position's power
        det.observe_beacon(&obs, &mut sink);
        assert_eq!(sink.len(), 2);
        assert_eq!(sink[0].strength, 0.7);
        assert_eq!(sink[1].strength, 0.5);
    }

    #[test]
    fn sensor_disagreement_needs_debounce() {
        let mut det = RangeConsistencyDetector::default();
        let mut sink = Vec::new();
        let sample = |t: f64, lidar: f64| SensorObservation {
            time: t,
            observer: 2,
            observer_principal: PrincipalId(3),
            radar_range: 20.0,
            lidar_range: lidar,
        };
        det.observe_sensors(&sample(0.0, 28.0), &mut sink);
        det.observe_sensors(&sample(0.1, 28.0), &mut sink);
        assert!(sink.is_empty(), "two samples are below the debounce");
        det.observe_sensors(&sample(0.2, 28.0), &mut sink);
        assert_eq!(sink.len(), 1);
        assert_eq!(sink[0].target, AlertTarget::Sender(PrincipalId(3)));
        // A clean sample resets the streak.
        det.observe_sensors(&sample(0.3, 20.5), &mut sink);
        det.observe_sensors(&sample(0.4, 28.0), &mut sink);
        assert_eq!(sink.len(), 1);
    }
}
