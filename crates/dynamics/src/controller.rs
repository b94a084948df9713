//! The longitudinal controller abstraction shared by all platoon controllers.
//!
//! A controller turns locally sensed data (radar) and communicated data
//! (beacons from the predecessor and the platoon leader) into an acceleration
//! command. The split between *sensed* and *communicated* inputs is the crux
//! of the paper's threat model: communicated inputs travel over the open
//! 802.11p channel and can be replayed, forged or jammed, while sensed inputs
//! can be spoofed only by attacking the sensor itself (§V-G).

use crate::vehicle::VehicleState;

/// Data about a peer vehicle as learned from its beacons.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CommPeer {
    /// Front-bumper position in metres (as claimed in the beacon).
    pub position: f64,
    /// Speed in m/s.
    pub speed: f64,
    /// Acceleration in m/s².
    pub accel: f64,
    /// Vehicle length in metres.
    pub length: f64,
    /// Age of this information in seconds (now − beacon timestamp).
    pub age: f64,
}

/// A radar return from the predecessor.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RadarReading {
    /// Bumper-to-bumper range in metres.
    pub range: f64,
    /// Range rate in m/s (positive when opening).
    pub range_rate: f64,
}

/// Everything a controller may consult when computing its command.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ControlContext {
    /// Control period in seconds.
    pub dt: f64,
    /// Ego vehicle state.
    pub ego: VehicleState,
    /// Index of the ego vehicle in the platoon (0 = leader).
    pub index: usize,
    /// Radar return from the predecessor, if one is in range and the radar
    /// has not been jammed.
    pub radar: Option<RadarReading>,
    /// Most recent predecessor beacon, if any has been received.
    pub predecessor: Option<CommPeer>,
    /// Most recent leader beacon, if any has been received.
    pub leader: Option<CommPeer>,
    /// Desired bumper-to-bumper gap to the predecessor in metres.
    pub desired_gap: f64,
    /// Desired distance from the leader's front bumper to the ego front
    /// bumper (sum of lengths and gaps of all vehicles ahead).
    pub desired_offset_from_leader: f64,
}

impl ControlContext {
    /// Spacing error to the predecessor: measured gap − desired gap.
    ///
    /// Prefers radar range; falls back to communicated position. Returns
    /// `None` when neither source is available (e.g. under jamming with a
    /// failed radar).
    pub fn gap_error(&self) -> Option<f64> {
        self.measured_gap().map(|g| g - self.desired_gap)
    }

    /// Measured bumper-to-bumper gap to the predecessor.
    pub fn measured_gap(&self) -> Option<f64> {
        if let Some(r) = self.radar {
            return Some(r.range);
        }
        self.predecessor
            .map(|p| p.position - p.length - self.ego.position)
    }

    /// Relative speed of the predecessor (v_pred − v_ego).
    pub fn relative_speed(&self) -> Option<f64> {
        if let Some(r) = self.radar {
            return Some(r.range_rate);
        }
        self.predecessor.map(|p| p.speed - self.ego.speed)
    }
}

/// A longitudinal controller: produces an acceleration command each step.
///
/// Implementations are deliberately small state machines; see
/// [`crate::cacc::CaccController`] for the platooning default.
pub trait LongitudinalController: std::fmt::Debug + Send + Sync {
    /// Computes the acceleration command for this control period.
    fn command(&mut self, ctx: &ControlContext) -> f64;

    /// Resets internal state (e.g. after the vehicle leaves a platoon).
    fn reset(&mut self) {}

    /// Clones the controller (including all internal state) into a fresh
    /// box, for engine snapshots.
    fn clone_box(&self) -> Box<dyn LongitudinalController>;
}

impl Clone for Box<dyn LongitudinalController> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Simple speed-tracking cruise controller, used by the platoon leader to
/// follow its speed profile, and by free-driving vehicles.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CruiseController {
    /// Proportional speed gain in 1/s.
    pub gain: f64,
    /// Target speed in m/s.
    pub target_speed: f64,
}

impl CruiseController {
    /// Creates a cruise controller holding `target_speed`.
    pub fn new(target_speed: f64) -> Self {
        CruiseController {
            gain: 0.8,
            target_speed,
        }
    }
}

impl LongitudinalController for CruiseController {
    fn command(&mut self, ctx: &ControlContext) -> f64 {
        self.gain * (self.target_speed - ctx.ego.speed)
    }

    fn clone_box(&self) -> Box<dyn LongitudinalController> {
        Box::new(*self)
    }
}

#[cfg(test)]
pub(crate) fn test_context() -> ControlContext {
    ControlContext {
        dt: 0.01,
        ego: VehicleState {
            position: 0.0,
            speed: 20.0,
            accel: 0.0,
        },
        index: 1,
        radar: Some(RadarReading {
            range: 10.0,
            range_rate: 0.0,
        }),
        predecessor: Some(CommPeer {
            position: 14.5,
            speed: 20.0,
            accel: 0.0,
            length: 4.5,
            age: 0.05,
        }),
        leader: Some(CommPeer {
            position: 14.5,
            speed: 20.0,
            accel: 0.0,
            length: 4.5,
            age: 0.05,
        }),
        desired_gap: 10.0,
        desired_offset_from_leader: 14.5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_error_prefers_radar() {
        let mut ctx = test_context();
        ctx.radar = Some(RadarReading {
            range: 12.0,
            range_rate: 0.0,
        });
        // Comm-implied gap is 14.5 - 4.5 - 0 = 10.0, radar says 12.0.
        assert_eq!(ctx.gap_error(), Some(2.0));
    }

    #[test]
    fn gap_error_falls_back_to_comm() {
        let mut ctx = test_context();
        ctx.radar = None;
        assert_eq!(ctx.gap_error(), Some(0.0));
    }

    #[test]
    fn gap_error_none_when_blind() {
        let mut ctx = test_context();
        ctx.radar = None;
        ctx.predecessor = None;
        assert_eq!(ctx.gap_error(), None);
    }

    #[test]
    fn relative_speed_radar_then_comm() {
        let mut ctx = test_context();
        ctx.radar = Some(RadarReading {
            range: 10.0,
            range_rate: -1.5,
        });
        assert_eq!(ctx.relative_speed(), Some(-1.5));
        ctx.radar = None;
        ctx.predecessor = Some(CommPeer {
            speed: 22.0,
            ..ctx.predecessor.unwrap()
        });
        assert_eq!(ctx.relative_speed(), Some(2.0));
    }

    #[test]
    fn cruise_pushes_toward_target() {
        let mut c = CruiseController::new(25.0);
        let ctx = test_context(); // ego at 20 m/s
        assert!(c.command(&ctx) > 0.0);
        let mut slow = CruiseController::new(15.0);
        assert!(slow.command(&ctx) < 0.0);
    }

    #[test]
    fn cruise_zero_at_target() {
        let mut c = CruiseController::new(20.0);
        let ctx = test_context();
        assert!(c.command(&ctx).abs() < 1e-12);
    }
}
