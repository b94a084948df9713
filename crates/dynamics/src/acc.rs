//! Adaptive Cruise Control with a constant time-gap spacing policy.
//!
//! ACC uses **only the radar** — no V2V communication — which makes it the
//! natural fallback when the wireless channel is jammed or untrusted, and the
//! baseline against which the paper's communication attacks are measured: an
//! attack on beacons cannot touch an ACC platoon, but ACC requires much
//! larger gaps for string stability, surrendering the fuel and road-space
//! benefits platooning exists for (§II-B).

use crate::controller::{ControlContext, LongitudinalController};

/// Constant time-gap ACC.
///
/// Control law (standard CTG form):
///
/// ```text
/// e   = range − (standstill + T·v_ego)
/// u   = k_gap · e + k_rel · range_rate
/// ```
///
/// # Examples
///
/// ```
/// use platoon_dynamics::acc::AccController;
///
/// let acc = AccController::default();
/// // 2 m standstill plus a 1.2 s time gap at 20 m/s.
/// assert!((acc.desired_gap(20.0) - 26.0).abs() < 1e-9);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AccController {
    /// Time gap T in seconds.
    pub time_gap: f64,
    /// Standstill distance in metres.
    pub standstill: f64,
    /// Gain on the spacing error, 1/s².
    pub k_gap: f64,
    /// Gain on the range rate, 1/s.
    pub k_rel: f64,
    /// Command when no target is measurable (free-flow acceleration).
    pub free_flow_accel: f64,
}

impl Default for AccController {
    fn default() -> Self {
        AccController {
            time_gap: 1.2,
            standstill: 2.0,
            k_gap: 0.23,
            // Strong range-rate damping is what makes the constant-time-gap
            // law string stable (Milanés & Shladover's production-ACC gains
            // are in this regime); weak damping amplifies down the string.
            k_rel: 0.8,
            free_flow_accel: 0.0,
        }
    }
}

impl AccController {
    /// ACC with a custom time gap.
    pub fn with_time_gap(time_gap: f64) -> Self {
        AccController {
            time_gap,
            ..Default::default()
        }
    }

    /// Desired gap at a given ego speed.
    pub fn desired_gap(&self, speed: f64) -> f64 {
        self.standstill + self.time_gap * speed
    }
}

impl LongitudinalController for AccController {
    fn command(&mut self, ctx: &ControlContext) -> f64 {
        let Some(radar) = ctx.radar else {
            // Radar blind: hold speed (or gently accelerate in free flow).
            return self.free_flow_accel;
        };
        let e = radar.range - self.desired_gap(ctx.ego.speed);
        self.k_gap * e + self.k_rel * radar.range_rate
    }

    fn clone_box(&self) -> Box<dyn LongitudinalController> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{test_context, RadarReading};

    #[test]
    fn at_desired_gap_and_matched_speed_no_command() {
        let mut acc = AccController::default();
        let mut ctx = test_context();
        ctx.radar = Some(RadarReading {
            range: acc.desired_gap(ctx.ego.speed),
            range_rate: 0.0,
        });
        assert!(acc.command(&ctx).abs() < 1e-12);
    }

    #[test]
    fn too_close_brakes() {
        let mut acc = AccController::default();
        let mut ctx = test_context();
        ctx.radar = Some(RadarReading {
            range: acc.desired_gap(ctx.ego.speed) - 10.0,
            range_rate: 0.0,
        });
        assert!(acc.command(&ctx) < 0.0);
    }

    #[test]
    fn too_far_accelerates() {
        let mut acc = AccController::default();
        let mut ctx = test_context();
        ctx.radar = Some(RadarReading {
            range: acc.desired_gap(ctx.ego.speed) + 10.0,
            range_rate: 0.0,
        });
        assert!(acc.command(&ctx) > 0.0);
    }

    #[test]
    fn closing_target_brakes_harder() {
        let mut acc = AccController::default();
        let mut ctx = test_context();
        let range = acc.desired_gap(ctx.ego.speed);
        ctx.radar = Some(RadarReading {
            range,
            range_rate: -3.0,
        });
        let closing = acc.command(&ctx);
        ctx.radar = Some(RadarReading {
            range,
            range_rate: 0.0,
        });
        let steady = acc.command(&ctx);
        assert!(closing < steady);
    }

    #[test]
    fn radar_blind_returns_free_flow() {
        let mut acc = AccController {
            free_flow_accel: 0.5,
            ..Default::default()
        };
        let mut ctx = test_context();
        ctx.radar = None;
        assert_eq!(acc.command(&ctx), 0.5);
    }

    #[test]
    fn ignores_communication_entirely() {
        // Same radar, wildly different comm data → identical command.
        let mut acc = AccController::default();
        let ctx_a = test_context();
        let mut ctx_b = test_context();
        ctx_b.predecessor = None;
        ctx_b.leader = None;
        assert_eq!(acc.command(&ctx_a), acc.command(&ctx_b));
    }

    #[test]
    fn desired_gap_scales_with_speed() {
        let acc = AccController::with_time_gap(1.5);
        assert!(acc.desired_gap(30.0) > acc.desired_gap(10.0));
        assert!((acc.desired_gap(0.0) - acc.standstill).abs() < 1e-12);
    }
}
