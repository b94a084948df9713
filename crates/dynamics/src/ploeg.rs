//! Ploeg's time-gap CACC (Ploeg et al., "Design and experimental evaluation
//! of cooperative adaptive cruise control", ITSC 2011) — the second classic
//! platoon controller implemented by Plexe.
//!
//! Unlike the PATH controller it uses a *constant time-gap* spacing policy
//! and only needs the **predecessor's** acceleration (no leader feed), which
//! changes its attack surface: leader-beacon attacks cannot touch it, but
//! predecessor-beacon forgery propagates hop by hop down the string.
//!
//! Control law (first-order command filter):
//!
//! ```text
//! e  = (x_{i−1} − x_i − L_{i−1}) − (r + h·v_i)
//! ė  = (v_{i−1} − v_i) − h·a_i
//! u̇_i = (−u_i + kp·e + kd·ė + u_{i−1}) / h
//! ```

use crate::controller::{ControlContext, LongitudinalController};

/// Ploeg CACC with internal command-filter state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PloegController {
    /// Time gap h in seconds (Ploeg's experiments used 0.5–1.0 s).
    pub time_gap: f64,
    /// Standstill distance r in metres.
    pub standstill: f64,
    /// Proportional gain kp.
    pub kp: f64,
    /// Derivative gain kd.
    pub kd: f64,
    /// Current filtered command u_i (internal state).
    u: f64,
}

impl Default for PloegController {
    fn default() -> Self {
        PloegController {
            time_gap: 0.7,
            standstill: 2.0,
            kp: 0.2,
            kd: 0.7,
            u: 0.0,
        }
    }
}

impl PloegController {
    /// Ploeg CACC with a custom time gap.
    pub fn with_time_gap(time_gap: f64) -> Self {
        PloegController {
            time_gap,
            ..Default::default()
        }
    }

    /// Desired gap at a given ego speed.
    pub fn desired_gap(&self, speed: f64) -> f64 {
        self.standstill + self.time_gap * speed
    }

    /// The current filtered command (exposed for tests and metrics).
    pub fn filtered_command(&self) -> f64 {
        self.u
    }
}

impl LongitudinalController for PloegController {
    fn command(&mut self, ctx: &ControlContext) -> f64 {
        let (gap, rel_speed, pred_accel_cmd) = match (ctx.measured_gap(), ctx.relative_speed()) {
            (Some(g), Some(rs)) => {
                let pa = ctx.predecessor.map(|p| p.accel).unwrap_or(0.0);
                (g, rs, pa)
            }
            _ => {
                // Blind: decay the command toward gentle braking.
                self.u += (-2.0 - self.u) * (ctx.dt / self.time_gap);
                return self.u;
            }
        };

        let e = gap - self.desired_gap(ctx.ego.speed);
        let e_dot = rel_speed - self.time_gap * ctx.ego.accel;
        let u_dot = (-self.u + self.kp * e + self.kd * e_dot + pred_accel_cmd) / self.time_gap;
        self.u += u_dot * ctx.dt;
        self.u
    }

    fn reset(&mut self) {
        self.u = 0.0;
    }

    fn clone_box(&self) -> Box<dyn LongitudinalController> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{test_context, CommPeer, RadarReading};

    fn ctx_at_equilibrium(c: &PloegController) -> crate::controller::ControlContext {
        let mut ctx = test_context();
        ctx.radar = Some(RadarReading {
            range: c.desired_gap(ctx.ego.speed),
            range_rate: 0.0,
        });
        ctx
    }

    #[test]
    fn equilibrium_holds_zero_command() {
        let mut c = PloegController::default();
        let ctx = ctx_at_equilibrium(&c);
        for _ in 0..100 {
            c.command(&ctx);
        }
        assert!(c.filtered_command().abs() < 1e-9);
    }

    #[test]
    fn too_close_converges_to_braking() {
        let mut c = PloegController::default();
        let mut ctx = ctx_at_equilibrium(&c);
        ctx.radar = Some(RadarReading {
            range: c.desired_gap(ctx.ego.speed) - 8.0,
            range_rate: 0.0,
        });
        let mut u = 0.0;
        for _ in 0..200 {
            u = c.command(&ctx);
        }
        assert!(u < -0.5, "should brake when too close, got {u}");
    }

    #[test]
    fn predecessor_accel_feeds_forward() {
        let mut c = PloegController::default();
        let mut ctx = ctx_at_equilibrium(&c);
        ctx.predecessor = Some(CommPeer {
            accel: 2.0,
            ..ctx.predecessor.unwrap()
        });
        let mut u = 0.0;
        for _ in 0..500 {
            u = c.command(&ctx);
        }
        assert!(u > 1.0, "feedforward should pull command up, got {u}");
    }

    #[test]
    fn leader_beacon_is_ignored() {
        let mut a = PloegController::default();
        let mut b = PloegController::default();
        let ctx1 = ctx_at_equilibrium(&a);
        let mut ctx2 = ctx_at_equilibrium(&b);
        ctx2.leader = Some(CommPeer {
            accel: -9.0,
            speed: 0.0,
            ..ctx2.leader.unwrap()
        });
        for _ in 0..50 {
            assert_eq!(a.command(&ctx1), b.command(&ctx2));
        }
    }

    #[test]
    fn blind_decays_to_gentle_brake() {
        let mut c = PloegController::default();
        let mut ctx = test_context();
        ctx.radar = None;
        ctx.predecessor = None;
        let mut u = 0.0;
        for _ in 0..2000 {
            u = c.command(&ctx);
        }
        assert!(
            (u - (-2.0)).abs() < 0.05,
            "blind command should settle at -2, got {u}"
        );
    }

    #[test]
    fn reset_clears_state() {
        let mut c = PloegController::default();
        let mut ctx = ctx_at_equilibrium(&c);
        ctx.radar = Some(RadarReading {
            range: 0.0,
            range_rate: -5.0,
        });
        for _ in 0..100 {
            c.command(&ctx);
        }
        assert!(c.filtered_command().abs() > 0.0);
        c.reset();
        assert_eq!(c.filtered_command(), 0.0);
    }
}
