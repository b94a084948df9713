//! Cooperative Adaptive Cruise Control — the PATH/Rajamani constant-spacing
//! controller used by Plexe \[39\], the platform the paper names as the
//! standard platooning digital twin (§VI-B.5).
//!
//! CACC fuses radar ranging with V2V beacons from the predecessor *and* the
//! platoon leader. The leader feed-forward is what allows string-stable
//! operation at constant (speed-independent) gaps of a few metres — and it is
//! exactly this dependence on wireless data that the paper's attack catalogue
//! exploits: replayed or forged beacons enter this control law directly.
//!
//! Control law (Rajamani, with damping ratio ξ = 1):
//!
//! ```text
//! e_i = x_i − x_{i−1} + L_{i−1} + gap_des          (negative spacing error)
//! u_i = (1−C1)·a_{i−1} + C1·a_0
//!       − (2ξ−C1(ξ+√(ξ²−1)))·ω_n·(v_i − v_{i−1})
//!       − C1·(ξ+√(ξ²−1))·ω_n·(v_i − v_0)
//!       − ω_n²·e_i
//! ```

use crate::controller::{ControlContext, LongitudinalController};

/// PATH CACC controller parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CaccController {
    /// Leader weighting C1 ∈ (0, 1); Plexe default 0.5.
    pub c1: f64,
    /// Bandwidth ω_n in rad/s; Plexe default 0.2.
    pub omega_n: f64,
    /// Damping ratio ξ; Plexe default 1.0 (critical damping).
    pub xi: f64,
    /// Maximum acceptable beacon age in seconds before the communicated data
    /// is considered lost and the controller degrades (see
    /// [`CaccController::mode`]).
    pub max_beacon_age: f64,
    /// Fallback command used in degraded mode when even the radar is blind.
    pub blind_fallback_brake: f64,
    /// Radar-floor trigger: when the kinematic deceleration required to stop
    /// short of the predecessor exceeds this (m/s²), the floor engages. Set
    /// high enough that nominal cooperative transients (required decel well
    /// under 1 m/s²) never touch it.
    pub aeb_trigger_decel: f64,
    /// Safety factor applied to the required deceleration once triggered.
    pub aeb_gain: f64,
    /// Standstill margin (m) the floor stops short of, so the brake engages
    /// before the bumpers meet rather than exactly at contact.
    pub aeb_standstill: f64,
}

impl Default for CaccController {
    fn default() -> Self {
        CaccController {
            c1: 0.5,
            omega_n: 0.2,
            xi: 1.0,
            max_beacon_age: 0.5,
            blind_fallback_brake: -2.0,
            aeb_trigger_decel: 2.0,
            aeb_gain: 1.2,
            aeb_standstill: 2.0,
        }
    }
}

/// Why (if at all) the controller is operating in degraded mode this step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CaccMode {
    /// Full cooperative control: fresh beacons from predecessor and leader.
    Cooperative,
    /// Beacons stale/missing; fell back to radar-only gap control.
    RadarFallback,
    /// No usable information at all; applying the blind fallback brake.
    Blind,
}

impl CaccController {
    /// CACC with custom leader weighting and bandwidth.
    pub fn new(c1: f64, omega_n: f64) -> Self {
        CaccController {
            c1,
            omega_n,
            ..Default::default()
        }
    }

    /// Classifies the operating mode for a context (used by metrics and the
    /// graceful-degradation ablation in experiment F2).
    pub fn mode(&self, ctx: &ControlContext) -> CaccMode {
        let fresh = |age: f64| age <= self.max_beacon_age;
        let comm_ok = ctx.predecessor.is_some_and(|p| fresh(p.age))
            && ctx.leader.is_some_and(|l| fresh(l.age));
        if comm_ok {
            CaccMode::Cooperative
        } else if ctx.radar.is_some() {
            CaccMode::RadarFallback
        } else {
            CaccMode::Blind
        }
    }

    fn cooperative_command(&self, ctx: &ControlContext) -> f64 {
        let pred = ctx.predecessor.expect("checked by mode()");
        let lead = ctx.leader.expect("checked by mode()");

        // Spacing error: prefer radar range (local, attack-resistant) over
        // communicated position, exactly as Plexe does.
        let gap = ctx
            .measured_gap()
            .unwrap_or(pred.position - pred.length - ctx.ego.position);
        let e = ctx.desired_gap - gap; // positive when too close

        let xi_term = self.xi + (self.xi * self.xi - 1.0).max(0.0).sqrt();
        let a3 = -(2.0 * self.xi - self.c1 * xi_term) * self.omega_n;
        let a4 = -self.c1 * xi_term * self.omega_n;
        let a5 = -self.omega_n * self.omega_n;

        (1.0 - self.c1) * pred.accel
            + self.c1 * lead.accel
            + a3 * (ctx.ego.speed - pred.speed)
            + a4 * (ctx.ego.speed - lead.speed)
            + a5 * e
    }

    fn radar_fallback_command(&self, ctx: &ControlContext) -> f64 {
        // Degrade to an ACC-like law on the radar with a conservative gap:
        // same gains as the default ACC, constant-time-gap policy.
        let radar = ctx.radar.expect("checked by mode()");
        let desired = 2.0 + 1.2 * ctx.ego.speed;
        0.23 * (radar.range - desired) + 0.8 * radar.range_rate
    }

    /// AEB-like radar floor: communicated feedforward must never out-vote a
    /// radar that shows the gap collapsing. When the closing rate demands more
    /// deceleration than [`Self::aeb_trigger_decel`] to stop short of the
    /// predecessor, the command is floored at `aeb_gain` times that required
    /// deceleration (the vehicle model clamps to its physical limit). Inert in
    /// nominal operation, where the required deceleration stays well below the
    /// trigger.
    fn radar_safety_floor(&self, ctx: &ControlContext, u: f64) -> f64 {
        let Some(radar) = ctx.radar else { return u };
        if radar.range_rate >= -0.1 {
            return u;
        }
        let margin = (radar.range - self.aeb_standstill).max(0.1);
        let required = radar.range_rate * radar.range_rate / (2.0 * margin);
        if required > self.aeb_trigger_decel {
            u.min(-self.aeb_gain * required)
        } else {
            u
        }
    }
}

impl LongitudinalController for CaccController {
    fn command(&mut self, ctx: &ControlContext) -> f64 {
        let u = match self.mode(ctx) {
            CaccMode::Cooperative => self.cooperative_command(ctx),
            CaccMode::RadarFallback => self.radar_fallback_command(ctx),
            CaccMode::Blind => self.blind_fallback_brake,
        };
        self.radar_safety_floor(ctx, u)
    }

    fn clone_box(&self) -> Box<dyn LongitudinalController> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{test_context, CommPeer, RadarReading};

    #[test]
    fn equilibrium_produces_no_command() {
        let mut cacc = CaccController::default();
        let ctx = test_context(); // gap = desired, all speeds equal, no accel
        assert!(cacc.command(&ctx).abs() < 1e-9);
    }

    #[test]
    fn follows_leader_acceleration_feedforward() {
        let mut cacc = CaccController::default();
        let mut ctx = test_context();
        ctx.leader = Some(CommPeer {
            accel: 1.0,
            ..ctx.leader.unwrap()
        });
        ctx.predecessor = Some(CommPeer {
            accel: 1.0,
            ..ctx.predecessor.unwrap()
        });
        let u = cacc.command(&ctx);
        assert!((u - 1.0).abs() < 0.2, "feedforward should dominate: {u}");
    }

    #[test]
    fn too_close_brakes() {
        let mut cacc = CaccController::default();
        let mut ctx = test_context();
        ctx.radar = Some(RadarReading {
            range: ctx.desired_gap - 5.0,
            range_rate: 0.0,
        });
        assert!(cacc.command(&ctx) < 0.0);
    }

    #[test]
    fn stale_beacons_trigger_radar_fallback() {
        let cacc = CaccController::default();
        let mut ctx = test_context();
        ctx.predecessor = Some(CommPeer {
            age: 2.0,
            ..ctx.predecessor.unwrap()
        });
        assert_eq!(cacc.mode(&ctx), CaccMode::RadarFallback);
    }

    #[test]
    fn missing_leader_beacon_triggers_fallback() {
        let cacc = CaccController::default();
        let mut ctx = test_context();
        ctx.leader = None;
        assert_eq!(cacc.mode(&ctx), CaccMode::RadarFallback);
    }

    #[test]
    fn blind_mode_brakes() {
        let mut cacc = CaccController::default();
        let mut ctx = test_context();
        ctx.radar = None;
        ctx.predecessor = None;
        ctx.leader = None;
        assert_eq!(cacc.mode(&ctx), CaccMode::Blind);
        assert_eq!(cacc.command(&ctx), cacc.blind_fallback_brake);
    }

    #[test]
    fn forged_predecessor_accel_shifts_command() {
        // The attack surface: a forged beacon with a large phantom
        // deceleration directly drags the command down.
        let mut cacc = CaccController::default();
        let honest = cacc.command(&test_context());
        let mut ctx = test_context();
        ctx.predecessor = Some(CommPeer {
            accel: -5.0,
            ..ctx.predecessor.unwrap()
        });
        let forged = cacc.command(&ctx);
        assert!(
            forged < honest - 2.0,
            "forged accel must propagate: {forged}"
        );
    }

    #[test]
    fn radar_fallback_behaves_like_acc() {
        let mut cacc = CaccController::default();
        let mut ctx = test_context();
        ctx.predecessor = None;
        ctx.leader = None;
        // At the (larger) ACC desired gap the fallback command is ~0.
        ctx.radar = Some(RadarReading {
            range: 2.0 + 1.2 * ctx.ego.speed,
            range_rate: 0.0,
        });
        assert!(cacc.command(&ctx).abs() < 1e-9);
    }
}
