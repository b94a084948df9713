//! Consensus-based platoon controller (distributed control with a
//! leader-plus-predecessor information graph).
//!
//! This is the controller family used by the distributed secure platoon
//! control literature the paper cites for DoS resilience (Zhang et al. \[33\]):
//! each vehicle drives a weighted disagreement term toward zero with respect
//! to every neighbour it can hear. Losing a neighbour (jamming, DoS) removes
//! a term rather than an entire control mode, which is why consensus
//! controllers degrade more gracefully under availability attacks — a shape
//! the F2/F4 experiments demonstrate.
//!
//! ```text
//! u_i = − Σ_{j ∈ N(i)}  w_j · [ (x_i − x_j + d_ij) + γ·(v_i − v_j) ]
//! ```

use crate::controller::{ControlContext, LongitudinalController};

/// Consensus controller over the {predecessor, leader} neighbour set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConsensusController {
    /// Position-disagreement gain (per neighbour).
    pub k_pos: f64,
    /// Velocity-disagreement coupling γ.
    pub gamma: f64,
    /// Weight on the predecessor term.
    pub w_pred: f64,
    /// Weight on the leader term.
    pub w_leader: f64,
}

impl Default for ConsensusController {
    fn default() -> Self {
        ConsensusController {
            k_pos: 0.1,
            gamma: 3.0,
            w_pred: 1.0,
            w_leader: 0.6,
        }
    }
}

impl LongitudinalController for ConsensusController {
    fn command(&mut self, ctx: &ControlContext) -> f64 {
        let mut u = 0.0;
        let mut heard_any = false;

        if let Some(p) = ctx.predecessor {
            // Desired offset to the predecessor's front bumper.
            let d = ctx.desired_gap + p.length;
            let pos_err = ctx.ego.position - (p.position - d);
            u -= self.w_pred * self.k_pos * (pos_err + self.gamma * (ctx.ego.speed - p.speed));
            heard_any = true;
        }
        if let Some(l) = ctx.leader {
            let pos_err = ctx.ego.position - (l.position - ctx.desired_offset_from_leader);
            u -= self.w_leader * self.k_pos * (pos_err + self.gamma * (ctx.ego.speed - l.speed));
            heard_any = true;
        }
        if !heard_any {
            // Fall back to radar-only gap hold if possible, else coast.
            if let Some(r) = ctx.radar {
                return 0.2 * (r.range - ctx.desired_gap) + 0.5 * r.range_rate;
            }
            return 0.0;
        }
        u
    }

    fn clone_box(&self) -> Box<dyn LongitudinalController> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{test_context, CommPeer};

    #[test]
    fn equilibrium_zero_command() {
        let mut c = ConsensusController::default();
        let ctx = test_context();
        assert!(c.command(&ctx).abs() < 1e-9);
    }

    #[test]
    fn lagging_behind_accelerates() {
        let mut c = ConsensusController::default();
        let mut ctx = test_context();
        ctx.ego.position = -5.0; // 5 m behind where it should be
        assert!(c.command(&ctx) > 0.0);
    }

    #[test]
    fn running_ahead_brakes() {
        let mut c = ConsensusController::default();
        let mut ctx = test_context();
        ctx.ego.position = 5.0;
        assert!(c.command(&ctx) < 0.0);
    }

    #[test]
    fn losing_leader_still_controls_via_predecessor() {
        let mut c = ConsensusController::default();
        let mut ctx = test_context();
        ctx.leader = None;
        ctx.ego.position = -5.0;
        assert!(c.command(&ctx) > 0.0);
    }

    #[test]
    fn losing_all_comm_falls_back_to_radar() {
        let mut c = ConsensusController::default();
        let mut ctx = test_context();
        ctx.leader = None;
        ctx.predecessor = None;
        // Radar says gap equals desired: no command.
        assert!(c.command(&ctx).abs() < 1e-9);
        ctx.radar = None;
        assert_eq!(c.command(&ctx), 0.0);
    }

    #[test]
    fn speed_disagreement_damps() {
        let mut c = ConsensusController::default();
        let mut ctx = test_context();
        ctx.predecessor = Some(CommPeer {
            speed: 18.0, // slower predecessor
            ..ctx.predecessor.unwrap()
        });
        assert!(c.command(&ctx) < 0.0);
    }
}
