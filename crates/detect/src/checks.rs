//! Pure plausibility primitives — the one detection vocabulary shared by
//! the streaming detectors here and the `platoon-defense` mechanisms
//! (REPLACE-style trust, VPD-ADA) that predate this crate.
//!
//! Everything in this module is a pure function of its inputs: no state, no
//! randomness, no world access. Detectors and defenses layer their own
//! state (reputations, violation debouncing, fusion scores) on top.

/// Physical-plausibility limits for beacon claims.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KinematicLimits {
    /// Maximum physically plausible acceleration magnitude, m/s².
    pub max_accel: f64,
    /// Position-consistency tolerance in metres beyond dead-reckoning.
    /// The effective bound grows by 2 m per second of claim gap.
    pub position_tolerance: f64,
    /// Maximum plausible road speed, m/s (trucks; generous).
    pub max_speed: f64,
    /// If set: tolerated gap between the *claimed* acceleration and the
    /// acceleration *implied* by consecutive speed claims, m/s². `None`
    /// disables the cross-check (the legacy trust-manager behaviour).
    pub accel_mismatch: Option<f64>,
}

impl Default for KinematicLimits {
    fn default() -> Self {
        KinematicLimits {
            max_accel: 10.0,
            position_tolerance: 8.0,
            max_speed: 60.0,
            accel_mismatch: Some(2.5),
        }
    }
}

/// One kinematic claim extracted from a beacon.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClaimSnapshot {
    /// Reception time of the claim, seconds.
    pub time: f64,
    /// Claimed road position, metres.
    pub position: f64,
    /// Claimed speed, m/s.
    pub speed: f64,
    /// Claimed acceleration, m/s².
    pub accel: f64,
}

/// A way a claim (or a claim pair) violates physical plausibility.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClaimFault {
    /// The claimed acceleration magnitude exceeds the physical limit.
    ImpossibleAccel,
    /// The claimed speed exceeds any plausible road speed (or is negative).
    ImpossibleSpeed,
    /// Consecutive speed claims imply an acceleration beyond the limit.
    ImpliedAccel,
    /// The claimed position teleports beyond dead-reckoning tolerance.
    Teleport,
    /// Two claims for the same instant disagree materially — the signature
    /// of a second transmitter using the same identity (impersonation).
    Contradiction,
    /// The claimed acceleration disagrees with the acceleration implied by
    /// the sender's own consecutive speed claims.
    AccelMismatch,
}

/// Evaluates a claim (optionally against the previous claim from the same
/// identity) and returns every plausibility fault, in a fixed order.
///
/// With `prev = None` only the single-claim checks run (acceleration and
/// speed limits). The pairwise checks reproduce the REPLACE-style trust
/// manager's consistency rules: dead-reckoned teleport, implied
/// acceleration, and the same-instant contradiction test.
pub fn claim_faults(
    prev: Option<ClaimSnapshot>,
    next: ClaimSnapshot,
    limits: &KinematicLimits,
) -> Vec<ClaimFault> {
    let mut faults = Vec::new();
    if next.accel.abs() > limits.max_accel {
        faults.push(ClaimFault::ImpossibleAccel);
    }
    if next.speed > limits.max_speed || next.speed < 0.0 {
        faults.push(ClaimFault::ImpossibleSpeed);
    }
    let Some(prev) = prev else {
        return faults;
    };
    let dt = next.time - prev.time;
    if dt > 1e-6 {
        let predicted = prev.position + prev.speed * dt;
        if (next.position - predicted).abs() > limits.position_tolerance + 2.0 * dt {
            faults.push(ClaimFault::Teleport);
        }
        let implied = (next.speed - prev.speed) / dt;
        if implied.abs() > limits.max_accel {
            faults.push(ClaimFault::ImpliedAccel);
        }
        if let Some(tol) = limits.accel_mismatch {
            // The claim stream's own story must cohere: the acceleration the
            // sender *claims* should match what its speed claims *imply*.
            // (Insider FDI with a plausible-magnitude accel lie trips this.)
            let claimed_mean = 0.5 * (prev.accel + next.accel);
            if (claimed_mean - implied).abs() > tol {
                faults.push(ClaimFault::AccelMismatch);
            }
        }
    } else if (next.speed - prev.speed).abs() > 1.0 || (next.position - prev.position).abs() > 5.0 {
        faults.push(ClaimFault::Contradiction);
    }
    faults
}

/// Whether a claimed gap/closing-rate pair disagrees with the observer's
/// own ranging beyond tolerance — the VPD-ADA ranging cross-check.
pub fn ranging_mismatch(
    claimed_gap: f64,
    measured_gap: f64,
    claimed_rate: f64,
    measured_rate: f64,
    gap_tolerance: f64,
    rate_tolerance: f64,
) -> bool {
    (claimed_gap - measured_gap).abs() > gap_tolerance
        || (claimed_rate - measured_rate).abs() > rate_tolerance
}

/// Whether a received signal strength is inconsistent with the power
/// expected for the position the frame's content claims (Convoy-style
/// physical context verification).
pub fn rssi_anomaly(expected_dbm: f64, observed_dbm: f64, tolerance_db: f64) -> bool {
    (observed_dbm - expected_dbm).abs() > tolerance_db
}

#[cfg(test)]
mod tests {
    use super::*;

    fn claim(time: f64, position: f64, speed: f64, accel: f64) -> ClaimSnapshot {
        ClaimSnapshot {
            time,
            position,
            speed,
            accel,
        }
    }

    #[test]
    fn clean_stream_has_no_faults() {
        let limits = KinematicLimits::default();
        let a = claim(0.0, 100.0, 25.0, 0.0);
        let b = claim(0.1, 102.5, 25.0, 0.0);
        assert!(claim_faults(None, a, &limits).is_empty());
        assert!(claim_faults(Some(a), b, &limits).is_empty());
    }

    #[test]
    fn impossible_accel_flags_without_history() {
        let limits = KinematicLimits::default();
        let faults = claim_faults(None, claim(0.0, 0.0, 25.0, -15.0), &limits);
        assert_eq!(faults, vec![ClaimFault::ImpossibleAccel]);
    }

    #[test]
    fn teleport_and_implied_accel_flag_between_claims() {
        let limits = KinematicLimits::default();
        let a = claim(0.0, 100.0, 25.0, 0.0);
        let tele = claim(0.1, 160.0, 25.0, 0.0);
        assert!(claim_faults(Some(a), tele, &limits).contains(&ClaimFault::Teleport));
        let jump = claim(0.1, 102.5, 28.0, 0.0);
        assert!(claim_faults(Some(a), jump, &limits).contains(&ClaimFault::ImpliedAccel));
    }

    #[test]
    fn same_instant_contradiction() {
        let limits = KinematicLimits::default();
        let a = claim(5.0, 100.0, 25.0, 0.0);
        let b = claim(5.0, 100.0, 21.0, 0.0);
        assert_eq!(
            claim_faults(Some(a), b, &limits),
            vec![ClaimFault::Contradiction]
        );
        // Near-identical repeat is fine (duplicate delivery).
        let c = claim(5.0, 100.2, 25.1, 0.0);
        assert!(claim_faults(Some(a), c, &limits).is_empty());
    }

    #[test]
    fn accel_mismatch_catches_plausible_magnitude_lies() {
        let limits = KinematicLimits::default();
        // Claimed braking at -4 while the speed story is flat: the classic
        // insider-FDI lie with every individual value in range.
        let a = claim(0.0, 100.0, 25.0, -4.0);
        let b = claim(0.1, 102.5, 25.0, -4.0);
        assert_eq!(
            claim_faults(Some(a), b, &limits),
            vec![ClaimFault::AccelMismatch]
        );
        // The legacy trust profile disables the cross-check.
        let legacy = KinematicLimits {
            accel_mismatch: None,
            ..Default::default()
        };
        assert!(claim_faults(Some(a), b, &legacy).is_empty());
    }

    #[test]
    fn ranging_and_rssi_primitives() {
        assert!(!ranging_mismatch(10.0, 10.5, 0.0, 0.2, 6.0, 3.0));
        assert!(ranging_mismatch(18.0, 10.0, 0.0, 0.0, 6.0, 3.0));
        assert!(ranging_mismatch(10.0, 10.0, 5.0, 0.0, 6.0, 3.0));
        assert!(!rssi_anomaly(-70.0, -75.0, 18.0));
        assert!(rssi_anomaly(-70.0, -95.0, 18.0));
    }
}
