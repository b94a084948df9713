//! Safety monitoring: collisions, minimum gaps and time-to-collision.
//!
//! The paper's attack catalogue repeatedly claims attacks "can lead to ...
//! vehicle collisions" (§V-A.1) and "incidents with other road users"
//! (§V-G). The safety monitor turns those claims into measurable outcomes:
//! every experiment reports collision count, minimum observed gap and
//! minimum time-to-collision (TTC), the standard surrogate safety measures.

/// A recorded collision between adjacent platoon members.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Collision {
    /// Simulation time in seconds.
    pub time: f64,
    /// Index of the striking (rear) vehicle.
    pub rear_index: usize,
    /// Relative speed at impact in m/s.
    pub impact_speed: f64,
}

/// Computes time-to-collision for a follower: `gap / closing_speed`.
///
/// Returns `None` when the vehicles are separating or tracking at equal
/// speed (TTC is infinite / undefined).
///
/// # Examples
///
/// ```
/// use platoon_dynamics::safety::time_to_collision;
///
/// assert_eq!(time_to_collision(20.0, -4.0), Some(5.0));
/// assert_eq!(time_to_collision(20.0, 1.0), None);
/// ```
pub fn time_to_collision(gap: f64, range_rate: f64) -> Option<f64> {
    if range_rate >= -1e-9 {
        return None;
    }
    Some((gap / -range_rate).max(0.0))
}

/// Accumulating safety monitor for one platoon run.
#[derive(Clone, Debug)]
pub struct SafetyMonitor {
    /// All collisions observed (at most one recorded per follower).
    pub collisions: Vec<Collision>,
    /// Minimum bumper gap ever observed, per follower index (1-based platoon
    /// index; entry 0 corresponds to the first follower).
    pub min_gaps: Vec<f64>,
    /// Minimum finite TTC ever observed across the platoon.
    pub min_ttc: f64,
    collided: Vec<bool>,
}

impl SafetyMonitor {
    /// A monitor for a platoon with `followers` following vehicles.
    pub fn new(followers: usize) -> Self {
        SafetyMonitor {
            collisions: Vec::new(),
            min_gaps: vec![f64::INFINITY; followers],
            min_ttc: f64::INFINITY,
            collided: vec![false; followers],
        }
    }

    /// Records one step of observations for follower `follower_idx`
    /// (0 = first follower, i.e. platoon index 1).
    ///
    /// `gap` is the bumper-to-bumper gap to the predecessor; `range_rate`
    /// is its derivative (negative = closing).
    pub fn observe(&mut self, time: f64, follower_idx: usize, gap: f64, range_rate: f64) {
        if follower_idx >= self.min_gaps.len() {
            return;
        }
        self.min_gaps[follower_idx] = self.min_gaps[follower_idx].min(gap);
        if let Some(ttc) = time_to_collision(gap.max(0.0), range_rate) {
            self.min_ttc = self.min_ttc.min(ttc);
        }
        if gap <= 0.0 && !self.collided[follower_idx] {
            self.collided[follower_idx] = true;
            self.collisions.push(Collision {
                time,
                rear_index: follower_idx + 1,
                impact_speed: -range_rate.min(0.0),
            });
        }
    }

    /// Number of collisions recorded.
    pub fn collision_count(&self) -> usize {
        self.collisions.len()
    }

    /// The smallest gap observed anywhere in the platoon.
    pub fn global_min_gap(&self) -> f64 {
        self.min_gaps.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Whether the run completed with no collision.
    pub fn is_collision_free(&self) -> bool {
        self.collisions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ttc_basic() {
        assert_eq!(time_to_collision(10.0, -2.0), Some(5.0));
        assert_eq!(time_to_collision(10.0, 0.0), None);
        assert_eq!(time_to_collision(10.0, 3.0), None);
    }

    #[test]
    fn ttc_zero_gap_closing() {
        assert_eq!(time_to_collision(0.0, -1.0), Some(0.0));
    }

    #[test]
    fn monitor_records_min_gap() {
        let mut m = SafetyMonitor::new(2);
        m.observe(0.0, 0, 10.0, 0.0);
        m.observe(1.0, 0, 4.0, 0.0);
        m.observe(2.0, 0, 7.0, 0.0);
        m.observe(0.0, 1, 9.0, 0.0);
        assert_eq!(m.min_gaps[0], 4.0);
        assert_eq!(m.min_gaps[1], 9.0);
        assert_eq!(m.global_min_gap(), 4.0);
    }

    #[test]
    fn monitor_records_collision_once() {
        let mut m = SafetyMonitor::new(1);
        m.observe(1.0, 0, 0.5, -3.0);
        assert!(m.is_collision_free());
        m.observe(2.0, 0, -0.1, -3.0);
        m.observe(2.1, 0, -0.5, -3.0);
        assert_eq!(m.collision_count(), 1);
        let c = m.collisions[0];
        assert_eq!(c.rear_index, 1);
        assert!((c.impact_speed - 3.0).abs() < 1e-12);
        assert_eq!(c.time, 2.0);
    }

    #[test]
    fn monitor_tracks_min_ttc() {
        let mut m = SafetyMonitor::new(1);
        m.observe(0.0, 0, 20.0, -2.0); // TTC 10
        m.observe(1.0, 0, 6.0, -3.0); // TTC 2
        m.observe(2.0, 0, 10.0, 1.0); // separating: no TTC
        assert!((m.min_ttc - 2.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_follower_ignored() {
        let mut m = SafetyMonitor::new(1);
        m.observe(0.0, 5, -1.0, -10.0);
        assert!(m.is_collision_free());
    }

    #[test]
    fn fresh_monitor_is_clean() {
        let m = SafetyMonitor::new(3);
        assert!(m.is_collision_free());
        assert!(m.min_ttc.is_infinite());
        assert!(m.global_min_gap().is_infinite());
    }
}
