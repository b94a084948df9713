//! String-stability and oscillation analysis.
//!
//! The paper's replay/FDI sections (§V-A) claim attacks "make the platoon
//! oscillate as members try to position themselves ... based on the
//! information they receive". These metrics quantify that claim:
//!
//! * **String stability** — a platoon is L∞ (or L2) string stable when the
//!   spacing-error signal does not amplify from vehicle `i` to vehicle
//!   `i+1`. Amplification ratios > 1 indicate instability growing down the
//!   string.
//! * **Oscillation energy** — integral of squared spacing error, the
//!   passenger-discomfort proxy.

/// A recorded time series, sampled at a fixed period.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimeSeries {
    /// Sample period in seconds.
    pub dt: f64,
    /// Samples.
    pub values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty series with the given sample period.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive.
    pub fn new(dt: f64) -> Self {
        assert!(dt > 0.0, "dt must be positive");
        TimeSeries {
            dt,
            values: Vec::new(),
        }
    }

    /// Appends a sample.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// L∞ norm: maximum absolute value.
    pub fn linf(&self) -> f64 {
        self.values.iter().fold(0.0, |m, v| m.max(v.abs()))
    }

    /// L2 norm (discrete): `sqrt(Σ v² · dt)`.
    pub fn l2(&self) -> f64 {
        (self.values.iter().map(|v| v * v).sum::<f64>() * self.dt).sqrt()
    }

    /// Mean value.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        if self.values.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        let var = self.values.iter().map(|v| (v - m) * (v - m)).sum::<f64>()
            / (self.values.len() - 1) as f64;
        var.sqrt()
    }

    /// Minimum value (`+∞` when empty).
    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum value (`−∞` when empty).
    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Oscillation energy: `Σ v²·dt` (squared L2).
    pub fn energy(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>() * self.dt
    }

    /// Counts zero crossings — a cheap oscillation-frequency proxy.
    pub fn zero_crossings(&self) -> usize {
        self.values
            .windows(2)
            .filter(|w| (w[0] > 0.0) != (w[1] > 0.0) && w[0] != 0.0)
            .count()
    }
}

/// String-stability verdict over a platoon's spacing-error records.
#[derive(Clone, Debug, PartialEq)]
pub struct StringStabilityReport {
    /// Per-follower L∞ spacing error, ordered front to back (index 0 = first
    /// follower).
    pub linf_errors: Vec<f64>,
    /// Per-follower L2 spacing error.
    pub l2_errors: Vec<f64>,
    /// Consecutive L∞ amplification ratios `e_{i+1}/e_i`.
    pub linf_amplification: Vec<f64>,
    /// Consecutive L2 amplification ratios.
    pub l2_amplification: Vec<f64>,
    /// Total oscillation energy over all followers.
    pub total_energy: f64,
}

impl StringStabilityReport {
    /// Computes the report from per-follower spacing-error series.
    pub fn from_errors(errors: &[TimeSeries]) -> Self {
        let linf_errors: Vec<f64> = errors.iter().map(TimeSeries::linf).collect();
        let l2_errors: Vec<f64> = errors.iter().map(TimeSeries::l2).collect();
        let ratio = |v: &[f64]| -> Vec<f64> {
            v.windows(2)
                .map(|w| if w[0].abs() < 1e-9 { 1.0 } else { w[1] / w[0] })
                .collect()
        };
        StringStabilityReport {
            linf_amplification: ratio(&linf_errors),
            l2_amplification: ratio(&l2_errors),
            total_energy: errors.iter().map(TimeSeries::energy).sum(),
            linf_errors,
            l2_errors,
        }
    }

    /// Whether the platoon is L∞ string stable (no amplification ratio
    /// exceeds `1 + tolerance`).
    pub fn is_string_stable(&self, tolerance: f64) -> bool {
        self.linf_amplification
            .iter()
            .all(|&r| r <= 1.0 + tolerance)
    }

    /// The worst (largest) L∞ amplification ratio, or 1.0 for a platoon of
    /// fewer than two followers.
    pub fn worst_amplification(&self) -> f64 {
        self.linf_amplification
            .iter()
            .copied()
            .fold(1.0_f64, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(vals: &[f64]) -> TimeSeries {
        TimeSeries {
            dt: 0.1,
            values: vals.to_vec(),
        }
    }

    #[test]
    fn norms_of_simple_series() {
        let s = series(&[3.0, -4.0]);
        assert_eq!(s.linf(), 4.0);
        assert!((s.l2() - (25.0_f64 * 0.1).sqrt()).abs() < 1e-12);
        assert!((s.energy() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn mean_and_std() {
        let s = series(&[1.0, 2.0, 3.0]);
        assert!((s.mean() - 2.0).abs() < 1e-12);
        assert!((s.std_dev() - 1.0).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 3.0);
    }

    #[test]
    fn empty_series_edge_cases() {
        let s = TimeSeries::new(0.1);
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.linf(), 0.0);
    }

    #[test]
    fn zero_crossings_counts_sign_changes() {
        let s = series(&[1.0, -1.0, 1.0, 1.0, -2.0]);
        assert_eq!(s.zero_crossings(), 3);
    }

    #[test]
    fn stable_string_detected() {
        // Decreasing errors down the string: amplification < 1.
        let errors = vec![
            series(&[1.0, 0.8]),
            series(&[0.5, 0.4]),
            series(&[0.2, 0.1]),
        ];
        let r = StringStabilityReport::from_errors(&errors);
        assert!(r.is_string_stable(0.01));
        assert!(r.worst_amplification() <= 1.0);
    }

    #[test]
    fn unstable_string_detected() {
        let errors = vec![series(&[0.5]), series(&[1.0]), series(&[2.0])];
        let r = StringStabilityReport::from_errors(&errors);
        assert!(!r.is_string_stable(0.01));
        assert!((r.worst_amplification() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn single_follower_is_trivially_stable() {
        let errors = vec![series(&[5.0])];
        let r = StringStabilityReport::from_errors(&errors);
        assert!(r.is_string_stable(0.0));
        assert_eq!(r.worst_amplification(), 1.0);
    }

    #[test]
    fn zero_error_predecessor_does_not_divide_by_zero() {
        let errors = vec![series(&[0.0]), series(&[1.0])];
        let r = StringStabilityReport::from_errors(&errors);
        assert!(r.linf_amplification[0].is_finite());
    }

    #[test]
    #[should_panic(expected = "dt")]
    fn zero_dt_panics() {
        TimeSeries::new(0.0);
    }
}
