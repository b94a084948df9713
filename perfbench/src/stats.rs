//! Order statistics for the benchmark's own reporting.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so a spread printed here matches the one a
//! reader recomputes from a set of result lines.

/// Sorted copy of `values`; panics on NaN, which no timing can produce.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    v
}

/// Median of a non-empty sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let v = sorted(values);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// First and third quartiles by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let v = sorted(values);
    let len = v.len() as i64;
    let m = len + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m - j * 4) as f64;
        (v[j as usize - 1] * (4.0 - delta) + v[j as usize] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The highest whole percentile of `values` that leaves at least ten
/// samples strictly above its rank, capped at 99, as `(percentile, value)`.
/// `None` with fewer than twenty samples, where even the median would rest
/// on under ten. The value is the nearest-rank order statistic.
pub fn tail_percentile(values: &[f64]) -> Option<(u32, f64)> {
    const BEYOND: usize = 10;
    let n = values.len();
    if n < 2 * BEYOND {
        return None;
    }
    let v = sorted(values);
    // Nearest rank of percentile p is ceil(p * n / 100); at least BEYOND
    // samples must sit above it.
    let rank = |p: u32| (p as usize * n).div_ceil(100);
    let p = (50..=99).rev().find(|&p| n - rank(p) >= BEYOND)?;
    Some((p, v[rank(p) - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), (1.5, 4.5));
        // Two samples extrapolate: quantiles([1, 2]) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 1000 samples: p99 sits at rank 990, exactly ten above it.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand), Some((99, 990.0)));
        // 999 samples: p99 would leave only nine above, so p98 it is.
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        let (p, value) = tail_percentile(&short).unwrap();
        assert_eq!(p, 98);
        assert_eq!(short.iter().filter(|&&x| x > value).count(), 19);
        // 40 samples: p75 leaves exactly ten above.
        let forty: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail_percentile(&forty), Some((75, 30.0)));
        // Under twenty samples no percentile qualifies.
        let few: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail_percentile(&few), None);
    }

    #[test]
    fn tail_percentile_always_leaves_ten_beyond() {
        for n in 20..1200 {
            let v: Vec<f64> = (0..n).map(|i| f64::from(i as u32)).collect();
            let (p, value) = tail_percentile(&v).unwrap();
            let beyond = v.iter().filter(|&&x| x > value).count();
            assert!(beyond >= 10, "n={n} p={p} leaves {beyond}");
            assert!((50..=99).contains(&p));
        }
    }
}
