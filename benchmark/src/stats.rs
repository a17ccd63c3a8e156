//! Order statistics: the median, the tail-percentile rule, and the
//! quartile spread the acceptance check uses.

/// Median of `values` (mean of the middle two for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `values`.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p as usize * v.len()).div_ceil(100).clamp(1, v.len());
    v[rank - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn samples_beyond(n: usize, p: u32) -> usize {
    if n == 0 {
        return 0;
    }
    n - (p as usize * n).div_ceil(100).clamp(1, n)
}

/// The highest of p99/p95/p90/p75/p50 that still has at least ten samples
/// beyond it — the rule a workload's fixed tail percentile must satisfy.
pub fn highest_resolved_percentile(n: usize) -> u32 {
    [99, 95, 90, 75]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
        .unwrap_or(50)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the exclusive method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the median —
/// the spread each end-to-end metric must keep under its bound.
pub fn quartile_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let q = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q[2] - q[0]) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99), 99.0);
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(1000, 99), 10);
        assert_eq!(samples_beyond(999, 99), 9);
        assert_eq!(highest_resolved_percentile(1000), 99);
        assert_eq!(highest_resolved_percentile(999), 95);
        assert_eq!(highest_resolved_percentile(200), 95);
        assert_eq!(highest_resolved_percentile(199), 90);
        assert_eq!(highest_resolved_percentile(100), 90);
        assert_eq!(highest_resolved_percentile(42), 75);
        assert_eq!(highest_resolved_percentile(39), 50);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
    }
}
