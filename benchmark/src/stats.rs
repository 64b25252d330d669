//! The few statistics the ledger reports: percentiles by nearest rank,
//! medians of per-round values, geometric means over cells, and the
//! quartile spread the acceptance rule is stated in.

/// Nearest-rank percentile of `values` (`p` in `0.0..=1.0`); 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median: the mean of the two middle values for an even count, so the
/// median of per-round values does not jump with the parity of the round
/// count.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Geometric mean of the positive `values`; 0 when there are none.
pub fn geomean(values: &[f64]) -> f64 {
    let positive: Vec<f64> = values.iter().copied().filter(|v| *v > 0.0).collect();
    if positive.is_empty() {
        return 0.0;
    }
    (positive.iter().map(|v| v.ln()).sum::<f64>() / positive.len() as f64).exp()
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles of Python's `statistics.quantiles(values, n=4)`
/// (exclusive method) — the spread the driver accepts a benchmark by.
pub fn quartile_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quantile = |k: usize| -> f64 {
        let n = sorted.len();
        let position = k * (n + 1);
        let j = (position / 4).clamp(1, n - 1);
        let delta = position as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    let mid = median(&sorted);
    if mid == 0.0 {
        0.0
    } else {
        (quantile(3) - quantile(1)) / mid.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.50), 100.0);
        assert_eq!(percentile(&values, 0.95), 190.0);
        assert_eq!(percentile(&values, 0.99), 198.0);
        assert_eq!(percentile(&values, 1.0), 200.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(percentile(&[], 0.95), 0.0);
    }

    #[test]
    fn median_of_passes_ignores_one_disturbed_pass() {
        assert_eq!(median(&[10.0, 11.0, 500.0, 10.5, 10.2]), 10.5);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn geomean_weighs_cells_by_ratio_not_by_size() {
        // A 1 ms cell and a 100 ms cell: halving either moves the geomean
        // by the same factor.
        let base = geomean(&[1.0, 100.0]);
        assert!((base - 10.0).abs() < 1e-9);
        let small_halved = geomean(&[0.5, 100.0]);
        let large_halved = geomean(&[1.0, 50.0]);
        assert!((small_halved - large_halved).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&values) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[4.0, 4.0, 4.0]), 0.0);
    }
}
