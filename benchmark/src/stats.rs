//! Order statistics over latency samples and over per-trial values.

/// The `q`-quantile (0 < q ≤ 1) of ascending `sorted` by nearest rank: the
/// smallest sample with at least `q` of the samples at or below it.  No
/// interpolation, so the result is always a latency that was observed.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of per-trial values (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the "exclusive" method): the statistic whoever accepts this
/// benchmark computes over its own runs.  Fewer than two values have no
/// quartiles.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((quartile(1), quartile(3)))
}

/// Interquartile range of per-trial values as a share of their median.  For
/// three trials this is `(max − min) / median`; for five, one slow trial on
/// a noisy host no longer sets it.  0 when the median is 0 (a metric that is
/// 0 on every trial has no spread) and for a single trial.
pub fn spread(values: &[f64]) -> f64 {
    let mid = median(values);
    match quartiles(values) {
        Some((q1, q3)) if mid != 0.0 => (q3 - q1) / mid.abs(),
        _ => 0.0,
    }
}

/// `numerator / denominator`, 0 when nothing was counted.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 0.5), 50);
        assert_eq!(percentile(&samples, 0.99), 99);
        assert_eq!(percentile(&samples, 1.0), 100);
        assert_eq!(percentile(&[7], 0.5), 7);
        assert_eq!(percentile(&[1, 2, 3], 0.5), 2);
        // 200 samples: exactly two lie beyond p99.
        let samples: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile(&samples, 0.99), 198);
    }

    #[test]
    fn median_and_spread_of_trials() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        // Three trials: the quartiles are the extremes.
        assert!((spread(&[90.0, 100.0, 110.0]) - 0.2).abs() < 1e-12);
        // Five trials, as Python's statistics.quantiles([..], n=4) has it:
        // q1 = 1.5, q3 = 4.5 — and one wild trial moves q3 by half its excess.
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        assert!((spread(&[1.0, 2.0, 3.0, 4.0, 5.0]) - 1.0).abs() < 1e-12);
        // Ten: q1 = 2.75, q3 = 8.25.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn ratio_guards_the_empty_case() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
