//! Exact-sample statistics: every latency is kept as a nanosecond value and
//! sorted at the end, so a percentile is a real sample, never a bucket edge.

/// Collects samples in ascending order, ready for [`percentile`].
pub fn sorted(samples: impl Iterator<Item = u64>) -> Vec<u64> {
    let mut sorted: Vec<u64> = samples.collect();
    sorted.sort_unstable();
    sorted
}

/// The `q` quantile (0.0..=1.0) of ascending `sorted`, nearest-rank: the
/// smallest sample with at least `q` of the samples at or below it. Empty
/// input gives 0.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the `q` quantile's rank — the evidence behind a
/// tail percentile (the choosing-metrics guide asks for at least ten).
pub fn samples_beyond(count: usize, q: f64) -> usize {
    if count == 0 {
        return 0;
    }
    let rank = (q.clamp(0.0, 1.0) * count as f64).ceil() as usize;
    count - rank.clamp(1, count)
}

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for none.
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

/// First and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// acceptance driver uses for its spread.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let only = sorted.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |quarter: usize| {
        let position = quarter * (n + 1);
        let below = (position / 4).clamp(1, n - 1);
        let fraction = position as f64 / 4.0 - below as f64;
        sorted[below - 1] + (sorted[below] - sorted[below - 1]) * fraction
    };
    (at(1), at(3))
}

/// A value reported as the median of its per-slice values, with the slice
/// extremes kept beside it so a reader sees how much the slices disagreed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sliced {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl Sliced {
    pub fn of(per_slice: &[f64]) -> Self {
        Self {
            median: median(per_slice),
            min: per_slice.iter().copied().fold(f64::INFINITY, f64::min),
            max: per_slice.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_on_real_samples() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 0.5), 50);
        assert_eq!(percentile(&samples, 0.99), 99);
        assert_eq!(percentile(&samples, 1.0), 100);
        assert_eq!(percentile(&samples, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.99), 0);
        // 15 µs mean, 4 µs "p99" is the bucket bug this recorder avoids: the
        // p99 of a sample set is never below its median.
        let skewed = [1, 2, 3, 4, 5, 6, 7, 8, 9, 1000];
        assert!(percentile(&skewed, 0.99) >= percentile(&skewed, 0.5));
        assert_eq!(percentile(&skewed, 0.99), 1000);
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        assert_eq!(samples_beyond(100, 0.99), 1);
        assert_eq!(samples_beyond(2_000, 0.99), 20);
        assert_eq!(samples_beyond(2_000, 0.5), 1_000);
        assert_eq!(samples_beyond(0, 0.99), 0);
        assert_eq!(samples_beyond(5, 1.0), 0);
    }

    #[test]
    fn median_and_sliced() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let sliced = Sliced::of(&[10.0, 14.0, 11.0, 12.0]);
        assert_eq!(sliced.median, 11.5);
        assert_eq!(sliced.min, 10.0);
        assert_eq!(sliced.max, 14.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&values);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert!((q1 - 1.5).abs() < 1e-12);
        assert!((q3 - 4.5).abs() < 1e-12);
    }
}
