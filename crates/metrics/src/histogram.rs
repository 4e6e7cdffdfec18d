//! A small latency recorder used for the response-time experiments
//! (Figure 7) and for per-transaction latency reporting in the harness.

use std::time::Duration;

/// Log-scaled latency histogram with power-of-two microsecond buckets.
///
/// Good enough for the paper's reporting needs (average and tail response
/// times); not a general-purpose HDR histogram.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    total_micros: u128,
    min_micros: u64,
    max_micros: u64,
}

const BUCKETS: usize = 40;

/// Index of the power-of-two bucket holding `value` (0 and 1 share bucket
/// 1) — the single bucketing scheme both histograms use.
fn bucket_of(value: u64) -> usize {
    (64 - value.max(1).leading_zeros() as usize).min(BUCKETS - 1)
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: vec![0; BUCKETS],
            count: 0,
            total_micros: 0,
            min_micros: u64::MAX,
            max_micros: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, latency: Duration) {
        let micros = latency.as_micros().min(u64::MAX as u128) as u64;
        self.buckets[bucket_of(micros)] += 1;
        self.count += 1;
        self.total_micros += micros as u128;
        self.min_micros = self.min_micros.min(micros);
        self.max_micros = self.max_micros.max(micros);
    }

    /// Merges another histogram into this one (used to combine per-thread
    /// recorders).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.total_micros += other.total_micros;
        self.min_micros = self.min_micros.min(other.min_micros);
        self.max_micros = self.max_micros.max(other.max_micros);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency, or zero when empty.
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            Duration::from_micros((self.total_micros / self.count as u128) as u64)
        }
    }

    /// Largest recorded latency.
    pub(crate) fn max(&self) -> Duration {
        Duration::from_micros(self.max_micros)
    }

    /// Approximate latency at the given percentile (0..=100), using the upper
    /// edge of the bucket containing that rank.
    pub fn percentile(&self, p: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Duration::from_micros(1u64 << i.min(62));
            }
        }
        self.max()
    }
}

/// Log-scaled histogram of dimensionless `u64` samples (power-of-two
/// buckets), used for flush-group sizes. Same bucketing scheme as
/// [`LatencyHistogram`], without the `Duration` framing.
#[derive(Debug, Clone)]
pub struct ValueHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    total: u128,
    max: u64,
}

impl Default for ValueHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl ValueHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            total: 0,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
        self.count += 1;
        self.total += value as u128;
        self.max = self.max.max(value);
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &ValueHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn total(&self) -> u64 {
        self.total.min(u64::MAX as u128) as u64
    }

    /// Mean sample, or zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_min_max() {
        let mut histogram = LatencyHistogram::new();
        histogram.record(Duration::from_micros(100));
        histogram.record(Duration::from_micros(300));
        assert_eq!(histogram.count(), 2);
        assert_eq!(histogram.mean(), Duration::from_micros(200));
        assert_eq!(histogram.min_micros, 100);
        assert_eq!(histogram.max(), Duration::from_micros(300));
    }

    #[test]
    fn empty_histogram_is_zero() {
        let histogram = LatencyHistogram::new();
        assert_eq!(histogram.mean(), Duration::ZERO);
        assert_eq!(histogram.percentile(99.0), Duration::ZERO);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(Duration::from_micros(10));
        b.record(Duration::from_micros(1000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min_micros, 10);
        assert_eq!(a.max(), Duration::from_micros(1000));
    }

    #[test]
    fn value_histogram_tracks_mean_and_max() {
        let mut histogram = ValueHistogram::new();
        assert_eq!(histogram.mean(), 0.0);
        assert!(histogram.buckets.iter().all(|&n| n == 0));
        for value in [1u64, 2, 4, 9] {
            histogram.record(value);
        }
        assert_eq!(histogram.count(), 4);
        assert_eq!(histogram.total(), 16);
        assert_eq!(histogram.mean(), 4.0);
        assert_eq!(histogram.max(), 9);
        // 1 -> bucket 1, 2 -> bucket 2, 4 -> bucket 3, 9 -> bucket 4.
        assert_eq!(histogram.buckets[..6], [0, 1, 1, 1, 1, 0]);
    }

    #[test]
    fn value_histogram_merge_combines_streams() {
        let mut a = ValueHistogram::new();
        let mut b = ValueHistogram::new();
        a.record(2);
        b.record(8);
        b.record(3);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.total(), 13);
        assert_eq!(a.max(), 8);
    }

    /// Pins the argument's scale (0..=100): `percentile(0.99)` is close to
    /// the minimum, which on a skewed sample lies below the mean.
    #[test]
    fn p99_of_a_skewed_sample_is_not_below_its_mean() {
        let mut histogram = LatencyHistogram::new();
        for _ in 0..980 {
            histogram.record(Duration::from_micros(10));
        }
        for _ in 0..20 {
            histogram.record(Duration::from_micros(5_000));
        }
        assert!(histogram.percentile(99.0) >= histogram.mean());
        assert!(histogram.percentile(0.99) < histogram.mean());
    }

    #[test]
    fn percentile_is_monotone() {
        let mut histogram = LatencyHistogram::new();
        for i in 1..=1000u64 {
            histogram.record(Duration::from_micros(i));
        }
        assert!(histogram.percentile(50.0) <= histogram.percentile(99.0));
        assert!(histogram.percentile(99.0) <= histogram.percentile(100.0).max(histogram.max()));
    }
}
