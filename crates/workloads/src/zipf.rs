//! Zipfian-skewed key generation and hot-spot migration.
//!
//! DORA's routing rules are only as good as the access distribution they
//! were sized for; Appendix A.2 of the paper concedes that static rules
//! crumble under skew. This module supplies the adversarial distributions
//! the adaptive repartitioner is exercised with:
//!
//! * [`Zipfian`] — rank `k` is drawn with probability proportional to
//!   `1/k^θ`, using the constant-time method of Gray et al. ("Quickly
//!   generating billion-record synthetic databases", SIGMOD '94), the same
//!   algorithm YCSB uses. `θ = 0` degenerates to uniform; `θ ≈ 1` is the
//!   classic harsh web skew.
//! * [`DriftingHotSpot`] — maps zipfian ranks onto a *contiguous* key range
//!   whose start drifts over time, so the hot range migrates across the
//!   domain and yesterday's balanced routing rule becomes today's hot spot.
//!   Ranks are deliberately *not* scrambled (unlike YCSB): keeping the hot
//!   keys adjacent is what makes the scenario a worst case for
//!   range-partitioned routing.

use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::SmallRng;
use rand::Rng;

/// A zipfian rank generator over `1..=n` with skew parameter `theta`.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    /// Creates a generator over `1..=n` ranks with skew `theta >= 0`.
    /// `theta` is nudged off exactly `1.0`, where the closed form has a
    /// pole.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n >= 1, "need at least one rank");
        assert!(theta >= 0.0, "theta must be non-negative");
        let theta = if (theta - 1.0).abs() < 1e-9 {
            1.0 - 1e-6
        } else {
            theta
        };
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2.min(n), theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Self {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    /// The generalized harmonic number `Σ_{i=1..n} 1/i^theta`.
    fn zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Number of ranks.
    pub fn ranks(&self) -> u64 {
        self.n
    }

    /// The effective skew parameter.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Probability of the hottest rank (diagnostics: how much of the load a
    /// single key attracts).
    #[cfg(test)]
    pub(crate) fn top_rank_probability(&self) -> f64 {
        1.0 / self.zetan
    }

    /// Draws one rank in `1..=n`; rank 1 is the hottest.
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        if self.n == 1 {
            return 1;
        }
        let u: f64 = rng.random_range(0.0..1.0);
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 1;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 2;
        }
        let rank = 1 + (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.clamp(1, self.n)
    }
}

/// Maps zipfian ranks onto a contiguous hot range of an integer key domain
/// whose position drifts as draws accumulate.
///
/// Rank `k` maps to the key `k - 1` positions after the current hot-spot
/// offset (wrapping at the domain end), so the hottest keys always form one
/// contiguous run. With `drift_every = 0` the hot range is static.
///
/// The draw counter is atomic, so one generator can be shared by every
/// client thread and the hot spot drifts coherently across all of them.
#[derive(Debug)]
pub struct DriftingHotSpot {
    zipf: Zipfian,
    low: i64,
    span: i64,
    /// Draws between two drift steps (`0` disables drift).
    drift_every: u64,
    /// Keys the hot range advances per drift step.
    drift_step: i64,
    draws: AtomicU64,
}

impl DriftingHotSpot {
    /// Creates a generator over the inclusive key domain `[low, high]` with
    /// zipfian skew `theta` and no drift.
    pub fn new(low: i64, high: i64, theta: f64) -> Self {
        assert!(high >= low, "invalid key domain");
        let span = high - low + 1;
        Self {
            zipf: Zipfian::new(span as u64, theta),
            low,
            span,
            drift_every: 0,
            drift_step: 0,
            draws: AtomicU64::new(0),
        }
    }

    /// Enables drift: every `drift_every` draws the hot range advances by
    /// `drift_step` keys (wrapping around the domain).
    pub fn with_drift(mut self, drift_every: u64, drift_step: i64) -> Self {
        self.drift_every = drift_every;
        self.drift_step = drift_step;
        self
    }

    /// The underlying zipfian generator.
    pub fn zipfian(&self) -> &Zipfian {
        &self.zipf
    }

    /// The key the hottest rank currently maps to.
    pub fn hottest_key(&self) -> i64 {
        self.key_for_rank(1, self.draws.load(Ordering::Relaxed))
    }

    /// Draws one key from the domain.
    pub fn key(&self, rng: &mut SmallRng) -> i64 {
        let draw = self.draws.fetch_add(1, Ordering::Relaxed);
        self.key_for_rank(self.zipf.sample(rng), draw)
    }

    fn key_for_rank(&self, rank: u64, draw: u64) -> i64 {
        let offset = match draw.checked_div(self.drift_every) {
            // drift_every == 0: drift disabled.
            None => 0,
            Some(steps) => ((steps as i64).wrapping_mul(self.drift_step)).rem_euclid(self.span),
        };
        self.low + (offset + rank as i64 - 1).rem_euclid(self.span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn histogram(hot: &DriftingHotSpot, draws: usize, seed: u64) -> Vec<u64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut counts = vec![0u64; hot.span as usize];
        for _ in 0..draws {
            let key = hot.key(&mut rng);
            counts[(key - hot.low) as usize] += 1;
        }
        counts
    }

    #[test]
    fn zipf_stays_in_range_and_is_monotone_in_popularity() {
        let zipf = Zipfian::new(100, 0.99);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut counts = vec![0u64; 100];
        for _ in 0..100_000 {
            let rank = zipf.sample(&mut rng);
            assert!((1..=100).contains(&rank));
            counts[rank as usize - 1] += 1;
        }
        assert!(
            counts[0] > counts[9] && counts[9] > counts[49],
            "lower ranks must be hotter: {:?}",
            &counts[..10]
        );
        // At theta=0.99 over 100 ranks the hottest rank draws ~19% of the
        // load; allow generous slack.
        let top = counts[0] as f64 / 100_000.0;
        let expected = zipf.top_rank_probability();
        assert!(
            (top - expected).abs() < 0.03,
            "top-rank share {top} vs analytic {expected}"
        );
    }

    #[test]
    fn theta_zero_is_roughly_uniform() {
        let hot = DriftingHotSpot::new(1, 50, 0.0);
        let counts = histogram(&hot, 50_000, 7);
        let (min, max) = (
            *counts.iter().min().unwrap() as f64,
            *counts.iter().max().unwrap() as f64,
        );
        assert!(
            max / min < 1.6,
            "uniform draw spread too wide: min={min} max={max}"
        );
    }

    #[test]
    fn higher_theta_concentrates_more() {
        let mild = histogram(&DriftingHotSpot::new(1, 200, 0.5), 40_000, 3);
        let harsh = histogram(&DriftingHotSpot::new(1, 200, 1.2), 40_000, 3);
        let top10 = |counts: &[u64]| counts.iter().take(10).sum::<u64>() as f64 / 40_000.0;
        assert!(
            top10(&harsh) > top10(&mild) + 0.2,
            "theta=1.2 top-10 share {} must clearly exceed theta=0.5's {}",
            top10(&harsh),
            top10(&mild)
        );
    }

    #[test]
    fn hot_keys_form_a_contiguous_run() {
        let hot = DriftingHotSpot::new(100, 299, 0.99);
        let counts = histogram(&hot, 50_000, 11);
        // The five hottest positions must be the first five keys of the
        // domain (no scrambling), in weakly decreasing order.
        for i in 0..4 {
            assert!(
                counts[i] >= counts[i + 1],
                "hot run must be contiguous and front-loaded: {:?}",
                &counts[..8]
            );
        }
        assert!(counts[0] > counts[50] * 5, "front must dominate mid-domain");
    }

    #[test]
    fn drift_moves_the_hot_spot() {
        let hot = DriftingHotSpot::new(1, 100, 0.99).with_drift(1_000, 25);
        assert_eq!(hot.hottest_key(), 1);
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..1_000 {
            hot.key(&mut rng);
        }
        assert_eq!(hot.hottest_key(), 26, "one drift step of 25 keys");
        for _ in 0..3_000 {
            hot.key(&mut rng);
        }
        assert_eq!(hot.hottest_key(), 1, "drift wraps around the domain");
    }

    #[test]
    fn single_key_domain_always_returns_it() {
        let hot = DriftingHotSpot::new(42, 42, 0.99);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(hot.key(&mut rng), 42);
        }
    }
}
