//! Adaptive skew-aware repartitioning.
//!
//! Appendix A.2 of the paper concedes that a static routing table crumbles
//! under access skew: thread-to-data coupling only removes contention while
//! every executor owns a comparable share of the load. This module closes
//! the loop the resize machinery was built for:
//!
//! * [`balanced_rule`] synthesizes a new [`RoutingRule`] from the observed
//!   per-executor load — hot ranges are split (several new boundaries land
//!   inside them), cold ranges are merged — by modelling the load as
//!   piecewise-uniform over the current datasets and cutting the key domain
//!   at equal-load quantiles.
//! * `SkewDetector` owns the sliding [`LoadMonitor`] window for one table
//!   and decides *when* the imbalance justifies paying for a drain.
//! * [`AdaptiveController`] is the runtime: a background thread that samples
//!   every eligible table, asks the detector, and drives the
//!   `StartResize`/`FinishResize` protocol through
//!   [`ResourceManager::rebalance`] while transactions stay in flight.
//!
//! Because each resize observes load under the *previous* rule, balancing a
//! heavy-tailed distribution (e.g. zipfian) converges over a handful of
//! resizes: each pass narrows the hot datasets, which sharpens the density
//! estimate for the next pass.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::Mutex;

use dora_common::config::AdaptiveConfig;
use dora_common::prelude::*;
use dora_common::sync::OneShot;
use dora_metrics::{LoadMonitor, LoadSample};

use crate::engine::DoraEngine;
use crate::resource::ResourceManager;
use crate::routing::RoutingRule;

/// Synthesizes a routing rule that would have split the observed load evenly
/// across the same number of executors, assuming the load is uniform within
/// each current dataset.
///
/// Returns `None` when no better rule exists: the current rule is not a
/// range rule, the executor count does not match `loads`, the window saw no
/// load, the domain is too narrow to honor `min_range_width`, or the
/// balanced boundaries equal the current ones.
pub fn balanced_rule(
    current: &RoutingRule,
    loads: &[u64],
    domain: (i64, i64),
    min_range_width: i64,
) -> Option<RoutingRule> {
    let RoutingRule::Range { boundaries } = current else {
        return None;
    };
    let executors = loads.len();
    if executors < 2 || boundaries.len() + 1 != executors {
        return None;
    }
    let (low, high) = domain;
    let span = high.checked_sub(low)?.checked_add(1)?;
    let min_width = min_range_width.max(1);
    // Every executor must be able to own at least `min_width` keys.
    if span < min_width.checked_mul(executors as i64)? {
        return None;
    }
    let total: u64 = loads.iter().sum();
    if total == 0 {
        return None;
    }

    // The load profile as piecewise-uniform segments over the domain: one
    // segment per executor, clipped to `[low, high]`.
    struct Segment {
        start: i64,
        width: i64,
        load: f64,
    }
    let mut segments = Vec::with_capacity(executors);
    for (index, &load) in loads.iter().enumerate() {
        let (range_low, range_high) = current.range_of(index)?;
        let start = range_low.max(low);
        let end = range_high.min(high);
        if start > end {
            // Empty dataset (duplicate/clamped boundaries); no keys, and any
            // counted load cannot be attributed to a key range.
            continue;
        }
        segments.push(Segment {
            start,
            width: end - start + 1,
            load: load as f64,
        });
    }
    let profiled: f64 = segments.iter().map(|s| s.load).sum();
    if profiled <= 0.0 {
        return None;
    }

    // Cut the domain at equal-load quantiles: boundary `k` sits where the
    // cumulative load reaches `k/executors` of the total.
    let target = profiled / executors as f64;
    let mut new_boundaries = Vec::with_capacity(executors - 1);
    let mut cumulative = 0.0;
    let mut next_quota = target;
    for segment in &segments {
        let density = segment.load / segment.width as f64;
        while new_boundaries.len() < executors - 1 && cumulative + segment.load >= next_quota {
            let boundary = if density > 0.0 {
                let offset = ((next_quota - cumulative) / density).ceil() as i64;
                segment.start + offset.clamp(1, segment.width)
            } else {
                segment.start + segment.width
            };
            new_boundaries.push(boundary);
            next_quota += target;
        }
        cumulative += segment.load;
    }
    // Cold tail: any quantile not reached (floating-point slack) closes at
    // the top of the domain; the clamp below spreads these out.
    while new_boundaries.len() < executors - 1 {
        new_boundaries.push(high);
    }

    // Enforce the invariants a routing rule must keep: boundaries strictly
    // increasing, inside `(low, high]`, and every dataset at least
    // `min_width` keys wide (feasible because `span >= executors*min_width`).
    let mut previous = low;
    for (index, boundary) in new_boundaries.iter_mut().enumerate() {
        // Boundaries still to be placed after this one (this executor's
        // successors), each of which needs `min_width` keys of headroom.
        let remaining = (executors - 1 - index) as i64;
        let lowest = previous + min_width;
        let highest = high + 1 - min_width * remaining;
        *boundary = (*boundary).clamp(lowest, highest.max(lowest));
        previous = *boundary;
    }

    if new_boundaries == *boundaries {
        return None;
    }
    Some(RoutingRule::Range {
        boundaries: new_boundaries,
    })
}

/// Skew detection for one table: a sliding load window plus the trigger
/// policy (imbalance threshold and resize cooldown).
pub(crate) struct SkewDetector {
    config: AdaptiveConfig,
    monitor: LoadMonitor,
    last_resize: Option<Instant>,
}

impl SkewDetector {
    /// Creates a detector with the given knobs.
    pub(crate) fn new(config: AdaptiveConfig) -> Self {
        let monitor = LoadMonitor::new(config.window);
        Self {
            config,
            monitor,
            last_resize: None,
        }
    }

    /// Records one load observation (cumulative served counts and current
    /// queue depths, one entry per executor).
    pub(crate) fn observe(&self, served: Vec<u64>, queue_depth: Vec<usize>) {
        self.monitor.record(LoadSample {
            served,
            queue_depth,
        });
    }

    /// Decides whether the observed window justifies a resize and, if so,
    /// synthesizes the rebalanced rule. Requires a full window (so the
    /// decision never rests on a single noisy delta), an imbalance past the
    /// configured threshold, and an expired cooldown.
    pub(crate) fn propose(&self, current: &RoutingRule, domain: (i64, i64)) -> Option<RoutingRule> {
        if !self.monitor.is_full() {
            return None;
        }
        if let Some(last) = self.last_resize {
            if last.elapsed() < self.config.cooldown {
                return None;
            }
        }
        if self.monitor.imbalance()? < self.config.imbalance_threshold {
            return None;
        }
        let loads = self.monitor.windowed_load()?;
        balanced_rule(current, &loads, domain, self.config.min_range_width)
    }

    /// Records that a resize was performed: starts the cooldown clock and
    /// clears the window so imbalance is next judged only on samples taken
    /// under the new rule.
    pub(crate) fn note_resized(&mut self) {
        self.last_resize = Some(Instant::now());
        self.monitor.clear();
    }
}

struct ControllerShared {
    stopped: OneShot<()>,
    resizes: AtomicU64,
}

/// The adaptive repartitioning runtime: a background thread that samples
/// per-executor load for every eligible table of a [`DoraEngine`] and drives
/// the dataset-resize protocol when its `SkewDetector` fires.
///
/// The controller must be stopped (or dropped) *before* the engine is shut
/// down: a resize drains executors, which requires them to still be serving.
/// [`Self::stop`] is idempotent and joins the thread.
pub struct AdaptiveController {
    shared: Arc<ControllerShared>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for AdaptiveController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptiveController")
            .field("resizes", &self.resizes())
            .finish()
    }
}

impl AdaptiveController {
    /// Spawns the controller over `engine` with the given knobs. Tables are
    /// discovered on every pass (`DoraEngine::adaptive_tables`), so tables
    /// bound after the controller starts are picked up automatically.
    pub fn spawn(engine: Arc<DoraEngine>, config: AdaptiveConfig) -> Self {
        let shared = Arc::new(ControllerShared {
            stopped: OneShot::new(),
            resizes: AtomicU64::new(0),
        });
        let thread_shared = Arc::clone(&shared);
        // Spawning fails only when the OS refuses a thread, which is fatal
        // here as it is for `std::thread::spawn`.
        let handle = std::thread::Builder::new()
            .name("dora-adaptive".into())
            .spawn(move || Self::run(engine, config, thread_shared))
            .expect("spawn adaptive controller");
        Self {
            shared,
            thread: Mutex::new(Some(handle)),
        }
    }

    fn run(engine: Arc<DoraEngine>, config: AdaptiveConfig, shared: Arc<ControllerShared>) {
        let manager = ResourceManager::new(engine.config().clone());
        let mut detectors: HashMap<TableId, SkewDetector> = HashMap::new();
        loop {
            // Sleep on the stop signal so `stop()` wakes the controller
            // immediately instead of waiting out the sample interval.
            let next_sample = Instant::now() + config.sample_interval;
            if shared.stopped.wait_until(next_sample).is_some() {
                return;
            }
            if engine.is_shutting_down() {
                return;
            }
            for (table, domain) in engine.adaptive_tables() {
                let (Ok(served), Ok(depths)) = (
                    engine.executor_loads(table),
                    engine.executor_queue_depths(table),
                ) else {
                    continue;
                };
                let detector = detectors
                    .entry(table)
                    .or_insert_with(|| SkewDetector::new(config.clone()));
                detector.observe(served, depths);
                let Some(rule) = engine
                    .routing()
                    .rule(table)
                    .and_then(|current| detector.propose(&current, domain))
                else {
                    continue;
                };
                if engine.is_shutting_down() {
                    return;
                }
                if manager.rebalance(&engine, table, rule).is_ok() {
                    shared.resizes.fetch_add(1, Ordering::Relaxed);
                    detector.note_resized();
                }
            }
        }
    }

    /// Number of resizes this controller has driven to completion.
    pub fn resizes(&self) -> u64 {
        self.shared.resizes.load(Ordering::Relaxed)
    }

    /// Stops the controller and joins its thread. Idempotent; any resize in
    /// progress completes first.
    pub fn stop(&self) {
        self.shared.stopped.set(());
        if let Some(handle) = self.thread.lock().take() {
            let _ = handle.join();
        }
    }
}

impl Drop for AdaptiveController {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn even(low: i64, high: i64, executors: usize) -> RoutingRule {
        RoutingRule::even_ranges(low, high, executors)
    }

    fn boundaries(rule: &RoutingRule) -> &[i64] {
        match rule {
            RoutingRule::Range { boundaries } => boundaries,
            RoutingRule::Hash { .. } => panic!("expected range rule"),
        }
    }

    /// Asserts that `rule` tiles `[low, high]` contiguously with no gaps or
    /// overlaps and that every dataset is at least `min_width` keys wide
    /// inside the domain.
    fn assert_tiles(rule: &RoutingRule, low: i64, high: i64, min_width: i64) {
        let executors = rule.executor_count();
        let mut expected_low = i64::MIN;
        for index in 0..executors {
            let (range_low, range_high) = rule.range_of(index).expect("in range");
            assert_eq!(range_low, expected_low, "gap/overlap before {index}");
            assert!(range_low <= range_high, "inverted range at {index}");
            let clipped_low = range_low.max(low);
            let clipped_high = range_high.min(high);
            assert!(
                clipped_high - clipped_low + 1 >= min_width,
                "dataset {index} narrower than {min_width}: [{clipped_low}, {clipped_high}]"
            );
            if index + 1 == executors {
                assert_eq!(range_high, i64::MAX);
            } else {
                expected_low = range_high + 1;
            }
        }
    }

    #[test]
    fn hot_first_range_is_split() {
        // Executor 0 served 90% of the load: it must end up with a much
        // smaller dataset, and the cold ranges must absorb the rest.
        let current = even(1, 100, 4);
        let rebalanced = balanced_rule(&current, &[900, 40, 30, 30], (1, 100), 1).unwrap();
        assert_tiles(&rebalanced, 1, 100, 1);
        let new = boundaries(&rebalanced);
        let old = boundaries(&current);
        assert!(
            new[0] < old[0],
            "hot executor 0 must shrink: {new:?} vs {old:?}"
        );
        // Equal-load quantiles under a 90/4/3/3 profile put three boundaries
        // inside executor 0's old range [1, 25].
        assert!(new[2] <= old[0], "cold ranges must merge: {new:?}");
    }

    #[test]
    fn balanced_load_proposes_nothing() {
        let current = even(1, 100, 4);
        assert_eq!(
            balanced_rule(&current, &[25, 25, 25, 25], (1, 100), 1),
            None
        );
    }

    #[test]
    fn min_range_width_is_honored() {
        let current = even(1, 100, 4);
        let rebalanced = balanced_rule(&current, &[997, 1, 1, 1], (1, 100), 10).unwrap();
        assert_tiles(&rebalanced, 1, 100, 10);
    }

    #[test]
    fn narrow_domain_rejects_min_width() {
        let current = even(1, 10, 4);
        assert!(balanced_rule(&current, &[97, 1, 1, 1], (1, 10), 5).is_none());
    }

    #[test]
    fn zero_load_and_hash_rules_propose_nothing() {
        let current = even(1, 100, 4);
        assert_eq!(balanced_rule(&current, &[0, 0, 0, 0], (1, 100), 1), None);
        let hash = RoutingRule::Hash { executors: 4 };
        assert_eq!(balanced_rule(&hash, &[9, 1, 1, 1], (1, 100), 1), None);
    }

    #[test]
    fn detector_fires_only_on_full_skewed_window_and_respects_cooldown() {
        let config = AdaptiveConfig {
            enabled: true,
            sample_interval: Duration::from_millis(1),
            window: 2,
            imbalance_threshold: 1.5,
            min_range_width: 1,
            cooldown: Duration::from_secs(3600),
        };
        let mut detector = SkewDetector::new(config);
        let rule = even(1, 100, 2);
        detector.observe(vec![0, 0], vec![0, 0]);
        assert!(
            detector.propose(&rule, (1, 100)).is_none(),
            "half-filled window must not fire"
        );
        detector.observe(vec![90, 10], vec![0, 0]);
        let proposal = detector.propose(&rule, (1, 100));
        assert!(proposal.is_some(), "skewed full window must fire");
        assert_tiles(&proposal.unwrap(), 1, 100, 1);

        detector.note_resized();
        detector.observe(vec![180, 20], vec![0, 0]);
        detector.observe(vec![270, 30], vec![0, 0]);
        assert!(
            detector.propose(&rule, (1, 100)).is_none(),
            "cooldown must suppress back-to-back resizes"
        );
    }

    #[test]
    fn detector_counts_backlog_as_load() {
        let config = AdaptiveConfig {
            window: 2,
            imbalance_threshold: 1.5,
            ..AdaptiveConfig::eager()
        };
        let detector = SkewDetector::new(config);
        // Served counts are even, but executor 0 has a deep backlog.
        detector.observe(vec![0, 0], vec![0, 0]);
        detector.observe(vec![10, 10], vec![100, 0]);
        assert!(detector.monitor.imbalance().unwrap() > 1.5);
    }
}
