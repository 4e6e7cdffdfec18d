//! Per-executor load monitoring for adaptive repartitioning.
//!
//! The paper's resource manager (Appendix A.2.1) watches the load of every
//! executor and resizes datasets when the assignment becomes
//! disproportional. [`LoadMonitor`] is the measurement half of that loop: it
//! keeps a sliding window of per-executor samples — the cumulative
//! serviced-action count and the instantaneous incoming-queue depth — and
//! derives the two statistics the skew detector consumes: the *windowed
//! load* (actions served during the window, plus the backlog still queued)
//! and the *imbalance ratio* (busiest executor over average).
//!
//! The monitor is deliberately engine-agnostic: it sees plain vectors, so it
//! lives here in `dora-metrics` below every engine crate.

use std::collections::VecDeque;

use parking_lot::Mutex;

/// One observation of a table's executors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadSample {
    /// Cumulative actions served per executor (monotone across samples).
    pub served: Vec<u64>,
    /// Incoming-queue depth per executor at sampling time.
    pub queue_depth: Vec<usize>,
}

/// Sliding window of [`LoadSample`]s for one table.
#[derive(Debug)]
pub struct LoadMonitor {
    window: usize,
    samples: Mutex<VecDeque<LoadSample>>,
}

impl LoadMonitor {
    /// Creates a monitor keeping the most recent `window` samples
    /// (`window >= 2`, since a load delta needs two observations).
    pub fn new(window: usize) -> Self {
        Self {
            window: window.max(2),
            samples: Mutex::new(VecDeque::new()),
        }
    }

    /// Records one observation. A sample whose executor count differs from
    /// the window's (the table was re-bound) resets the window.
    pub fn record(&self, sample: LoadSample) {
        let mut samples = self.samples.lock();
        if samples
            .back()
            .is_some_and(|last| last.served.len() != sample.served.len())
        {
            samples.clear();
        }
        if samples.len() == self.window {
            samples.pop_front();
        }
        samples.push_back(sample);
    }

    /// Number of samples currently held.
    pub(crate) fn len(&self) -> usize {
        self.samples.lock().len()
    }

    /// `true` once the window holds its full complement of samples.
    pub fn is_full(&self) -> bool {
        self.len() == self.window
    }

    /// Discards every sample (called after a resize so that imbalance is
    /// re-evaluated only on observations taken under the new rule).
    pub fn clear(&self) {
        self.samples.lock().clear();
    }

    /// Per-executor load over the window: the serviced-action delta between
    /// the oldest and newest sample, plus the newest backlog (actions queued
    /// but not yet served still represent routed load). `None` until at
    /// least two samples exist.
    pub fn windowed_load(&self) -> Option<Vec<u64>> {
        let samples = self.samples.lock();
        if samples.len() < 2 {
            return None;
        }
        let oldest = samples.front().expect("len >= 2");
        let newest = samples.back().expect("len >= 2");
        Some(
            newest
                .served
                .iter()
                .zip(&oldest.served)
                .zip(&newest.queue_depth)
                .map(|((new, old), depth)| new.saturating_sub(*old) + *depth as u64)
                .collect(),
        )
    }

    /// Busiest executor's windowed load over the average — the statistic the
    /// skew detector thresholds. `None` until two samples exist or while the
    /// window saw no load at all.
    pub fn imbalance(&self) -> Option<f64> {
        let load = self.windowed_load()?;
        let total: u64 = load.iter().sum();
        if total == 0 || load.is_empty() {
            return None;
        }
        let average = total as f64 / load.len() as f64;
        let busiest = *load.iter().max().expect("non-empty") as f64;
        Some(busiest / average)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(served: &[u64], depth: &[usize]) -> LoadSample {
        LoadSample {
            served: served.to_vec(),
            queue_depth: depth.to_vec(),
        }
    }

    #[test]
    fn windowed_load_is_delta_plus_backlog() {
        let monitor = LoadMonitor::new(3);
        assert!(monitor.windowed_load().is_none());
        monitor.record(sample(&[10, 20], &[0, 0]));
        assert!(monitor.windowed_load().is_none(), "one sample is no window");
        monitor.record(sample(&[110, 25], &[4, 0]));
        assert_eq!(monitor.windowed_load(), Some(vec![104, 5]));
    }

    #[test]
    fn window_slides_and_caps_length() {
        let monitor = LoadMonitor::new(2);
        monitor.record(sample(&[0], &[0]));
        monitor.record(sample(&[10], &[0]));
        monitor.record(sample(&[30], &[0]));
        assert_eq!(monitor.len(), 2);
        // Oldest surviving sample is served=10, so the delta is 20.
        assert_eq!(monitor.windowed_load(), Some(vec![20]));
        assert!(monitor.is_full());
    }

    #[test]
    fn imbalance_is_busiest_over_average() {
        let monitor = LoadMonitor::new(2);
        monitor.record(sample(&[0, 0, 0, 0], &[0, 0, 0, 0]));
        monitor.record(sample(&[90, 10, 0, 0], &[0, 0, 0, 0]));
        // Loads 90/10/0/0, average 25 -> imbalance 3.6.
        let imbalance = monitor.imbalance().unwrap();
        assert!((imbalance - 3.6).abs() < 1e-9, "got {imbalance}");
    }

    #[test]
    fn idle_window_reports_no_imbalance() {
        let monitor = LoadMonitor::new(2);
        monitor.record(sample(&[5, 5], &[0, 0]));
        monitor.record(sample(&[5, 5], &[0, 0]));
        assert_eq!(monitor.imbalance(), None);
    }

    #[test]
    fn executor_count_change_resets_the_window() {
        let monitor = LoadMonitor::new(3);
        monitor.record(sample(&[1, 2], &[0, 0]));
        monitor.record(sample(&[1, 2, 3], &[0, 0, 0]));
        assert_eq!(monitor.len(), 1, "mismatched sample must reset the window");
    }

    #[test]
    fn clear_empties_the_window() {
        let monitor = LoadMonitor::new(2);
        monitor.record(sample(&[1], &[0]));
        monitor.clear();
        assert_eq!(monitor.len(), 0);
    }
}
