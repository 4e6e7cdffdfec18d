//! Time categories and timing helpers.

use std::time::{Duration, Instant};

use crate::registry;

/// Fine-grained categories of where a thread's time goes.
///
/// These are deliberately more fine-grained than the paper's stacked bars so
/// that both Figure 1/2 (whole-system breakdown) and Figure 3 (breakdown
/// *inside* the lock manager) can be derived from the same counters; see
/// [`crate::TimeBreakdown`] for the roll-ups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum TimeCategory {
    /// Useful transaction work outside of any synchronization: index probes,
    /// record reads and writes, workload logic.
    Work = 0,
    /// Useful work inside the lock manager's acquire path: hash probe,
    /// request-list append, hierarchy checks.
    LockMgrAcquire = 1,
    /// Time spent spinning on lock-head or bucket latches while acquiring a
    /// logical lock. This is the paper's "Lock Mgr Cont." component.
    LockMgrAcquireContention = 2,
    /// Useful work inside the lock manager's release path.
    LockMgrRelease = 3,
    /// Latch spinning in the release path.
    LockMgrReleaseContention = 4,
    /// Other lock-manager work: deadlock detection, upgrades, bookkeeping.
    LockMgrOther = 5,
    /// Time blocked waiting for an incompatible logical lock to be released.
    LockWait = 6,
    /// Latch contention outside the lock manager: page latches, buffer-pool
    /// bucket latches, executor queue latches.
    OtherContention = 7,
    /// Work performed in DORA's thread-local lock tables (acquire, release,
    /// conflict checks). The paper argues this is far cheaper than the
    /// centralized lock manager; keeping it separate lets us verify that.
    DoraLocal = 8,
    /// Time blocked on DORA local locks (waiting for a conflicting action of
    /// another in-flight transaction on the same executor).
    DoraLocalWait = 9,
    /// Waiting for the log flush at commit (the device-latency share:
    /// driving the flush, or spinning/parking while another thread does).
    LogWait = 10,
    /// Everything else attributable to the transaction-processing engine
    /// itself: queueing, dispatching, RVP bookkeeping.
    EngineOverhead = 11,
    /// Client-visible commit wait: from precommit (commit record appended)
    /// until the commit is durable and the transaction finished. Kept
    /// separate from [`LogWait`] so the driver can report commit latency
    /// separately from execute latency.
    ///
    /// [`LogWait`]: TimeCategory::LogWait
    CommitWait = 12,
}

/// Number of [`TimeCategory`] variants; sizes the per-thread arrays.
pub(crate) const TIME_CATEGORY_COUNT: usize = 13;

/// All categories, in `repr` order. Useful for iteration and reporting.
pub(crate) const ALL_TIME_CATEGORIES: [TimeCategory; TIME_CATEGORY_COUNT] = [
    TimeCategory::Work,
    TimeCategory::LockMgrAcquire,
    TimeCategory::LockMgrAcquireContention,
    TimeCategory::LockMgrRelease,
    TimeCategory::LockMgrReleaseContention,
    TimeCategory::LockMgrOther,
    TimeCategory::LockWait,
    TimeCategory::OtherContention,
    TimeCategory::DoraLocal,
    TimeCategory::DoraLocalWait,
    TimeCategory::LogWait,
    TimeCategory::EngineOverhead,
    TimeCategory::CommitWait,
];

impl TimeCategory {
    /// Stable index into the per-thread arrays.
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// Short label used by the text reports.
    pub fn label(self) -> &'static str {
        match self {
            TimeCategory::Work => "work",
            TimeCategory::LockMgrAcquire => "lockmgr-acquire",
            TimeCategory::LockMgrAcquireContention => "lockmgr-acquire-cont",
            TimeCategory::LockMgrRelease => "lockmgr-release",
            TimeCategory::LockMgrReleaseContention => "lockmgr-release-cont",
            TimeCategory::LockMgrOther => "lockmgr-other",
            TimeCategory::LockWait => "lock-wait",
            TimeCategory::OtherContention => "other-contention",
            TimeCategory::DoraLocal => "dora-local",
            TimeCategory::DoraLocalWait => "dora-local-wait",
            TimeCategory::LogWait => "log-wait",
            TimeCategory::EngineOverhead => "engine-overhead",
            TimeCategory::CommitWait => "commit-wait",
        }
    }
}

/// Record `duration` against `category` on the calling thread.
pub fn record_time(category: TimeCategory, duration: Duration) {
    registry::with_thread_slot(|slot| slot.add_time(category, duration.as_nanos() as u64));
}

/// Time the execution of `f` and charge it to `category`.
pub fn time_section<R>(category: TimeCategory, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let result = f();
    record_time(category, start.elapsed());
    result
}

/// RAII timer: charges the elapsed time to its category when dropped.
///
/// The category can be switched mid-flight with [`TimerGuard::switch`], which
/// is convenient in the lock manager where an acquisition starts as useful
/// work and becomes contention the moment it has to spin.
#[derive(Debug)]
pub struct TimerGuard {
    category: TimeCategory,
    start: Instant,
    stopped: bool,
}

impl TimerGuard {
    /// Starts timing against `category`.
    pub fn new(category: TimeCategory) -> Self {
        Self {
            category,
            start: Instant::now(),
            stopped: false,
        }
    }

    /// Charges the time accumulated so far to the current category and
    /// restarts the clock against `next`.
    pub fn switch(&mut self, next: TimeCategory) {
        let now = Instant::now();
        record_time(self.category, now.duration_since(self.start));
        self.category = next;
        self.start = now;
    }

    fn finish(&mut self) {
        if !self.stopped {
            record_time(self.category, self.start.elapsed());
            self.stopped = true;
        }
    }
}

impl Drop for TimerGuard {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global;

    #[test]
    fn category_indices_match_array_order() {
        for (i, category) in ALL_TIME_CATEGORIES.iter().enumerate() {
            assert_eq!(category.index(), i);
        }
    }

    #[test]
    fn labels_are_unique() {
        use std::collections::HashSet;
        let labels: HashSet<_> = ALL_TIME_CATEGORIES.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), TIME_CATEGORY_COUNT);
    }

    #[test]
    fn timer_guard_switch_accounts_both_categories() {
        let before = global().snapshot();
        let mut guard = TimerGuard::new(TimeCategory::LockMgrAcquire);
        std::thread::sleep(Duration::from_millis(2));
        guard.switch(TimeCategory::LockMgrAcquireContention);
        std::thread::sleep(Duration::from_millis(2));
        drop(guard);
        let delta = global().snapshot().since(&before);
        assert!(delta.nanos(TimeCategory::LockMgrAcquire) >= 1_000_000);
        assert!(delta.nanos(TimeCategory::LockMgrAcquireContention) >= 1_000_000);
    }

    #[test]
    fn time_section_returns_value() {
        let value = time_section(TimeCategory::Work, || 7 * 6);
        assert_eq!(value, 42);
    }
}
