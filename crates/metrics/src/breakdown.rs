//! Rolling fine-grained time categories up into the paper's figure categories.

use std::fmt;

use crate::registry::Snapshot;
use crate::timing::TimeCategory;

/// The stacked-bar breakdown the paper plots.
///
/// * Figures 1(b), 1(c) and 2 use four components: **Work**, **Lock Mgr
///   Cont.**, **Lock Mgr** (other, i.e. un-contended lock-manager work) and
///   **Other Cont.**
/// * Figure 3 zooms into the lock manager itself: **Acquire**, **Acquire
///   Cont.**, **Release**, **Release Cont.** and **Other**.
///
/// Both views are derived from the same [`Snapshot`] delta.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TimeBreakdown {
    /// Useful transaction work (including DORA local-lock work, which the
    /// paper counts as part of DORA's — much cheaper — execution).
    pub work_nanos: u64,
    /// Contention (latch spinning and logical lock waiting) inside the
    /// centralized lock manager.
    pub lock_mgr_contention_nanos: u64,
    /// Un-contended lock-manager work (acquire/release/other useful cycles).
    pub lock_mgr_work_nanos: u64,
    /// Contention outside the lock manager (page latches, queue latches) plus
    /// log waits.
    pub other_contention_nanos: u64,
    /// Fine-grained lock-manager components for the Figure 3 view.
    pub lock_mgr_acquire_nanos: u64,
    /// Latch spinning during lock acquisition.
    pub lock_mgr_acquire_cont_nanos: u64,
    /// Un-contended release-path work.
    pub lock_mgr_release_nanos: u64,
    /// Latch spinning during lock release.
    pub lock_mgr_release_cont_nanos: u64,
    /// Other lock-manager work (deadlock detection, bookkeeping) plus logical
    /// lock waits.
    pub lock_mgr_other_nanos: u64,
    /// DORA-specific work (local lock tables, waits on them, engine overhead)
    /// — reported separately so the DORA bars can show the mechanism's cost.
    pub dora_nanos: u64,
}

impl TimeBreakdown {
    /// Builds a breakdown from a snapshot delta.
    ///
    /// [`TimeCategory::CommitWait`] is deliberately *not* rolled up: it is
    /// the client-visible commit stall, which in synchronous-commit mode
    /// overlaps the [`TimeCategory::LogWait`] device time already counted
    /// under other contention. The driver reports it separately as commit
    /// latency.
    pub fn from_snapshot(delta: &Snapshot) -> Self {
        let acquire = delta.nanos(TimeCategory::LockMgrAcquire);
        let acquire_cont = delta.nanos(TimeCategory::LockMgrAcquireContention);
        let release = delta.nanos(TimeCategory::LockMgrRelease);
        let release_cont = delta.nanos(TimeCategory::LockMgrReleaseContention);
        let other = delta.nanos(TimeCategory::LockMgrOther);
        let lock_wait = delta.nanos(TimeCategory::LockWait);
        let dora_local = delta.nanos(TimeCategory::DoraLocal);
        let dora_wait = delta.nanos(TimeCategory::DoraLocalWait);
        let engine = delta.nanos(TimeCategory::EngineOverhead);

        Self {
            work_nanos: delta.nanos(TimeCategory::Work) + dora_local,
            lock_mgr_contention_nanos: acquire_cont + release_cont + lock_wait,
            lock_mgr_work_nanos: acquire + release + other,
            other_contention_nanos: delta.nanos(TimeCategory::OtherContention)
                + delta.nanos(TimeCategory::LogWait)
                + dora_wait,
            lock_mgr_acquire_nanos: acquire,
            lock_mgr_acquire_cont_nanos: acquire_cont,
            lock_mgr_release_nanos: release,
            lock_mgr_release_cont_nanos: release_cont,
            lock_mgr_other_nanos: other + lock_wait,
            dora_nanos: dora_local + dora_wait + engine,
        }
    }

    /// Total accounted time.
    pub(crate) fn total_nanos(&self) -> u64 {
        self.work_nanos
            + self.lock_mgr_contention_nanos
            + self.lock_mgr_work_nanos
            + self.other_contention_nanos
    }

    /// Fraction (0..=1) of the accounted time spent on useful work.
    pub fn work_fraction(&self) -> f64 {
        self.fraction(self.work_nanos)
    }

    /// Fraction of accounted time spent on lock-manager contention — the
    /// quantity the paper reports growing beyond 85% for the baseline at
    /// saturation.
    pub fn lock_mgr_contention_fraction(&self) -> f64 {
        self.fraction(self.lock_mgr_contention_nanos)
    }

    /// Fraction of accounted time spent on un-contended lock-manager work.
    pub fn lock_mgr_work_fraction(&self) -> f64 {
        self.fraction(self.lock_mgr_work_nanos)
    }

    /// Fraction of accounted time spent on contention outside the lock
    /// manager.
    pub fn other_contention_fraction(&self) -> f64 {
        self.fraction(self.other_contention_nanos)
    }

    /// Fraction of the *lock-manager* time that is contention (spinning),
    /// the quantity Figure 3 tracks as load increases.
    pub fn lock_mgr_internal_contention_fraction(&self) -> f64 {
        let total = self.lock_mgr_acquire_nanos
            + self.lock_mgr_acquire_cont_nanos
            + self.lock_mgr_release_nanos
            + self.lock_mgr_release_cont_nanos
            + self.lock_mgr_other_nanos;
        if total == 0 {
            return 0.0;
        }
        (self.lock_mgr_acquire_cont_nanos + self.lock_mgr_release_cont_nanos) as f64 / total as f64
    }

    fn fraction(&self, part: u64) -> f64 {
        let total = self.total_nanos();
        if total == 0 {
            0.0
        } else {
            part as f64 / total as f64
        }
    }
}

impl fmt::Display for TimeBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "work {:>5.1}% | lockmgr-cont {:>5.1}% | lockmgr {:>5.1}% | other-cont {:>5.1}%",
            100.0 * self.work_fraction(),
            100.0 * self.lock_mgr_contention_fraction(),
            100.0 * self.lock_mgr_work_fraction(),
            100.0 * self.other_contention_fraction(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_from_registry() {
        use crate::{global, record_time};
        use std::time::Duration;
        let before = global().snapshot();
        record_time(TimeCategory::Work, Duration::from_nanos(600));
        record_time(TimeCategory::LockMgrAcquire, Duration::from_nanos(100));
        record_time(
            TimeCategory::LockMgrAcquireContention,
            Duration::from_nanos(200),
        );
        record_time(TimeCategory::LockMgrRelease, Duration::from_nanos(50));
        record_time(
            TimeCategory::LockMgrReleaseContention,
            Duration::from_nanos(25),
        );
        record_time(TimeCategory::OtherContention, Duration::from_nanos(25));
        let delta = global().snapshot().since(&before);
        let breakdown = TimeBreakdown::from_snapshot(&delta);

        assert!(breakdown.work_nanos >= 600);
        assert!(breakdown.lock_mgr_contention_nanos >= 225);
        assert!(breakdown.lock_mgr_work_nanos >= 150);
        assert!(breakdown.other_contention_nanos >= 25);
        assert!(breakdown.total_nanos() >= 1000);
        let fraction_sum = breakdown.work_fraction()
            + breakdown.lock_mgr_contention_fraction()
            + breakdown.lock_mgr_work_fraction()
            + breakdown.other_contention_fraction();
        assert!((fraction_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_breakdown_has_zero_fractions() {
        let breakdown = TimeBreakdown::default();
        assert_eq!(breakdown.work_fraction(), 0.0);
        assert_eq!(breakdown.lock_mgr_internal_contention_fraction(), 0.0);
        assert_eq!(breakdown.total_nanos(), 0);
    }
}
