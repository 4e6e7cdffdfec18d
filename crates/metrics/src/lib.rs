//! Instrumentation for reproducing the paper's measurements.
//!
//! The original evaluation used the Sun Studio profiler to attribute
//! execution time to the lock manager, to latch spinning, and to useful work
//! (Figures 1, 2 and 3), and instrumented Shore-MT to count acquired locks by
//! class (Figure 5). This crate provides the equivalent machinery:
//!
//! * [`TimeCategory`] / [`record_time`] / [`TimerGuard`] — every interesting
//!   region of code (latch spins, lock-manager work, logical lock waits,
//!   DORA local-lock operations, useful work) is timed into a thread-local
//!   slot.
//! * [`CounterKind`] / [`incr`] — event counters, most importantly the three
//!   lock classes the paper plots: row-level centralized locks, higher-level
//!   centralized locks and DORA thread-local locks.
//! * [`MetricsRegistry`] — aggregates the per-thread slots into a
//!   [`Snapshot`]; the benchmark harness takes snapshots before and after a
//!   measured interval and works with the difference.
//! * [`TimeBreakdown`] — rolls the fine-grained categories up into the
//!   stacked-bar categories the paper's figures use.

mod breakdown;
mod counters;
mod histogram;
mod load;
mod registry;
mod timing;

pub use breakdown::TimeBreakdown;
pub use counters::CounterKind;
pub use histogram::{LatencyHistogram, ValueHistogram};
pub use load::{LoadMonitor, LoadSample};
pub use registry::{current_thread_snapshot, global, MetricsRegistry, Snapshot};
pub use timing::{record_time, time_section, TimeCategory, TimerGuard};

/// Increment a counter on the calling thread's slot.
pub fn incr(kind: CounterKind) {
    registry::with_thread_slot(|slot| slot.incr(kind, 1));
}

/// Add `delta` to a counter on the calling thread's slot.
pub fn incr_by(kind: CounterKind, delta: u64) {
    registry::with_thread_slot(|slot| slot.incr(kind, delta));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_counters_and_time_flow_into_snapshots() {
        let before = global().snapshot();
        incr(CounterKind::RowLevelLock);
        incr_by(CounterKind::DoraLocalLock, 5);
        record_time(TimeCategory::Work, std::time::Duration::from_micros(50));
        let after = global().snapshot();
        let delta = after.since(&before);
        assert_eq!(delta.counter(CounterKind::RowLevelLock), 1);
        assert_eq!(delta.counter(CounterKind::DoraLocalLock), 5);
        assert!(delta.nanos(TimeCategory::Work) >= 50_000);
    }

    #[test]
    fn many_threads_aggregate() {
        let before = global().snapshot();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..100 {
                        incr(CounterKind::HigherLevelLock);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let delta = global().snapshot().since(&before);
        assert_eq!(delta.counter(CounterKind::HigherLevelLock), 800);
    }
}
