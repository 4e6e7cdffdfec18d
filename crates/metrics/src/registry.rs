//! Per-thread metric slots and the global registry aggregating them.
//!
//! Each thread that records metrics gets a `ThreadSlot` full of relaxed
//! atomics; the slot is registered with the global [`MetricsRegistry`] on
//! first use and stays alive (via `Arc`) even after the thread exits, so a
//! benchmark can join its worker threads and still read their totals.
//! Aggregation is snapshot-based: readers call [`MetricsRegistry::snapshot`]
//! before and after the measured interval and subtract.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::counters::{CounterKind, ALL_COUNTER_KINDS, COUNTER_KIND_COUNT};
use crate::timing::{TimeCategory, ALL_TIME_CATEGORIES, TIME_CATEGORY_COUNT};

/// Per-thread metric storage. All fields are written by the owning thread
/// with relaxed atomics and read by aggregators.
#[derive(Debug)]
pub(crate) struct ThreadSlot {
    time_nanos: [AtomicU64; TIME_CATEGORY_COUNT],
    counters: [AtomicU64; COUNTER_KIND_COUNT],
}

impl ThreadSlot {
    fn new() -> Self {
        Self {
            time_nanos: std::array::from_fn(|_| AtomicU64::new(0)),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Adds `nanos` to the given time category.
    pub(crate) fn add_time(&self, category: TimeCategory, nanos: u64) {
        self.time_nanos[category.index()].fetch_add(nanos, Ordering::Relaxed);
    }

    /// Adds `delta` to the given counter.
    pub(crate) fn incr(&self, kind: CounterKind, delta: u64) {
        self.counters[kind.index()].fetch_add(delta, Ordering::Relaxed);
    }
}

thread_local! {
    static THREAD_SLOT: RefCell<Option<Arc<ThreadSlot>>> = const { RefCell::new(None) };
}

/// Runs `f` with the calling thread's slot, creating and registering it on
/// first use.
pub(crate) fn with_thread_slot<R>(f: impl FnOnce(&ThreadSlot) -> R) -> R {
    THREAD_SLOT.with(|cell| {
        let mut slot = cell.borrow_mut();
        if slot.is_none() {
            let new_slot = Arc::new(ThreadSlot::new());
            global().register(Arc::clone(&new_slot));
            *slot = Some(new_slot);
        }
        f(slot.as_ref().expect("slot just initialized"))
    })
}

/// Global registry of all thread slots ever created in the process.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    slots: Mutex<Vec<Arc<ThreadSlot>>>,
}

impl MetricsRegistry {
    /// Creates an empty registry. Most callers use [`global`] instead.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    fn register(&self, slot: Arc<ThreadSlot>) {
        self.slots.lock().push(slot);
    }

    /// Sums every thread's totals into a [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let slots = self.slots.lock();
        let mut snap = Snapshot::default();
        for slot in slots.iter() {
            for category in ALL_TIME_CATEGORIES {
                snap.time_nanos[category.index()] +=
                    slot.time_nanos[category.index()].load(Ordering::Relaxed);
            }
            for kind in ALL_COUNTER_KINDS {
                snap.counters[kind.index()] += slot.counters[kind.index()].load(Ordering::Relaxed);
            }
        }
        snap
    }
}

static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();

/// The process-wide registry.
pub fn global() -> &'static MetricsRegistry {
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Snapshot of the *calling thread's* metrics only.
///
/// Useful for tests that need exact counts without interference from other
/// threads running in the same process (the global registry aggregates every
/// thread that ever recorded a metric).
pub fn current_thread_snapshot() -> Snapshot {
    with_thread_slot(|slot| {
        let mut snap = Snapshot::default();
        for category in ALL_TIME_CATEGORIES {
            snap.time_nanos[category.index()] =
                slot.time_nanos[category.index()].load(Ordering::Relaxed);
        }
        for kind in ALL_COUNTER_KINDS {
            snap.counters[kind.index()] = slot.counters[kind.index()].load(Ordering::Relaxed);
        }
        snap
    })
}

/// A point-in-time aggregation of every thread's metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    time_nanos: [u64; TIME_CATEGORY_COUNT],
    counters: [u64; COUNTER_KIND_COUNT],
}

impl Default for Snapshot {
    fn default() -> Self {
        Self {
            time_nanos: [0; TIME_CATEGORY_COUNT],
            counters: [0; COUNTER_KIND_COUNT],
        }
    }
}

impl Snapshot {
    /// Nanoseconds accumulated in `category`.
    pub fn nanos(&self, category: TimeCategory) -> u64 {
        self.time_nanos[category.index()]
    }

    /// Value of `kind`.
    pub fn counter(&self, kind: CounterKind) -> u64 {
        self.counters[kind.index()]
    }

    /// Component-wise difference `self - earlier` (saturating, so a snapshot
    /// taken on a registry that lost no data never underflows).
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let mut delta = Snapshot::default();
        for i in 0..TIME_CATEGORY_COUNT {
            delta.time_nanos[i] = self.time_nanos[i].saturating_sub(earlier.time_nanos[i]);
        }
        for i in 0..COUNTER_KIND_COUNT {
            delta.counters[i] = self.counters[i].saturating_sub(earlier.counters[i]);
        }
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_since_subtracts() {
        let mut a = Snapshot::default();
        let mut b = Snapshot::default();
        a.time_nanos[TimeCategory::Work.index()] = 100;
        b.time_nanos[TimeCategory::Work.index()] = 350;
        b.counters[CounterKind::TxnCommitted.index()] = 4;
        let delta = b.since(&a);
        assert_eq!(delta.nanos(TimeCategory::Work), 250);
        assert_eq!(delta.counter(CounterKind::TxnCommitted), 4);
    }

    #[test]
    fn since_saturates_instead_of_underflowing() {
        let mut a = Snapshot::default();
        a.time_nanos[TimeCategory::Work.index()] = 10;
        let b = Snapshot::default();
        assert_eq!(b.since(&a).nanos(TimeCategory::Work), 0);
    }

    #[test]
    fn registry_registers_each_thread_once() {
        let before = global().slots.lock().len();
        with_thread_slot(|_| {});
        with_thread_slot(|_| {});
        let after = global().slots.lock().len();
        // At most one new registration for this thread, never two.
        assert!(after <= before + 1);
    }
}
