//! Spin latches with contention accounting.
//!
//! Shore-MT protects the physical consistency of its in-memory structures
//! with latches; the paper's testbed uses a preemption-resistant variation of
//! the MCS queue-based spinlock and reports that, for the CPU loads studied,
//! spinning beats blocking (the paper's reference \[12\]). The time threads
//! spend *spinning on latches
//! inside the lock manager* is exactly the "Lock Mgr Cont." component of the
//! paper's time breakdowns, so our latch records the time it spends spinning
//! into a caller-supplied [`TimeCategory`].
//!
//! The implementation is a test-and-test-and-set spinlock with exponential
//! backoff and eventual `yield_now`, which gives the same qualitative
//! behaviour (contention grows super-linearly with the number of waiters) as
//! the MCS lock while staying simple. The latch owns its protected data, like
//! `std::sync::Mutex`.

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use dora_metrics::{incr, record_time, CounterKind, TimeCategory};

/// Number of busy-spin iterations before the waiter starts yielding the CPU.
/// Mirrors the "preemption resistant" flavour of the paper's MCS latch: after
/// a bounded spin we give the scheduler a chance to run the holder.
const SPIN_BEFORE_YIELD: u32 = 128;

/// A spin latch protecting a value of type `T`.
#[derive(Debug)]
pub struct Latch<T> {
    locked: AtomicBool,
    data: UnsafeCell<T>,
}

// Safety: the latch provides mutual exclusion for access to `data`, exactly
// like a mutex; `T: Send` is required to move the protected value across the
// threads that may acquire the latch.
unsafe impl<T: Send> Send for Latch<T> {}
unsafe impl<T: Send> Sync for Latch<T> {}

impl<T> Latch<T> {
    /// Creates a latch protecting `value`.
    pub(crate) fn new(value: T) -> Self {
        Self {
            locked: AtomicBool::new(false),
            data: UnsafeCell::new(value),
        }
    }

    /// Acquires the latch, charging any spin time to `contention_category`.
    ///
    /// The fast path (latch free, single compare-and-swap) performs no timing
    /// at all so that un-contended acquisitions stay cheap, mirroring how
    /// latch costs only become visible under contention.
    pub(crate) fn lock(&self, contention_category: TimeCategory) -> LatchGuard<'_, T> {
        if self
            .locked
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            incr(CounterKind::LatchFastPath);
            return LatchGuard { latch: self };
        }
        self.lock_slow(contention_category)
    }

    #[cold]
    fn lock_slow(&self, contention_category: TimeCategory) -> LatchGuard<'_, T> {
        incr(CounterKind::LatchContended);
        let start = Instant::now();
        let mut spins: u32 = 0;
        loop {
            // Test-and-test-and-set: spin on a plain load to avoid hammering
            // the cache line with RMW operations.
            while self.locked.load(Ordering::Relaxed) {
                spins = spins.wrapping_add(1);
                if spins < SPIN_BEFORE_YIELD {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
            if self
                .locked
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                record_time(contention_category, start.elapsed());
                return LatchGuard { latch: self };
            }
        }
    }
}

/// RAII guard for a held [`Latch`]. Dereferences to the protected value and
/// releases the latch on drop.
#[derive(Debug)]
pub(crate) struct LatchGuard<'a, T> {
    latch: &'a Latch<T>,
}

impl<T> Deref for LatchGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // Safety: the guard's existence proves we hold the latch.
        unsafe { &*self.latch.data.get() }
    }
}

impl<T> DerefMut for LatchGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // Safety: the guard's existence proves we hold the latch exclusively.
        unsafe { &mut *self.latch.data.get() }
    }
}

impl<T> Drop for LatchGuard<'_, T> {
    fn drop(&mut self) {
        self.latch.locked.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn provides_mutual_exclusion() {
        let latch = Arc::new(Latch::new(0u64));
        let threads = 8;
        let iterations = 10_000;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let latch = Arc::clone(&latch);
                std::thread::spawn(move || {
                    for _ in 0..iterations {
                        let mut guard = latch.lock(TimeCategory::OtherContention);
                        *guard += 1;
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(
            *latch.lock(TimeCategory::OtherContention),
            threads * iterations
        );
    }

    #[test]
    fn contention_is_recorded() {
        use dora_metrics::global;
        let before = global().snapshot();
        let latch = Arc::new(Latch::new(()));
        let guard = latch.lock(TimeCategory::LockMgrAcquireContention);
        let latch2 = Arc::clone(&latch);
        let waiter = std::thread::spawn(move || {
            let _guard = latch2.lock(TimeCategory::LockMgrAcquireContention);
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
        drop(guard);
        waiter.join().unwrap();
        let delta = global().snapshot().since(&before);
        assert!(delta.nanos(TimeCategory::LockMgrAcquireContention) >= 1_000_000);
        assert!(delta.counter(CounterKind::LatchContended) >= 1);
    }
}
