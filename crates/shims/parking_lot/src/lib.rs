//! Offline shim for the subset of `parking_lot` this workspace uses.
//!
//! The build environment has no network access, so the real crate cannot be
//! fetched. This shim wraps `std::sync` primitives behind `parking_lot`'s
//! non-poisoning API: `lock()`/`read()`/`write()` return guards directly and
//! a panicked holder never poisons the lock (we recover the inner guard).
//!
//! Non-poisoning is a deliberate workspace-wide decision, not a convenience:
//! the executor-supervision layer (`dora-core`/`dora-engine`) catches panics
//! at action boundaries and *quarantines the transaction*, then keeps the
//! worker thread serving. Under `std`'s poisoning semantics, a caught panic
//! that had briefly held any shared storage lock (lock-manager shards, log
//! queues, buffer-pool latches) would wedge every later `unwrap()` on that
//! lock — turning one supervised, rolled-back transaction into a
//! process-wide outage. Data integrity across such a panic is instead
//! guaranteed by the transactional machinery itself (undo via the per-txn
//! log chain), which is strictly stronger than poisoning's "taint everything
//! the panicking thread could see" heuristic. The audit rule for the
//! workspace: every shared-state lock and condvar goes through this shim (no
//! raw `std::sync::{Mutex, Condvar, RwLock}` in any crate's `src/`, which CI
//! checks), so there is no poisoned-lock `unwrap()` to get wrong.
//! `poisoned_lock_recovers` below pins the recovery behavior.
//!
//! **No wake-up for nothing.** `std`'s futex condvar makes a system call
//! on every notify, sleeper or not; the real `parking_lot` skips a notify
//! nobody waits for, and so does this [`Condvar`]: it counts its sleepers,
//! and `notify_one`/`notify_all` return at once while the count is 0. A
//! waiter adds itself to the count while it still holds the guard, before
//! `std`'s wait releases the mutex, and takes itself off after the wait
//! returns. That is safe for every caller that keeps the standard condvar
//! discipline:
//!
//! * a notifier changes the waited-for predicate under the condvar's mutex,
//!   *or* locks and releases that mutex after the change and before it
//!   notifies (the *lock touch*, for predicates held in atomics written
//!   outside the mutex);
//! * a waiter checks the predicate under the mutex and waits without
//!   releasing it in between.
//!
//! Why that is enough: the notifier's critical section (the change, or the
//! touch) is ordered with the waiter's check by the mutex. If it comes
//! first, the waiter sees the change and never sleeps. If it comes second,
//! the waiter was counted before it released the mutex, so the notifier —
//! which loads the count after it has held the mutex — sees a sleeper and
//! notifies; `std`'s wait reads its futex word before it releases the mutex
//! and sleeps only if the word is unchanged, so a notify that lands between
//! the release and the sleep is not lost either. A notifier that publishes
//! outside the mutex and skips the touch, or that loads the count before it
//! publishes, can lose a wake-up, and so can a waiter counted only after it
//! released the mutex. The interleaving explorer in this crate's tests
//! (`explore.rs`) finds all three and finds none for the rule above.
//! Callers that keep the rule need no "parked" flag of their own.
//!
//! Only the API surface the workspace actually calls is provided; extend it
//! here if new call sites need more.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

#[cfg(test)]
mod explore;

/// A mutual exclusion primitive (non-poisoning `lock()` API).
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the underlying data.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
        }
    }

    /// Attempts to acquire the mutex without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(guard) => Some(MutexGuard { inner: Some(guard) }),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(MutexGuard {
                inner: Some(e.into_inner()),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Returns a mutable reference to the underlying data (no locking).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(guard) => f.debug_struct("Mutex").field("data", &&*guard).finish(),
            None => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

/// RAII guard for [`Mutex`].
///
/// The inner std guard lives in an `Option` so [`Condvar`] can temporarily
/// take it while waiting and put the reacquired guard back.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Outcome of a [`Condvar::wait_for`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// `true` if the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// A condition variable usable with this module's [`Mutex`]. A notify with
/// no thread asleep on it costs one atomic load (see the crate doc for the
/// rule a notifier keeps).
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
    /// Threads inside `wait`/`wait_for`. Written while the waiter holds the
    /// mutex, so the mutex orders it with every notifier's critical section;
    /// the atomic ordering itself can be relaxed.
    sleepers: AtomicUsize,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Self {
            inner: std::sync::Condvar::new(),
            sleepers: AtomicUsize::new(0),
        }
    }

    /// Blocks until notified, releasing the guarded mutex while waiting.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let std_guard = guard.inner.take().expect("guard present");
        self.sleepers.fetch_add(1, Ordering::Relaxed);
        let reacquired = self
            .inner
            .wait(std_guard)
            .unwrap_or_else(|e| e.into_inner());
        self.sleepers.fetch_sub(1, Ordering::Relaxed);
        guard.inner = Some(reacquired);
    }

    /// Blocks until notified or `timeout` elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let std_guard = guard.inner.take().expect("guard present");
        self.sleepers.fetch_add(1, Ordering::Relaxed);
        let (reacquired, result) = self
            .inner
            .wait_timeout(std_guard, timeout)
            .unwrap_or_else(|e| e.into_inner());
        self.sleepers.fetch_sub(1, Ordering::Relaxed);
        guard.inner = Some(reacquired);
        WaitTimeoutResult {
            timed_out: result.timed_out(),
        }
    }

    /// Wakes one waiting thread, if there is one.
    pub fn notify_one(&self) {
        if self.sleepers.load(Ordering::Relaxed) > 0 {
            self.inner.notify_one();
        }
    }

    /// Wakes all waiting threads, if there are any.
    pub fn notify_all(&self) {
        if self.sleepers.load(Ordering::Relaxed) > 0 {
            self.inner.notify_all();
        }
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad("Condvar { .. }")
    }
}

/// A reader-writer lock (non-poisoning `read()`/`write()` API).
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a new reader-writer lock.
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the underlying data.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access, blocking until available.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(|e| e.into_inner()),
        }
    }

    /// Acquires exclusive write access, blocking until available.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(|e| e.into_inner()),
        }
    }

    /// Returns a mutable reference to the underlying data (no locking).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RwLock").finish_non_exhaustive()
    }
}

/// RAII shared-read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

/// RAII exclusive-write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_guards_exclusive_access() {
        let m = Arc::new(Mutex::new(0u64));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 4000);
    }

    #[test]
    fn try_lock_contends() {
        let m = Mutex::new(1);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn condvar_wait_and_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let waiter = std::thread::spawn(move || {
            let (lock, cvar) = &*pair2;
            let mut ready = lock.lock();
            while !*ready {
                cvar.wait(&mut ready);
            }
        });
        std::thread::sleep(Duration::from_millis(20));
        let (lock, cvar) = &*pair;
        *lock.lock() = true;
        cvar.notify_all();
        waiter.join().unwrap();
    }

    #[test]
    fn a_notify_with_no_sleeper_leaves_the_count_at_zero() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        cv.notify_one();
        cv.notify_all();
        assert_eq!(cv.sleepers.load(Ordering::Relaxed), 0);
        let mut guard = m.lock();
        cv.wait_for(&mut guard, Duration::from_millis(1));
        assert_eq!(
            cv.sleepers.load(Ordering::Relaxed),
            0,
            "a timed-out wait uncounts"
        );
    }

    #[test]
    fn ping_pong_hands_a_token_back_and_forth_without_losing_a_wake() {
        const ROUNDS: u64 = 100_000;
        // Whose turn it is: player `p` moves on the rounds with `round % 2 == p`.
        let pair = Arc::new((Mutex::new(0u64), Condvar::new()));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let players: Vec<_> = (0..2)
            .map(|player| {
                let pair = Arc::clone(&pair);
                let done_tx = done_tx.clone();
                std::thread::spawn(move || {
                    let (round, cv) = &*pair;
                    let mut round = round.lock();
                    while *round < ROUNDS {
                        if *round % 2 == player {
                            *round += 1;
                            cv.notify_one();
                        } else {
                            cv.wait(&mut round);
                        }
                    }
                    drop(round);
                    let _ = done_tx.send(());
                })
            })
            .collect();
        // A watchdog, not a join: a lost wake-up fails the test, not hangs it.
        for _ in 0..2 {
            done_rx
                .recv_timeout(Duration::from_secs(60))
                .expect("a lost wake-up stalled the ping-pong");
        }
        for player in players {
            player.join().unwrap();
        }
        assert_eq!(*pair.0.lock(), ROUNDS);
        assert_eq!(pair.1.sleepers.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut guard = m.lock();
        let result = cv.wait_for(&mut guard, Duration::from_millis(10));
        assert!(result.timed_out());
    }

    #[test]
    fn rwlock_allows_parallel_readers() {
        let l = RwLock::new(7);
        let r1 = l.read();
        let r2 = l.read();
        assert_eq!(*r1 + *r2, 14);
        drop((r1, r2));
        *l.write() = 9;
        assert_eq!(*l.read(), 9);
    }

    #[test]
    fn poisoned_lock_recovers() {
        let m = Arc::new(Mutex::new(5));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock(), 5, "shim must not propagate poisoning");
    }
}
