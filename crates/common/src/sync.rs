//! The one-shot signal every "set once, wake the waiter" hand-off uses: a
//! client waiting for its transaction's outcome, the resource manager
//! waiting for an executor to drain, a blocked lock request waiting for its
//! grant, and the threads told to stop.

use std::sync::OnceLock;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

/// A value set at most once, and the threads that wait for it.
///
/// The first [`set`](Self::set) wins and later ones are ignored.
/// [`get`](Self::get) reads the published value without locking. The value
/// is published under the mutex the waiters check it with, which is the
/// `parking_lot` shim's wake-up rule, so a `set` that nobody waits for
/// costs no system call.
#[derive(Debug)]
pub struct OneShot<T> {
    value: OnceLock<T>,
    lock: Mutex<()>,
    cond: Condvar,
}

impl<T> Default for OneShot<T> {
    fn default() -> Self {
        Self {
            value: OnceLock::new(),
            lock: Mutex::new(()),
            cond: Condvar::new(),
        }
    }
}

impl<T: Clone> OneShot<T> {
    /// An unset signal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes `value` and wakes every waiter, unless a value is already
    /// set, in which case `value` is dropped.
    pub fn set(&self, value: T) {
        let guard = self.lock.lock();
        let first = self.value.set(value).is_ok();
        drop(guard);
        if first {
            self.cond.notify_all();
        }
    }

    /// The value, if one is set.
    pub fn get(&self) -> Option<T> {
        self.value.get().cloned()
    }

    /// Blocks until a value is set.
    pub fn wait(&self) -> T {
        if let Some(value) = self.get() {
            return value;
        }
        let mut guard = self.lock.lock();
        loop {
            if let Some(value) = self.get() {
                return value;
            }
            self.cond.wait(&mut guard);
        }
    }

    /// Blocks until a value is set or `deadline` passes, whichever is first.
    /// A wake with nothing set sleeps again until the same deadline.
    pub fn wait_until(&self, deadline: Instant) -> Option<T> {
        let mut guard = self.lock.lock();
        loop {
            if let Some(value) = self.get() {
                return Some(value);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            self.cond.wait_for(&mut guard, deadline - now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn a_value_set_before_the_wait_is_returned_at_once() {
        let shot = OneShot::new();
        assert_eq!(shot.get(), None);
        shot.set(7);
        assert_eq!(shot.get(), Some(7));
        assert_eq!(shot.wait(), 7);
        assert_eq!(shot.wait_until(Instant::now()), Some(7));
    }

    #[test]
    fn a_waiter_parked_before_the_set_is_woken() {
        let shot = Arc::new(OneShot::new());
        let waiter = {
            let shot = Arc::clone(&shot);
            std::thread::spawn(move || shot.wait())
        };
        std::thread::sleep(Duration::from_millis(10));
        assert!(!waiter.is_finished());
        shot.set("done");
        assert_eq!(waiter.join().unwrap(), "done");
    }

    #[test]
    fn the_first_set_wins() {
        let shot = OneShot::new();
        shot.set(1);
        shot.set(2);
        assert_eq!(shot.wait(), 1);
    }

    #[test]
    fn wait_until_returns_none_at_its_deadline() {
        let shot = OneShot::<()>::new();
        let start = Instant::now();
        assert_eq!(shot.wait_until(start + Duration::from_millis(20)), None);
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn a_wake_with_nothing_set_does_not_extend_the_deadline() {
        let shot = Arc::new(OneShot::<()>::new());
        let start = Instant::now();
        let deadline = start + Duration::from_millis(100);
        let waiter = {
            let shot = Arc::clone(&shot);
            std::thread::spawn(move || (shot.wait_until(deadline), Instant::now()))
        };
        // Wake the sleeper every few milliseconds with nothing set, for far
        // longer than its deadline: a wait that restarted its timeout on
        // each wake would outlast the whole barrage.
        let barrage = start + Duration::from_secs(3);
        while !waiter.is_finished() && Instant::now() < barrage {
            drop(shot.lock.lock());
            shot.cond.notify_all();
            std::thread::sleep(Duration::from_millis(2));
        }
        let (outcome, returned) = waiter.join().unwrap();
        assert_eq!(outcome, None);
        assert!(returned >= deadline);
        assert!(
            returned < barrage,
            "the deadline was restarted: waited {:?}",
            returned - start
        );
    }
}
