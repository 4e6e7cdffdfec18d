//! An exhaustive interleaving explorer for the [`Condvar`](crate::Condvar)
//! wake-up rule (test only).
//!
//! Each thread runs a small step program over one shared model of the shim:
//! the mutex, one waited-for predicate, the condvar's sleeper count and the
//! futex word `std`'s condvar sleeps on. A futex wait is three steps, as in
//! `std`: read the word under the mutex, release the mutex, and sleep only
//! if the word is unchanged. A notify bumps the word and wakes every
//! sleeper; the shim skips it when the count it read was 0.
//!
//! The search is a depth-first walk over every interleaving, with visited
//! states hashed, so it is exhaustive for the 2–3 threads of each model. It
//! reports a *lost wake-up*: a reachable state in which no thread can move
//! and a waiter sleeps although its predicate holds.

use std::collections::HashSet;

/// One step of a thread's program.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Take the mutex; not runnable while another thread holds it.
    Lock,
    /// Release the mutex.
    Unlock,
    /// Jump to the given step if the predicate holds.
    IfPublished(usize),
    /// Make the predicate hold.
    Publish,
    /// Add this thread to the sleeper count.
    Count,
    /// Take this thread off the sleeper count.
    Uncount,
    /// Read the futex word into a local.
    ReadWord,
    /// Sleep if the futex word still equals the local, until a notify.
    Sleep,
    /// Read the sleeper count into a local.
    ReadCount,
    /// The shim's `notify_all`: if the local count is non-zero, bump the
    /// futex word and wake every sleeper.
    Notify,
    /// Jump to the given step.
    Goto(usize),
}

/// A waiter that keeps the rule: counted under the mutex, before the wait
/// releases it; re-checks after every wake.
const WAITER: &[Op] = &[
    Op::Lock,
    Op::IfPublished(9),
    Op::Count,
    Op::ReadWord,
    Op::Unlock,
    Op::Sleep,
    Op::Lock,
    Op::Uncount,
    Op::Goto(1),
    Op::Unlock,
];

/// Mutant: the waiter counts itself only after it released the mutex.
const WAITER_COUNTS_LATE: &[Op] = &[
    Op::Lock,
    Op::IfPublished(9),
    Op::ReadWord,
    Op::Unlock,
    Op::Count,
    Op::Sleep,
    Op::Lock,
    Op::Uncount,
    Op::Goto(1),
    Op::Unlock,
];

/// Publishes under the mutex and notifies after releasing it (`OneShot`,
/// the executor inbox).
const PUBLISH_UNDER_MUTEX: &[Op] = &[Op::Lock, Op::Publish, Op::Unlock, Op::ReadCount, Op::Notify];

/// Publishes under the mutex and notifies while still holding it.
const NOTIFY_UNDER_MUTEX: &[Op] = &[Op::Lock, Op::Publish, Op::ReadCount, Op::Notify, Op::Unlock];

/// Publishes outside the mutex (an atomic), then locks and releases it
/// before notifying: the log's flush horizon.
const PUBLISH_THEN_TOUCH: &[Op] = &[Op::Publish, Op::Lock, Op::Unlock, Op::ReadCount, Op::Notify];

/// Mutant: publishes outside the mutex and skips the lock touch.
const PUBLISH_WITHOUT_TOUCH: &[Op] = &[Op::Publish, Op::ReadCount, Op::Notify];

/// Mutant: reads the sleeper count before it publishes.
const COUNT_BEFORE_PUBLISH: &[Op] = &[Op::ReadCount, Op::Lock, Op::Publish, Op::Unlock, Op::Notify];

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Thread {
    pc: usize,
    word: u32,
    count: usize,
    asleep: bool,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct State {
    threads: Vec<Thread>,
    holder: Option<usize>,
    published: bool,
    sleepers: usize,
    word: u32,
}

/// What a search found.
#[derive(Debug)]
struct Report {
    /// Distinct states visited.
    states: usize,
    /// The first lost wake-up's schedule (thread ids, in step order).
    lost_wake: Option<Vec<usize>>,
}

/// Explores every interleaving of `programs`, one thread each.
fn explore(programs: &[&[Op]]) -> Report {
    let start = State {
        threads: vec![
            Thread {
                pc: 0,
                word: 0,
                count: 0,
                asleep: false,
            };
            programs.len()
        ],
        holder: None,
        published: false,
        sleepers: 0,
        word: 0,
    };
    let mut search = Search {
        programs,
        visited: HashSet::new(),
        schedule: Vec::new(),
    };
    let lost_wake = search.visit(start);
    Report {
        states: search.visited.len(),
        lost_wake,
    }
}

struct Search<'a> {
    programs: &'a [&'a [Op]],
    visited: HashSet<State>,
    schedule: Vec<usize>,
}

impl Search<'_> {
    fn visit(&mut self, state: State) -> Option<Vec<usize>> {
        if !self.visited.insert(state.clone()) {
            return None;
        }
        let mut moved = false;
        for thread in 0..self.programs.len() {
            let Some(next) = self.step(&state, thread) else {
                continue;
            };
            moved = true;
            self.schedule.push(thread);
            if let Some(found) = self.visit(next) {
                return Some(found);
            }
            self.schedule.pop();
        }
        if moved {
            return None;
        }
        let stuck_asleep = state.threads.iter().any(|t| t.asleep);
        if stuck_asleep && state.published {
            return Some(self.schedule.clone());
        }
        assert!(
            state.holder.is_none() && !stuck_asleep,
            "a quiescent state other than a lost wake-up: {state:?}"
        );
        assert_eq!(state.sleepers, 0, "every counted sleeper uncounts itself");
        None
    }

    /// The state after `thread` takes its next step, or `None` if it cannot.
    fn step(&self, state: &State, thread: usize) -> Option<State> {
        let me = state.threads[thread];
        let op = *self.programs[thread].get(me.pc)?;
        if me.asleep {
            return None;
        }
        let mut next = state.clone();
        let t = &mut next.threads[thread];
        t.pc += 1;
        match op {
            Op::Lock => {
                if state.holder.is_some() {
                    return None;
                }
                next.holder = Some(thread);
            }
            Op::Unlock => {
                assert_eq!(state.holder, Some(thread), "unlock by a non-holder");
                next.holder = None;
            }
            Op::IfPublished(target) => {
                if state.published {
                    t.pc = target;
                }
            }
            Op::Publish => next.published = true,
            Op::Count => next.sleepers += 1,
            Op::Uncount => next.sleepers -= 1,
            Op::ReadWord => t.word = state.word,
            Op::Sleep => t.asleep = t.word == state.word,
            Op::ReadCount => t.count = state.sleepers,
            Op::Notify => {
                if t.count > 0 {
                    next.word += 1;
                    for other in &mut next.threads {
                        other.asleep = false;
                    }
                }
            }
            Op::Goto(target) => t.pc = target,
        }
        Some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_safe(programs: &[&[Op]]) {
        let report = explore(programs);
        assert!(
            report.lost_wake.is_none(),
            "lost wake-up in {programs:?}: schedule {:?}",
            report.lost_wake
        );
        assert!(report.states > programs.len(), "the search ran");
    }

    fn assert_lost(programs: &[&[Op]]) {
        let report = explore(programs);
        let schedule = report
            .lost_wake
            .unwrap_or_else(|| panic!("no counterexample for {programs:?}"));
        assert!(!schedule.is_empty());
    }

    #[test]
    fn the_rule_as_written_loses_no_wake_up() {
        for notifier in [PUBLISH_UNDER_MUTEX, NOTIFY_UNDER_MUTEX, PUBLISH_THEN_TOUCH] {
            assert_safe(&[WAITER, notifier]);
            assert_safe(&[WAITER, WAITER, notifier]);
            assert_safe(&[WAITER, notifier, notifier]);
        }
        assert_safe(&[WAITER, PUBLISH_UNDER_MUTEX, PUBLISH_THEN_TOUCH]);
    }

    #[test]
    fn a_sleeper_counted_after_the_mutex_is_released_is_lost() {
        assert_lost(&[WAITER_COUNTS_LATE, PUBLISH_UNDER_MUTEX]);
        assert_lost(&[WAITER_COUNTS_LATE, PUBLISH_THEN_TOUCH]);
    }

    #[test]
    fn publishing_outside_the_mutex_without_the_lock_touch_is_lost() {
        assert_lost(&[WAITER, PUBLISH_WITHOUT_TOUCH]);
    }

    #[test]
    fn reading_the_count_before_publishing_is_lost() {
        assert_lost(&[WAITER, COUNT_BEFORE_PUBLISH]);
    }
}
