//! The deadlock-retry policy, written once for every execution architecture.
//!
//! A deadlock victim did nothing wrong: the lock manager picked it to break a
//! cycle, so an OLTP system resubmits it, as a Shore-MT worker thread does.
//! Both engines run their attempts through [`retry_deadlocks`], so a client
//! sees the same outcome for the same failure on either one.

use std::hash::BuildHasher;
use std::time::Duration;

use dora_common::prelude::*;
use dora_metrics::{incr, CounterKind};

/// Ceiling of the wait before the first retry, in microseconds: about one
/// short transaction, long enough for the survivor of the cycle to finish.
const BACKOFF_BASE_MICROS: u64 = 50;

/// The ceiling doubles per retry up to this, in microseconds.
const BACKOFF_CAP_MICROS: u64 = 5_000;

/// Runs `attempt` until it stops failing with [`DbError::Deadlock`], at most
/// `max_retries + 1` times.
///
/// The attempt owns one whole transaction: begin, body, commit, and abort on
/// failure. This function owns the policy:
///
/// * `Ok(())` → `Ok(Committed)`;
/// * [`DbError::Deadlock`] → wait a random backoff, then run the attempt
///   again;
/// * [`DbError::TxnAborted`] (a workload abort, e.g. TM1's invalid input) →
///   `Ok(Aborted)`, not retried;
/// * any other error → `Err`, not retried (a [`DbError::DurabilityLost`]
///   commit must never be re-run);
/// * retries used up → `Ok(GaveUp)`, counted under
///   [`CounterKind::TxnGaveUp`] so retry exhaustion stays visible.
///
/// The backoff is drawn uniformly from zero to a ceiling that starts at
/// 50 µs and doubles per retry up to 5 ms. Two transactions that lock the same rows in
/// opposite orders and retry at once meet in the same cycle again; a random
/// wait lets one finish before the other comes back.
pub fn retry_deadlocks(
    max_retries: usize,
    mut attempt: impl FnMut() -> DbResult<()>,
) -> DbResult<TxnOutcome> {
    for retry in 0..=max_retries {
        if retry > 0 {
            std::thread::sleep(backoff(retry));
        }
        match attempt() {
            Ok(()) => return Ok(TxnOutcome::Committed),
            Err(DbError::Deadlock { .. }) => continue,
            Err(DbError::TxnAborted { .. }) => return Ok(TxnOutcome::Aborted),
            Err(other) => return Err(other),
        }
    }
    incr(CounterKind::TxnGaveUp);
    Ok(TxnOutcome::GaveUp)
}

/// The wait before retry number `retry` (from 1): uniform in
/// `0..=min(BASE · 2^(retry − 1), CAP)` microseconds.
fn backoff(retry: usize) -> Duration {
    let doublings = (retry - 1).min(16) as u32;
    let ceiling = (BACKOFF_BASE_MICROS << doublings).min(BACKOFF_CAP_MICROS);
    // A fresh `RandomState` carries fresh keys, so this is a cheap random
    // draw with no generator to share between threads.
    let draw = std::collections::hash_map::RandomState::new().hash_one(retry);
    Duration::from_micros(draw % (ceiling + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_stays_under_a_ceiling_that_doubles_up_to_the_cap() {
        for retry in 1..=12 {
            let ceiling = (BACKOFF_BASE_MICROS << (retry - 1)).min(BACKOFF_CAP_MICROS);
            for _ in 0..64 {
                assert!(backoff(retry) <= Duration::from_micros(ceiling));
            }
        }
        let draws: std::collections::HashSet<_> = (0..64).map(|_| backoff(8)).collect();
        assert!(draws.len() > 1, "the wait is random");
    }
}
