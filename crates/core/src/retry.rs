//! The deadlock-retry policy, written once for every execution architecture.
//!
//! A deadlock victim did nothing wrong: the lock manager picked it to break a
//! cycle, so an OLTP system resubmits it, as a Shore-MT worker thread does.
//! Both engines run their attempts through [`retry_deadlocks`], so a client
//! sees the same outcome for the same failure on either one.

use dora_common::prelude::*;
use dora_metrics::{incr, CounterKind};

/// Runs `attempt` until it stops failing with [`DbError::Deadlock`], at most
/// `max_retries + 1` times.
///
/// The attempt owns one whole transaction: begin, body, commit, and abort on
/// failure. This function owns the policy:
///
/// * `Ok(())` → `Ok(Committed)`;
/// * [`DbError::Deadlock`] → run the attempt again;
/// * [`DbError::TxnAborted`] (a workload abort, e.g. TM1's invalid input) →
///   `Ok(Aborted)`, not retried;
/// * any other error → `Err`, not retried (a [`DbError::DurabilityLost`]
///   commit must never be re-run);
/// * retries used up → `Ok(GaveUp)`, counted under
///   [`CounterKind::TxnGaveUp`] so retry exhaustion stays visible.
pub fn retry_deadlocks(
    max_retries: usize,
    mut attempt: impl FnMut() -> DbResult<()>,
) -> DbResult<TxnOutcome> {
    for _ in 0..=max_retries {
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
