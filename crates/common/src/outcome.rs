//! Transaction outcome vocabulary shared by every execution engine.
//!
//! These used to live in the engine crate, but they are pure vocabulary: the
//! workloads produce them, the load driver counts them, and every execution
//! architecture — conventional, DORA, or anything a future PR adds — reports
//! them. Keeping them here lets the workload crate stay independent of any
//! particular engine.

/// Outcome of one transaction attempt as seen by the load driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnOutcome {
    /// Committed.
    Committed,
    /// Aborted for a workload reason (e.g. TM1's invalid input) and not
    /// retried. An engine reports every other failure as an error; only
    /// callers that fold errors away (the load driver) count one here.
    Aborted,
    /// Every attempt ended as a deadlock victim, so the engine exhausted its
    /// deadlock-retry budget. Kept distinct from [`Aborted`](Self::Aborted):
    /// a workload abort is expected input behaviour, retry exhaustion is a
    /// contention signal.
    GaveUp,
}

impl TxnOutcome {
    /// `true` for any non-committed outcome.
    pub fn is_failure(self) -> bool {
        !matches!(self, TxnOutcome::Committed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_a_commit_is_a_success() {
        assert!(!TxnOutcome::Committed.is_failure());
        assert!(TxnOutcome::Aborted.is_failure());
        assert!(TxnOutcome::GaveUp.is_failure());
    }
}
