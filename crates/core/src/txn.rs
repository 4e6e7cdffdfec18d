//! Per-transaction state for DORA executions: rendezvous points, the
//! involved-executor set, the abort flag and the client completion signal.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use dora_common::prelude::*;
use dora_common::sync::OneShot;
use dora_storage::{CommitHandle, TxnHandle};

use crate::action::{ActionSpec, Scratch};

/// A rendezvous point: a countdown of the actions that still have to report
/// before the next phase (or the commit, for the terminal RVP) may start.
#[derive(Debug)]
pub struct Rvp {
    remaining: AtomicUsize,
}

impl Rvp {
    /// Creates an RVP expecting `count` reports.
    pub fn new(count: usize) -> Self {
        Self {
            remaining: AtomicUsize::new(count),
        }
    }

    /// Reports one action's completion; returns `true` if this report zeroed
    /// the RVP (and the caller must therefore initiate the next phase).
    pub fn report(&self) -> bool {
        let previous = self.remaining.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(previous > 0, "RVP reported more times than it has actions");
        previous == 1
    }

    /// Remaining reports (diagnostics).
    pub fn remaining(&self) -> usize {
        self.remaining.load(Ordering::Acquire)
    }
}

/// Internal, shared state of one DORA transaction.
pub struct DoraTxnInner {
    /// The storage-level transaction.
    pub handle: TxnHandle,
    /// The scratchpad shared by the transaction's actions.
    pub scratch: Scratch,
    /// Phases not yet dispatched (phase 0 is dispatched immediately, so entry
    /// 0 is always `None` once execution starts).
    pub pending_phases: Mutex<Vec<Option<Vec<ActionSpec>>>>,
    /// One RVP per phase.
    pub rvps: Vec<Rvp>,
    /// Set when any action fails; later actions of the transaction are
    /// skipped and the terminal step rolls back instead of committing.
    aborted: AtomicBool,
    /// First abort reason observed.
    abort_reason: Mutex<Option<DbError>>,
    /// Executors (table, executor index) that executed at least one action
    /// and therefore hold local locks to be released at completion.
    pub involved: Mutex<HashSet<(TableId, usize)>>,
    /// The outcome the submitting client blocks on.
    pub completion: OneShot<DbResult<()>>,
    /// The submitting client blocks for the outcome in the same call that
    /// submitted, so it is there to harden the commit on its own thread.
    pub client_waits: bool,
    /// Where the terminal RVP leaves the precommitted transaction for a
    /// waiting client, before it finishes `completion`.
    pub precommitted: Mutex<Option<CommitHandle>>,
}

impl std::fmt::Debug for DoraTxnInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DoraTxnInner")
            .field("id", &self.id())
            .field("phases", &self.rvps.len())
            .field("aborted", &self.is_aborted())
            .finish()
    }
}

impl DoraTxnInner {
    /// Builds the per-transaction state from an instantiated flow graph.
    pub fn new(handle: TxnHandle, phases: Vec<Vec<ActionSpec>>, client_waits: bool) -> Arc<Self> {
        let rvps = phases.iter().map(|p| Rvp::new(p.len())).collect();
        let pending_phases = phases.into_iter().map(Some).collect();
        Arc::new(Self {
            handle,
            scratch: Scratch::new(),
            pending_phases: Mutex::new(pending_phases),
            rvps,
            aborted: AtomicBool::new(false),
            abort_reason: Mutex::new(None),
            involved: Mutex::new(HashSet::new()),
            completion: OneShot::new(),
            client_waits,
            precommitted: Mutex::new(None),
        })
    }

    /// The storage transaction id.
    pub fn id(&self) -> TxnId {
        self.handle.id()
    }

    /// Number of phases in the flow graph.
    pub fn phase_count(&self) -> usize {
        self.rvps.len()
    }

    /// Marks the transaction aborted, retaining the first reason.
    pub fn mark_aborted(&self, reason: DbError) {
        if !self.aborted.swap(true, Ordering::AcqRel) {
            *self.abort_reason.lock() = Some(reason);
        }
    }

    /// `true` once any action has failed.
    pub fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
    }

    /// The first abort reason, if any.
    pub fn abort_reason(&self) -> Option<DbError> {
        self.abort_reason.lock().clone()
    }

    /// Records that an executor participated in the transaction.
    pub fn note_involved(&self, table: TableId, executor: usize) {
        self.involved.lock().insert((table, executor));
    }
}

/// Public handle for a submitted DORA transaction, used by callers that want
/// to overlap submission with other work before waiting for the outcome.
#[derive(Debug, Clone)]
pub struct DoraTxn {
    pub(crate) inner: Arc<DoraTxnInner>,
}

impl DoraTxn {
    /// The transaction id.
    pub fn id(&self) -> TxnId {
        self.inner.id()
    }

    /// Blocks until the transaction commits or aborts.
    pub fn wait(&self) -> DbResult<()> {
        self.inner.completion.wait()
    }

    /// `true` if the outcome is already known.
    pub fn is_done(&self) -> bool {
        self.inner.completion.get().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::LocalMode;
    use dora_storage::Database;

    fn spec(id: i64) -> ActionSpec {
        ActionSpec::new("test", TableId(0), Key::int(id), LocalMode::Shared, |_| {
            Ok(())
        })
    }

    #[test]
    fn rvp_reports_zero_exactly_once() {
        let rvp = Rvp::new(3);
        assert!(!rvp.report());
        assert!(!rvp.report());
        assert_eq!(rvp.remaining(), 1);
        assert!(rvp.report());
    }

    #[test]
    fn completion_wakes_waiter() {
        let db = Database::for_tests();
        let txn = DoraTxn {
            inner: DoraTxnInner::new(db.begin(), vec![vec![spec(1)]], true),
        };
        let waiter = {
            let txn = txn.clone();
            std::thread::spawn(move || txn.wait())
        };
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(!txn.is_done());
        txn.inner.completion.set(Ok(()));
        assert!(waiter.join().unwrap().is_ok());
        assert!(txn.is_done());
    }

    #[test]
    fn abort_keeps_first_reason() {
        let db = Database::for_tests();
        let txn = DoraTxnInner::new(db.begin(), vec![vec![spec(1)], vec![spec(2)]], false);
        assert!(!txn.is_aborted());
        txn.mark_aborted(DbError::TxnAborted {
            txn: txn.id(),
            reason: "first".into(),
        });
        txn.mark_aborted(DbError::TxnAborted {
            txn: txn.id(),
            reason: "second".into(),
        });
        assert!(txn.is_aborted());
        match txn.abort_reason() {
            Some(DbError::TxnAborted { reason, .. }) => assert_eq!(reason, "first"),
            other => panic!("unexpected reason {other:?}"),
        }
    }

    #[test]
    fn involved_executors_are_deduplicated() {
        let db = Database::for_tests();
        let txn = DoraTxnInner::new(db.begin(), vec![vec![spec(1)]], false);
        txn.note_involved(TableId(1), 0);
        txn.note_involved(TableId(1), 0);
        txn.note_involved(TableId(2), 1);
        assert_eq!(txn.involved.lock().len(), 2);
    }
}
