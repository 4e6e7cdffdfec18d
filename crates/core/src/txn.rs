//! Per-transaction state for DORA executions: the program, the rendezvous
//! point, the involved-executor set, the abort flag and the client
//! completion signal — built with one allocation.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use dora_common::prelude::*;
use dora_common::sync::OneShot;
use dora_common::InlineVec;
use dora_storage::{CommitHandle, TxnHandle};

use crate::action::Scratch;
use crate::program::TxnProgram;

/// A rendezvous point: a countdown of the actions that still have to report
/// before the next phase (or the commit, for the terminal RVP) may start.
#[derive(Debug)]
pub(crate) struct Rvp {
    remaining: AtomicUsize,
}

impl Rvp {
    /// Creates an RVP expecting `count` reports.
    pub(crate) fn new(count: usize) -> Self {
        Self {
            remaining: AtomicUsize::new(count),
        }
    }

    /// Re-arms a zeroed RVP for the next phase's `count` reports. Phases run
    /// one after the other, so one RVP serves them all: the reporter that
    /// zeroed it re-arms it before it dispatches the next phase, and no
    /// report of the finished phase is left to arrive.
    pub(crate) fn arm(&self, count: usize) {
        self.remaining.store(count, Ordering::Release);
    }

    /// Reports one action's completion; returns `true` if this report zeroed
    /// the RVP (and the caller must therefore initiate the next phase).
    pub(crate) fn report(&self) -> bool {
        let previous = self.remaining.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(previous > 0, "RVP reported more times than it has actions");
        previous == 1
    }
}

/// `(table, executor)` pairs kept in place: a TM1 or TPC-B transaction
/// involves at most three, a TPC-C NewOrder five (which spills).
const INVOLVED_INLINE: usize = 4;

/// Internal, shared state of one DORA transaction.
pub(crate) struct DoraTxnInner {
    /// The storage-level transaction.
    pub handle: TxnHandle,
    /// The scratchpad shared by the transaction's actions.
    pub scratch: Scratch,
    /// The program: the shared plan whose steps the actions run, and this
    /// transaction's parameters.
    pub(crate) program: TxnProgram,
    /// Number of DORA phases of the program.
    phases: usize,
    /// The RVP of the running phase, re-armed for each next one.
    pub rvp: Rvp,
    /// Set when any action fails; later actions of the transaction are
    /// skipped and the terminal step rolls back instead of committing.
    aborted: AtomicBool,
    /// First abort reason observed.
    abort_reason: Mutex<Option<DbError>>,
    /// Executors (table, executor index) that executed at least one action
    /// and therefore hold local locks to be released at completion.
    involved: Mutex<InlineVec<(TableId, usize), INVOLVED_INLINE>>,
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
            .field("program", &self.program.name())
            .field("phases", &self.phases)
            .field("aborted", &self.is_aborted())
            .finish()
    }
}

impl DoraTxnInner {
    /// Builds the per-transaction state for `program`, its RVP armed for
    /// phase 0.
    pub(crate) fn new(handle: TxnHandle, program: TxnProgram, client_waits: bool) -> Arc<Self> {
        let phases = program.dora_phase_count();
        let first = program.dora_phase(0).len();
        Arc::new(Self {
            handle,
            scratch: Scratch::new(),
            program,
            phases,
            rvp: Rvp::new(first),
            aborted: AtomicBool::new(false),
            abort_reason: Mutex::new(None),
            involved: Mutex::new(InlineVec::new()),
            completion: OneShot::new(),
            client_waits,
            precommitted: Mutex::new(None),
        })
    }

    /// The storage transaction id.
    pub(crate) fn id(&self) -> TxnId {
        self.handle.id()
    }

    /// Number of phases in the flow graph.
    pub(crate) fn phase_count(&self) -> usize {
        self.phases
    }

    /// The program steps of `phase`.
    pub(crate) fn phase_steps(&self, phase: usize) -> Range<usize> {
        self.program.dora_phase(phase)
    }

    /// Marks the transaction aborted, retaining the first reason.
    pub(crate) fn mark_aborted(&self, reason: DbError) {
        if !self.aborted.swap(true, Ordering::AcqRel) {
            *self.abort_reason.lock() = Some(reason);
        }
    }

    /// `true` once any action has failed.
    pub(crate) fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
    }

    /// Moves the first abort reason out, if any (the terminal RVP hands it
    /// to the client once).
    pub(crate) fn take_abort_reason(&self) -> Option<DbError> {
        self.abort_reason.lock().take()
    }

    /// Records that an executor participated in the transaction.
    pub(crate) fn note_involved(&self, table: TableId, executor: usize) {
        let mut involved = self.involved.lock();
        if !involved.iter().any(|entry| *entry == (table, executor)) {
            involved.push((table, executor));
        }
    }

    /// The executors noted so far.
    pub(crate) fn involved(&self) -> InlineVec<(TableId, usize), INVOLVED_INLINE> {
        self.involved.lock().clone()
    }
}

/// Public handle for a submitted DORA transaction, used by callers that want
/// to overlap submission with other work before waiting for the outcome.
#[derive(Debug, Clone)]
pub struct DoraTxn {
    pub(crate) inner: Arc<DoraTxnInner>,
}

impl DoraTxn {
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
    use crate::action::{ActionSpec, LocalMode};
    use crate::flow::FlowGraph;
    use dora_storage::Database;

    fn spec(id: i64) -> ActionSpec {
        ActionSpec::new("test", TableId(0), Key::int(id), LocalMode::Shared, |_| {
            Ok(())
        })
    }

    fn program(phases: Vec<Vec<ActionSpec>>) -> TxnProgram {
        phases
            .into_iter()
            .fold(FlowGraph::new(), FlowGraph::phase_with)
            .into_program()
    }

    #[test]
    fn rvp_reports_zero_exactly_once() {
        let rvp = Rvp::new(3);
        assert!(!rvp.report());
        assert!(!rvp.report());
        assert_eq!(rvp.remaining.load(Ordering::Acquire), 1);
        assert!(rvp.report());
        rvp.arm(2);
        assert!(!rvp.report());
        assert!(rvp.report());
    }

    #[test]
    fn completion_wakes_waiter() {
        let db = Database::for_tests();
        let txn = DoraTxn {
            inner: DoraTxnInner::new(db.begin(), program(vec![vec![spec(1)]]), true),
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
        let txn = DoraTxnInner::new(
            db.begin(),
            program(vec![vec![spec(1)], vec![spec(2)]]),
            false,
        );
        assert_eq!(txn.phase_count(), 2);
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
        match txn.take_abort_reason() {
            Some(DbError::TxnAborted { reason, .. }) => assert_eq!(reason, "first"),
            other => panic!("unexpected reason {other:?}"),
        }
        assert!(txn.take_abort_reason().is_none(), "moved out once");
    }

    #[test]
    fn involved_executors_are_deduplicated() {
        let db = Database::for_tests();
        let txn = DoraTxnInner::new(db.begin(), program(vec![vec![spec(1)]]), false);
        txn.note_involved(TableId(1), 0);
        txn.note_involved(TableId(1), 0);
        txn.note_involved(TableId(2), 1);
        assert_eq!(txn.involved().len(), 2);
    }
}
