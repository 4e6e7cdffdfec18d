//! Executors: the workers DORA couples with data.
//!
//! Each executor owns three structures (Section 4.1.3): a queue of incoming
//! actions, a queue of completed transactions and a private lock table.
//! Incoming work is served strictly in FIFO order; actions that conflict on
//! the local lock table are parked and retried when a completed-transaction
//! notification releases the blocking locks. Only actions that probe the
//! lock table arrive here: secondary and probe-free actions, which no
//! executor needs to serialize, run on the thread that dispatches their
//! phase.
//!
//! An executor is a *role*, not a thread. The inbox mutex guards
//! `(queue, claimed)`; the private structures sit behind the claim, and
//! whoever holds it — a dispatcher that found the inbox idle
//! (`InboxGuard::try_claim`), or the executor's resident thread
//! (`ExecutorShared::run_resident`) once woken — runs the batch through the
//! same code (`Claim::run`). A loaded executor is never found idle, so its
//! resident thread holds claims back to back, as in the paper; a lightly
//! loaded one is run by the threads that send it work, and nobody is woken.
//! A `Completed` wakes the resident thread only if something waits for the
//! locks it frees; otherwise it is read at the next claim.
//!
//! The executor also implements its side of the dataset-resize protocol
//! (Appendix A.2.1): on a `StartResize` message it stops serving actions of
//! *new* transactions until every transaction it already participates in has
//! left the system, signals the resource manager, and on `FinishResize`
//! re-dispatches the deferred actions through the (by then updated) routing
//! table. Control messages are read by the resident thread only.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex, MutexGuard};

use dora_common::prelude::*;
use dora_metrics::{incr, time_section, CounterKind, TimeCategory};

use crate::action::Action;
use crate::engine::EngineInner;
use crate::locallock::{LocalAcquire, LocalLockTable};
use crate::txn::DoraTxnInner;

/// Barrier used by the resource manager to wait for an executor to drain
/// during a routing-rule change.
#[derive(Debug, Default)]
pub struct ResizeBarrier {
    drained: Mutex<bool>,
    cond: Condvar,
}

impl ResizeBarrier {
    /// Creates a fresh barrier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the executor as drained and wakes the resource manager.
    pub fn signal(&self) {
        let mut drained = self.drained.lock();
        *drained = true;
        self.cond.notify_all();
    }

    /// Blocks until the executor has drained.
    pub fn wait(&self) {
        let mut drained = self.drained.lock();
        while !*drained {
            self.cond.wait(&mut drained);
        }
    }
}

/// Messages an executor can receive on its incoming queue.
pub(crate) enum Message {
    /// An action to execute.
    Action(Action),
    /// A transaction the executor participated in has committed or aborted:
    /// release its local locks and retry blocked actions (steps 10–12 of
    /// Figure 9).
    Completed(TxnId),
    /// Begin the dataset-resize drain protocol.
    StartResize(Arc<ResizeBarrier>),
    /// The routing rule has been updated; re-dispatch deferred actions and
    /// resume normal service.
    FinishResize,
    /// Terminate the executor thread.
    Shutdown,
}

impl std::fmt::Debug for Message {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Message::Action(action) => write!(f, "Action({action:?})"),
            Message::Completed(txn) => write!(f, "Completed({txn})"),
            Message::StartResize(_) => write!(f, "StartResize"),
            Message::FinishResize => write!(f, "FinishResize"),
            Message::Shutdown => write!(f, "Shutdown"),
        }
    }
}

impl Message {
    /// `true` for the messages any claim holder may run. The control
    /// messages (`StartResize` / `FinishResize` / `Shutdown`) are the resident
    /// thread's alone: a dispatcher never claims an inbox that holds one.
    fn is_work(&self) -> bool {
        matches!(self, Message::Action(_) | Message::Completed(_))
    }
}

/// How many times a dispatcher holding a claim goes back to the inbox for
/// what arrived while it ran: enough for the later phases and the `Completed`
/// of the transaction it is running to come back to it, never an open-ended
/// stream of other clients' work. Past it the claim is handed to the
/// resident thread.
const DISPATCHER_REFILLS: usize = 4;

/// What the inbox mutex guards.
#[derive(Default)]
struct Inbox {
    queue: VecDeque<Message>,
    /// Some thread — the resident one or a dispatcher — holds the executor
    /// role and will look at the queue again before it lets go.
    claimed: bool,
    /// The resident thread is asleep on `available`; nobody else ever is, so
    /// a notify with this unset would be a system call for nothing.
    parked: bool,
    /// The executor has parked waiters or a resize drain in progress, so a
    /// `Completed` must be read now. Written at claim release; the state it
    /// summarises only changes under a claim.
    wake_on_completed: bool,
}

impl Inbox {
    /// No control message is queued: a dispatcher may run all of it.
    fn holds_only_work(&self) -> bool {
        self.queue.iter().all(Message::is_work)
    }
}

/// A latched executor inbox. The dispatcher holds guards on every
/// destination of a phase before it claims or pushes anything, which is
/// DORA's atomic phase submission (Section 4.2.3). The guard refreshes the
/// lock-free depth mirror on release so [`ExecutorShared::queue_depth`] never
/// touches the inbox mutex.
pub(crate) struct InboxGuard<'a> {
    executor: &'a Arc<ExecutorShared>,
    inbox: MutexGuard<'a, Inbox>,
    /// Messages a claim took out of the queue under this latch: still this
    /// executor's backlog.
    taken: usize,
}

impl InboxGuard<'_> {
    /// Appends a message. Returns whether the resident thread must be woken
    /// once the latch is released: never when the inbox is claimed (the
    /// holder looks again before it lets go) and never for a `Completed`
    /// nobody is waiting for (it is read at the next claim, ahead of any
    /// later action).
    #[must_use = "wake the executor when asked to"]
    pub(crate) fn push(&mut self, message: Message) -> bool {
        let lazy = matches!(message, Message::Completed(_)) && !self.inbox.wake_on_completed;
        self.inbox.queue.push_back(message);
        !self.inbox.claimed && self.inbox.parked && !lazy
    }

    /// Takes the executor role and the pending messages if the inbox is
    /// unclaimed and holds nothing but work (the first messages of the
    /// returned claim's batch — per-source FIFO).
    pub(crate) fn try_claim(&mut self) -> Option<Claim> {
        if self.inbox.claimed || !self.inbox.holds_only_work() {
            return None;
        }
        Some(self.claim())
    }

    fn claim(&mut self) -> Claim {
        self.inbox.claimed = true;
        let batch = std::mem::take(&mut self.inbox.queue);
        self.taken = batch.len();
        Claim {
            executor: Arc::clone(self.executor),
            batch,
            released: false,
        }
    }
}

impl Drop for InboxGuard<'_> {
    fn drop(&mut self) {
        self.executor
            .depth
            .store(self.inbox.queue.len() + self.taken, Ordering::Relaxed);
    }
}

/// The executor-private structures of Section 4.1.3, touched only by the
/// thread that holds the claim.
#[derive(Default)]
struct ExecutorState {
    locks: LocalLockTable,
    /// Actions blocked on the local lock table, in arrival order.
    waiters: VecDeque<Parked>,
    /// Actions deferred while a dataset resize is draining.
    deferred: Vec<Action>,
    /// Barrier to signal once drained (while a resize is in progress).
    draining: Option<Arc<ResizeBarrier>>,
    /// Set after the drain barrier has been signalled but before
    /// `FinishResize` arrives.
    awaiting_rule: bool,
}

/// An executor: its identity, its inbox, and the state behind the claim.
pub(crate) struct ExecutorShared {
    /// Table this executor serves.
    pub table: TableId,
    /// Index of this executor within the table's executor list.
    pub index: usize,
    inbox: Mutex<Inbox>,
    available: Condvar,
    /// Lock-free mirror of the backlog, refreshed by whoever last held the
    /// inbox mutex. Lets monitoring threads (the adaptive controller's
    /// sampler) read backlogs without contending with the hot path.
    depth: AtomicUsize,
    /// Number of actions served, read by the resource manager for load
    /// balancing.
    served: AtomicU64,
    /// Locked only by the claim holder, so never contended: the mutex is
    /// what lets the state change hands between threads in safe code.
    state: Mutex<ExecutorState>,
}

impl ExecutorShared {
    pub(crate) fn new(table: TableId, index: usize) -> Self {
        Self {
            table,
            index,
            inbox: Mutex::new(Inbox::default()),
            available: Condvar::new(),
            depth: AtomicUsize::new(0),
            served: AtomicU64::new(0),
            state: Mutex::new(ExecutorState::default()),
        }
    }

    /// Enqueues a single message, waking the resident thread if it has to
    /// be the one to read it.
    pub(crate) fn enqueue(self: &Arc<Self>, message: Message) {
        if self.lock_inbox().push(message) {
            self.notify();
        }
    }

    /// Latches the inbox. Call [`Self::notify`] after the guard drops if a
    /// push asked for it.
    pub(crate) fn lock_inbox(self: &Arc<Self>) -> InboxGuard<'_> {
        InboxGuard {
            executor: self,
            inbox: self.inbox.lock(),
            taken: 0,
        }
    }

    /// Wakes the resident thread.
    pub(crate) fn notify(&self) {
        self.available.notify_one();
    }

    /// The resident thread's loop: sleep until the inbox is unclaimed and
    /// holds something, claim it, run until it is empty. Under load the
    /// inbox is never empty at release and the thread holds its claims back
    /// to back, which is the paper's executor; when dispatchers find the
    /// executor idle they run its work themselves and this thread is left
    /// asleep.
    pub(crate) fn run_resident(self: &Arc<Self>, engine: &Arc<EngineInner>) {
        loop {
            let claim = {
                let mut guard = self.lock_inbox();
                while guard.inbox.claimed || guard.inbox.queue.is_empty() {
                    guard.inbox.parked = true;
                    self.available.wait(&mut guard.inbox);
                    guard.inbox.parked = false;
                }
                guard.claim()
            };
            if claim.run(engine, false) {
                return;
            }
        }
    }

    /// Number of actions this executor has served so far.
    pub(crate) fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Current backlog (diagnostics / load sampling). Reads the atomic
    /// mirror — never the inbox mutex — so samplers cannot contend with the
    /// message hot path.
    pub(crate) fn queue_depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }
}

/// The executor role, held: exactly one thread at a time runs an executor's
/// messages against its private state. Dropping a claim that was not
/// released (unwinding) puts the unread messages back at the head of the
/// inbox and releases it, so a panic outside [`ExecutorWorker::execute`]'s
/// supervision cannot wedge the executor.
pub(crate) struct Claim {
    executor: Arc<ExecutorShared>,
    /// Messages to run, oldest first.
    batch: VecDeque<Message>,
    released: bool,
}

impl Claim {
    /// Appends a message behind the ones taken from the inbox.
    pub(crate) fn push(&mut self, message: Message) {
        self.batch.push_back(message);
    }

    /// Runs the batch, then whatever arrived meanwhile — all of it for the
    /// resident thread; for a dispatcher (`inline`) at most
    /// [`DISPATCHER_REFILLS`] refills and never a control message — and
    /// releases the claim. Returns `true` when `Shutdown` was read.
    pub(crate) fn run(mut self, engine: &Arc<EngineInner>, inline: bool) -> bool {
        let executor = Arc::clone(&self.executor);
        let mut worker = ExecutorWorker {
            shared: &executor,
            engine,
            state: executor.state.lock(),
            inline,
        };
        let mut refills = 0;
        loop {
            incr(CounterKind::InboxDrains);
            while let Some(message) = self.batch.pop_front() {
                match message {
                    Message::Shutdown => return true,
                    Message::Action(action) => worker.handle_incoming(action),
                    Message::Completed(txn) => worker.handle_completed(txn),
                    Message::StartResize(barrier) => worker.start_resize(barrier),
                    Message::FinishResize => worker.finish_resize(),
                }
            }
            let wake_on_completed =
                !worker.state.waiters.is_empty() || worker.state.draining.is_some();
            let mut inbox = executor.inbox.lock();
            let refill = !inbox.queue.is_empty()
                && (!inline || (refills < DISPATCHER_REFILLS && inbox.holds_only_work()));
            if !refill {
                self.release(inbox, wake_on_completed);
                return false;
            }
            // Swapped, not taken: while a claim lasts the two buffers
            // ping-pong between producers and consumer without
            // reallocating.
            std::mem::swap(&mut inbox.queue, &mut self.batch);
            executor.depth.store(self.batch.len(), Ordering::Relaxed);
            refills += 1;
        }
    }

    /// Gives the role up. A non-empty inbox is handed to the resident thread
    /// with a wake.
    fn release(&mut self, mut inbox: MutexGuard<'_, Inbox>, wake_on_completed: bool) {
        while let Some(message) = self.batch.pop_back() {
            inbox.queue.push_front(message);
        }
        inbox.claimed = false;
        inbox.wake_on_completed = wake_on_completed;
        let wake = inbox.parked && !inbox.queue.is_empty();
        self.executor
            .depth
            .store(inbox.queue.len(), Ordering::Relaxed);
        drop(inbox);
        if wake {
            self.executor.notify();
        }
        self.released = true;
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        if !self.released {
            let executor = Arc::clone(&self.executor);
            // What the state needs is unknown mid-unwind: wake on everything.
            self.release(executor.inbox.lock(), true);
        }
    }
}

/// An action parked on the local lock table, together with the wait edges
/// it registered in the global deadlock detector — so that resolving this
/// wait removes exactly these edges and no others (the same transaction may
/// be parked at other executors at the same time).
struct Parked {
    action: Action,
    waits_on: Vec<TxnId>,
}

/// One thread running as an executor for the length of a claim.
struct ExecutorWorker<'a> {
    shared: &'a ExecutorShared,
    engine: &'a Arc<EngineInner>,
    state: MutexGuard<'a, ExecutorState>,
    /// The claim is held by a dispatcher, not the resident thread.
    inline: bool,
}

impl ExecutorWorker<'_> {
    fn start_resize(&mut self, barrier: Arc<ResizeBarrier>) {
        self.state.draining = Some(barrier);
        self.state.awaiting_rule = false;
        self.maybe_signal_drained();
    }

    fn handle_incoming(&mut self, action: Action) {
        // During a drain, actions of transactions this executor is not yet
        // involved with are deferred; transactions that already hold local
        // locks here must keep making progress or the drain would never
        // complete.
        if self.state.draining.is_some() && !self.state.locks.holds_any(action.txn.id()) {
            self.state.deferred.push(action);
            return;
        }
        self.handle_action(action);
    }

    fn handle_action(&mut self, action: Action) {
        self.shared.served.fetch_add(1, Ordering::Relaxed);
        incr(CounterKind::ActionsExecuted);
        if self.inline {
            incr(CounterKind::ActionsInlined);
        }
        if action.txn.is_aborted() {
            // The transaction was aborted by another action (e.g. invalid
            // input in TM1); executing this action would be wasted work, but
            // it must still report to its RVP.
            incr(CounterKind::WastedActions);
            self.finish_action(&action.txn, action.phase);
            return;
        }
        self.acquire_and_run(action);
    }

    /// Runs the action if its local lock is granted, parks it otherwise.
    fn acquire_and_run(&mut self, action: Action) {
        match self
            .state
            .locks
            .acquire(action.txn.id(), &action.identifier, action.mode)
        {
            LocalAcquire::Granted => {
                action
                    .txn
                    .note_involved(self.shared.table, self.shared.index);
                self.execute(action);
            }
            LocalAcquire::Conflict(owners) => self.park(action, owners),
        }
    }

    /// Feeds the wait into the storage manager's deadlock detector
    /// (Section 4.2.3) and parks the action. If an edge closes a cycle the
    /// transaction is aborted instead: the edges registered so far are
    /// withdrawn and the action reports to its RVP without parking.
    fn park(&mut self, action: Action, owners: Vec<TxnId>) {
        let mut registered = Vec::with_capacity(owners.len());
        for owner in owners {
            match self
                .engine
                .db()
                .lock_manager()
                .add_external_wait(action.txn.id(), owner)
            {
                Ok(()) => registered.push(owner),
                Err(deadlock) => {
                    self.engine
                        .db()
                        .lock_manager()
                        .remove_external_waits(action.txn.id(), &registered);
                    action.txn.mark_aborted(deadlock);
                    incr(CounterKind::WastedActions);
                    self.finish_action(&action.txn, action.phase);
                    return;
                }
            }
        }
        self.state.waiters.push_back(Parked {
            action,
            waits_on: registered,
        });
    }

    /// Executes an action body under supervision
    /// ([`EngineInner::run_body`]) and reports it to its RVP: a panic aborts
    /// only the owning transaction, and the executor goes on with its batch.
    fn execute(&mut self, action: Action) {
        let Action {
            txn, phase, body, ..
        } = action;
        self.engine.run_body(&txn, body);
        self.finish_action(&txn, phase);
    }

    /// Reports an action to its phase RVP and, if this report zeroed the RVP,
    /// initiates the next phase or the commit (Section 4.1.2).
    fn finish_action(&mut self, txn: &Arc<DoraTxnInner>, phase: usize) {
        self.engine.report_and_advance(txn, phase);
    }

    fn handle_completed(&mut self, txn: TxnId) {
        time_section(TimeCategory::EngineOverhead, || {
            self.state.locks.release_txn(txn);
            self.engine.db().lock_manager().remove_external_wait(txn);
        });
        self.retry_waiters();
        self.maybe_signal_drained();
    }

    /// Retries parked actions in FIFO order after a completion freed locks.
    /// Each retry first withdraws the wait edges the parked action had
    /// registered, then either runs the action or re-parks it against its
    /// *current* blockers — lock ownership may have changed while it waited,
    /// and stale edges (or missing fresh ones) would blind the deadlock
    /// detector.
    fn retry_waiters(&mut self) {
        let parked = std::mem::take(&mut self.state.waiters);
        for Parked { action, waits_on } in parked {
            self.engine
                .db()
                .lock_manager()
                .remove_external_waits(action.txn.id(), &waits_on);
            if action.txn.is_aborted() {
                incr(CounterKind::WastedActions);
                self.finish_action(&action.txn, action.phase);
                continue;
            }
            self.acquire_and_run(action);
        }
    }

    fn maybe_signal_drained(&mut self) {
        if self.state.awaiting_rule {
            return;
        }
        if let Some(barrier) = &self.state.draining {
            if self.state.locks.is_empty() && self.state.waiters.is_empty() {
                barrier.signal();
                self.state.awaiting_rule = true;
            }
        }
    }

    /// The routing rule has been updated: push the deferred actions back
    /// through the engine (they may now belong to a different executor) and
    /// resume normal service.
    fn finish_resize(&mut self) {
        self.state.draining = None;
        self.state.awaiting_rule = false;
        let deferred = std::mem::take(&mut self.state.deferred);
        for action in deferred {
            self.engine.redispatch(action);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resize_barrier_blocks_until_signal() {
        let barrier = Arc::new(ResizeBarrier::new());
        let barrier2 = Arc::clone(&barrier);
        let waiter = std::thread::spawn(move || barrier2.wait());
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(!waiter.is_finished());
        barrier.signal();
        waiter.join().unwrap();
    }

    fn idle_executor() -> Arc<ExecutorShared> {
        Arc::new(ExecutorShared::new(TableId(1), 0))
    }

    fn completed_ids(batch: &VecDeque<Message>) -> Vec<TxnId> {
        batch
            .iter()
            .map(|message| match message {
                Message::Completed(txn) => *txn,
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    #[test]
    fn claim_takes_pending_messages_first_in_fifo_order() {
        let shared = idle_executor();
        for id in 1..=3 {
            shared.enqueue(Message::Completed(TxnId(id)));
        }
        assert_eq!(shared.queue_depth(), 3);
        let mut claim = shared.lock_inbox().try_claim().expect("idle inbox");
        claim.push(Message::Completed(TxnId(4)));
        assert_eq!(
            completed_ids(&claim.batch),
            (1..=4).map(TxnId).collect::<Vec<_>>()
        );
        assert_eq!(
            shared.queue_depth(),
            3,
            "messages a claim took are still backlog"
        );
    }

    #[test]
    fn a_claimed_inbox_is_pushed_to_and_never_woken() {
        let shared = idle_executor();
        let claim = shared.lock_inbox().try_claim().expect("idle inbox");
        let mut inbox = shared.lock_inbox();
        assert!(inbox.try_claim().is_none(), "one holder at a time");
        assert!(!inbox.push(Message::Completed(TxnId(1))));
        drop(inbox);
        assert_eq!(shared.queue_depth(), 1);
        drop(claim);
    }

    #[test]
    fn dispatchers_leave_control_messages_to_the_resident_thread() {
        let shared = idle_executor();
        shared.enqueue(Message::Completed(TxnId(1)));
        shared.enqueue(Message::FinishResize);
        assert!(shared.lock_inbox().try_claim().is_none());
        assert_eq!(shared.queue_depth(), 2, "nothing was consumed");
    }

    #[test]
    fn an_unwinding_claim_puts_its_batch_back_and_releases() {
        let shared = idle_executor();
        shared.enqueue(Message::Completed(TxnId(1)));
        shared.enqueue(Message::Completed(TxnId(2)));
        let shared2 = Arc::clone(&shared);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _claim = shared2.lock_inbox().try_claim().expect("idle inbox");
            shared2.enqueue(Message::Completed(TxnId(3)));
            std::panic::panic_any(InjectedPanic);
        }));
        assert!(unwound.is_err());
        let claim = shared
            .lock_inbox()
            .try_claim()
            .expect("the panic released the claim");
        assert_eq!(
            completed_ids(&claim.batch),
            vec![TxnId(1), TxnId(2), TxnId(3)],
            "unread messages return to the head of the inbox"
        );
    }

    #[test]
    fn only_a_parked_resident_thread_is_woken_and_not_for_a_lazy_completed() {
        let shared = idle_executor();
        // Nobody is parked: no push asks for a wake.
        assert!(!shared.lock_inbox().push(Message::FinishResize));
        shared.lock_inbox().inbox.queue.clear();

        shared.lock_inbox().inbox.parked = true;
        assert!(
            !shared.lock_inbox().push(Message::Completed(TxnId(1))),
            "no waiter, no drain: the Completed is read at the next claim"
        );
        assert!(shared.lock_inbox().push(Message::FinishResize));

        shared.lock_inbox().inbox.wake_on_completed = true;
        assert!(shared.lock_inbox().push(Message::Completed(TxnId(2))));
    }
}
