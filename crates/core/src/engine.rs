//! The DORA engine: binding executors to data, dispatching transaction flow
//! graphs, and the terminal-RVP commit protocol.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Mutex, RwLock};

use dora_common::prelude::*;
use dora_metrics::{incr, incr_by, time_section, CounterKind, TimeCategory};
use dora_storage::Database;

use crate::action::{Action, ActionBody, ActionContext, ActionSpec};
use crate::config::DoraConfig;
use crate::executor::{Claim, ExecutorShared, InboxGuard, Message, ResizeBarrier};
use crate::flow::FlowGraph;
use crate::routing::{RoutingRule, RoutingTable};
use crate::txn::{DoraTxn, DoraTxnInner};

/// Engine-internal shared state (referenced by every executor thread).
pub(crate) struct EngineInner {
    db: Arc<Database>,
    config: DoraConfig,
    routing: RoutingTable,
    executors: RwLock<Vec<Vec<Arc<ExecutorShared>>>>,
    /// Routing-key domain `[low, high]` per table, recorded at bind time so
    /// the adaptive repartitioner knows the span it may redistribute.
    domains: RwLock<Vec<Option<(i64, i64)>>>,
    /// `(table, label)` pairs already flagged for silently falling back to
    /// the secondary path (routed step with an empty identifier). Reset for
    /// a table each time it is bound, so every bind gets one warning per
    /// offending step.
    warned_secondary: Mutex<HashSet<(TableId, &'static str)>>,
    shutting_down: AtomicBool,
}

impl EngineInner {
    /// The storage manager.
    pub(crate) fn db(&self) -> &Database {
        &self.db
    }

    fn executors_for(&self, table: TableId) -> DbResult<Vec<Arc<ExecutorShared>>> {
        let executors = self.executors.read();
        executors
            .get(table.0 as usize)
            .filter(|list| !list.is_empty())
            .cloned()
            .ok_or_else(|| DbError::NoSuchObject(format!("executors for {table}")))
    }

    fn executor(&self, table: TableId, index: usize) -> DbResult<Arc<ExecutorShared>> {
        self.executors
            .read()
            .get(table.0 as usize)
            .and_then(|list| list.get(index))
            .cloned()
            .ok_or_else(|| DbError::NoSuchObject(format!("executor {index} of {table}")))
    }

    /// Dispatches one phase of a transaction: routes each action to its
    /// executor and submits them *atomically* — the inboxes of every involved
    /// executor are latched (in a global executor order) before any action is
    /// placed, which is DORA's deadlock-avoidance rule for transactions
    /// sharing a flow graph (Section 4.2.3). Destinations found idle are
    /// claimed and their batches run by the calling thread once the latches
    /// are released; busy ones are pushed to. Actions no executor has to
    /// serialize — secondary ones (empty identifier, Section 4.2.2) and
    /// probe-free ones ([`ActionSpec::elide_probe`]) — are never routed:
    /// the calling thread runs them after the claimed batches.
    pub(crate) fn dispatch_phase(self: &Arc<Self>, txn: &Arc<DoraTxnInner>, phase: usize) {
        let specs = {
            let mut pending = txn.pending_phases.lock();
            match pending.get_mut(phase).and_then(Option::take) {
                Some(specs) => specs,
                None => return,
            }
        };
        let mut unrouted = Vec::new();
        let mut routed: Vec<(Arc<ExecutorShared>, Action)> = Vec::new();
        for spec in specs {
            if spec.is_secondary() && !spec.declared_secondary {
                // Undeclared fallback: a routed step whose identifier
                // carried no routing fields. Counted on every dispatch so
                // benchmarks can see the rate; warned once per step.
                incr(CounterKind::SecondaryFallbacks);
                self.warn_undeclared_secondary(spec.table, spec.label);
            }
            if spec.is_secondary() || spec.elide_probe {
                unrouted.push(spec);
                continue;
            }
            match self.route_spec(txn, phase, spec) {
                Ok(pair) => routed.push(pair),
                Err(error) => {
                    // Routing failures abort the transaction; the action is
                    // reported as finished so the RVP still converges.
                    txn.mark_aborted(error);
                    self.report_and_advance(txn, phase);
                }
            }
        }

        if !routed.is_empty() {
            // The section ends before the claimed batches run: their time
            // is the actions', not the engine's.
            let claims = time_section(TimeCategory::EngineOverhead, || self.push_phase(routed));
            for claim in claims {
                claim.run(self, true);
            }
        }

        // Secondary actions run on this thread — the thread that submitted
        // the phase — using the routing fields stored in the secondary index
        // leaves to reach the right records (Section 4.2.2). Probe-free ones
        // join them: the conflict matrix proved no action of the workload
        // conflicts with them, so there is nothing for an executor to order.
        for spec in unrouted {
            self.execute_unrouted(txn, phase, spec);
        }
    }

    /// Flags a routed step that silently fell back to the secondary path
    /// because its identifier carried none of the table's routing fields —
    /// almost always a workload authoring bug (the step meant to route but
    /// its key columns don't cover the routing fields). Warned once per
    /// `(table, step label)` per bind so a hot loop cannot flood stderr; the
    /// bind-time conflict-analysis coverage report lists the same steps up
    /// front for workloads that declare templates, and the
    /// `SecondaryFallbacks` counter records every occurrence.
    fn warn_undeclared_secondary(&self, table: TableId, label: &'static str) {
        if self.warned_secondary.lock().insert((table, label)) {
            eprintln!(
                "warning: step `{label}` on {table} has no routing fields and fell back to \
                 the secondary path; declare it with Step::secondary (or fix its route) if \
                 that is intended — see the bind-time routing coverage report"
            );
        }
    }

    /// Submits one phase's routed actions grouped per destination executor:
    /// every destination inbox is latched in the global executor order before
    /// anything is placed (DORA's deadlock-avoidance rule for transactions
    /// sharing a flow graph, Section 4.2.3). While all latches are held, each
    /// destination is either claimed — it was idle, and its pending messages
    /// plus this phase's actions become a batch the caller must run — or
    /// pushed to; two transactions with the same flow graph therefore still
    /// reach every shared executor in the same order. After the latches are
    /// released only the destinations that were pushed to, are unclaimed and
    /// have their resident thread asleep are woken. Message counters are
    /// bumped once per batch, not once per message.
    fn push_phase(&self, mut routed: Vec<(Arc<ExecutorShared>, Action)>) -> Vec<Claim> {
        // Stable sort: groups actions by destination while preserving each
        // destination's arrival order (per-source FIFO).
        routed.sort_by_key(|(executor, _)| (executor.table.0, executor.index));
        let mut targets: Vec<Arc<ExecutorShared>> = Vec::with_capacity(routed.len());
        for (executor, _) in &routed {
            if targets
                .last()
                .is_none_or(|last| !Arc::ptr_eq(last, executor))
            {
                targets.push(Arc::clone(executor));
            }
        }
        // Per destination: the claim taken, if it was idle, and whether a
        // push asked for a wake. Declared before the latches so that an
        // unwind drops the latches first: releasing a claim takes its latch.
        let mut claims: Vec<Option<Claim>> = Vec::with_capacity(targets.len());
        let mut wake = vec![false; targets.len()];
        let mut guards: Vec<InboxGuard<'_>> = targets
            .iter()
            .map(|executor| executor.lock_inbox())
            .collect();
        claims.extend(guards.iter_mut().map(InboxGuard::try_claim));
        let messages = routed.len() as u64;
        let mut slot = 0usize;
        for (executor, action) in routed {
            if !Arc::ptr_eq(&targets[slot], &executor) {
                slot += 1;
            }
            match &mut claims[slot] {
                Some(claim) => claim.push(Message::Action(action)),
                None => wake[slot] |= guards[slot].push(Message::Action(action)),
            }
        }
        incr_by(CounterKind::DoraMessages, messages);
        incr_by(CounterKind::DispatchBatches, targets.len() as u64);
        drop(guards);
        for (target, wake) in targets.iter().zip(wake) {
            if wake {
                target.notify();
            }
        }
        claims.into_iter().flatten().collect()
    }

    fn route_spec(
        &self,
        txn: &Arc<DoraTxnInner>,
        phase: usize,
        spec: ActionSpec,
    ) -> DbResult<(Arc<ExecutorShared>, Action)> {
        let index = self
            .routing
            .route(spec.table, &spec.identifier)?
            .ok_or_else(|| DbError::InvalidOperation("unroutable non-secondary action".into()))?;
        let executor = self.executor(spec.table, index)?;
        let action = Action {
            txn: Arc::clone(txn),
            table: spec.table,
            identifier: spec.identifier,
            mode: spec.mode,
            phase,
            label: spec.label,
            body: spec.body,
        };
        Ok((executor, action))
    }

    /// Re-routes an action after a routing-rule change (used by the resize
    /// protocol when a draining executor hands back deferred actions).
    pub(crate) fn redispatch(self: &Arc<Self>, action: Action) {
        let table = action.table;
        let identifier = action.identifier.clone();
        match self.routing.route(table, &identifier) {
            Ok(Some(index)) => {
                if let Ok(executor) = self.executor(table, index) {
                    executor.enqueue(Message::Action(action));
                    incr(CounterKind::DoraMessages);
                    incr(CounterKind::DispatchBatches);
                    return;
                }
                let txn = Arc::clone(&action.txn);
                let phase = action.phase;
                txn.mark_aborted(DbError::NoSuchObject(format!("executor for {table}")));
                self.report_and_advance(&txn, phase);
            }
            Ok(None) | Err(_) => {
                let txn = Arc::clone(&action.txn);
                let phase = action.phase;
                txn.mark_aborted(DbError::InvalidOperation(
                    "unroutable action after resize".into(),
                ));
                self.report_and_advance(&txn, phase);
            }
        }
    }

    /// Runs a secondary or probe-free action on the calling thread and
    /// reports it to its RVP. No local lock is taken, so the transaction is
    /// not noted as involved: nothing needs releasing here at completion.
    fn execute_unrouted(self: &Arc<Self>, txn: &Arc<DoraTxnInner>, phase: usize, spec: ActionSpec) {
        incr(CounterKind::ActionsExecuted);
        if txn.is_aborted() {
            incr(CounterKind::WastedActions);
        } else {
            if spec.elide_probe {
                incr(CounterKind::LockProbesElided);
            }
            self.run_body(txn, spec.body);
        }
        self.report_and_advance(txn, phase);
    }

    /// Runs one action body under supervision, whichever thread runs it —
    /// an executor's claim holder or the thread dispatching a phase: a
    /// panic, injected by the chaos plan or a genuine bug, aborts and
    /// quarantines the owning transaction instead of unwinding through the
    /// runner. The caller reports the action to its RVP either way, so the
    /// phase converges and finalize releases the transaction's local locks.
    pub(crate) fn run_body(&self, txn: &DoraTxnInner, body: ActionBody) {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let faults = self.db.faults();
            if faults.enabled() && faults.should_inject(FaultSite::ExecutorPanic) {
                incr(CounterKind::FaultsInjected);
                std::panic::panic_any(InjectedPanic);
            }
            body(&ActionContext {
                db: &self.db,
                txn: &txn.handle,
                scratch: &txn.scratch,
            })
        }));
        match outcome {
            Ok(Ok(())) => {}
            Ok(Err(error)) => txn.mark_aborted(error),
            Err(_payload) => {
                incr(CounterKind::ExecutorPanicsRecovered);
                txn.mark_aborted(DbError::TxnAborted {
                    txn: txn.id(),
                    reason: "action panicked; quarantined by supervision".into(),
                });
            }
        }
    }

    /// Reports one action completion to the phase RVP, advancing the
    /// transaction when the RVP reaches zero.
    pub(crate) fn report_and_advance(self: &Arc<Self>, txn: &Arc<DoraTxnInner>, phase: usize) {
        if txn.rvps[phase].report() {
            if phase + 1 < txn.phase_count() && !txn.is_aborted() {
                self.dispatch_phase(txn, phase + 1);
            } else {
                self.finalize(txn);
            }
        }
    }

    /// Terminal-RVP processing (steps 9–12 of Figure 9). The reporting
    /// executor *precommits* (append commit record, apply deferred flags,
    /// optionally release locks early) and never waits for the log itself —
    /// it runs under an executor claim, and goes straight back to its
    /// inbox. Who hardens the commit depends on whether a client is there
    /// to do it:
    ///
    /// * the client blocks in [`DoraEngine::execute`]: the precommitted
    ///   [`CommitHandle`](dora_storage::CommitHandle) is left on the
    ///   transaction and the completion finished, and the client redeems it
    ///   with `commit_wait` on its own thread, holding no claim — it leads
    ///   or follows the device write, and no flusher thread is involved;
    /// * nobody blocks ([`DoraEngine::submit`]): the handle goes to
    ///   `commit_async`, and the completion is finished by whichever thread
    ///   hardens the commit record.
    ///
    /// With early lock release the `Completed` fan-out (which frees the
    /// transaction's executor-local locks) also happens here, at precommit,
    /// shrinking local-lock hold times to the pre-durability window; with
    /// ELR off it happens once the commit is durable — from the waiting
    /// client or the durability callback — preserving commit-duration
    /// locking for A/B runs.
    pub(crate) fn finalize(self: &Arc<Self>, txn: &Arc<DoraTxnInner>) {
        if txn.is_aborted() {
            // Abort never leaks locks even if an undo step fails (the error
            // reports the undo failure, cleanup has already happened); the
            // client sees the original abort reason either way.
            let _ = self.db.abort(&txn.handle);
            let result = Err(txn.abort_reason().unwrap_or(DbError::TxnAborted {
                txn: txn.id(),
                reason: "aborted".into(),
            }));
            self.commit_fanout(txn);
            txn.completion.finish(result);
            return;
        }
        match self.db.precommit(&txn.handle) {
            Err(error) => {
                let _ = self.db.abort(&txn.handle);
                self.commit_fanout(txn);
                txn.completion.finish(Err(error));
            }
            Ok(handle) if txn.client_waits => {
                if handle.early_released() {
                    self.commit_fanout(txn);
                }
                *txn.precommitted.lock() = Some(handle);
                txn.completion.finish(Ok(()));
            }
            Ok(handle) => {
                let early_released = handle.early_released();
                // The hand-off to the flusher daemon does not block, so it
                // goes first and the device write overlaps the fan-out.
                let engine = Arc::clone(self);
                let txn2 = Arc::clone(txn);
                self.db.commit_async(&txn.handle, handle, move |durable| {
                    if !early_released {
                        engine.commit_fanout(&txn2);
                    }
                    // A commit whose log died past its retry budget
                    // was applied in memory (ghost commit) but never
                    // hardened; the client must hear the distinct,
                    // non-retryable outcome.
                    txn2.completion.finish(if durable {
                        Ok(())
                    } else {
                        Err(DbError::DurabilityLost)
                    });
                });
                if early_released {
                    self.commit_fanout(txn);
                }
            }
        }
    }

    /// Commit fan-out: each involved executor receives exactly one
    /// `Completed` message, so every push is a batch of one — one lock
    /// acquisition per destination, with the counters bumped once for the
    /// whole fan-out. A destination is woken only if it has actions parked
    /// behind a local lock or a resize drain in progress; otherwise the
    /// message is read at the executor's next claim, ahead of any later
    /// action.
    fn commit_fanout(&self, txn: &Arc<DoraTxnInner>) {
        let involved: Vec<(TableId, usize)> = txn.involved.lock().iter().copied().collect();
        incr_by(CounterKind::DoraMessages, involved.len() as u64);
        incr_by(CounterKind::DispatchBatches, involved.len() as u64);
        for (table, index) in involved {
            if let Ok(executor) = self.executor(table, index) {
                executor.enqueue(Message::Completed(txn.id()));
            }
        }
        self.db.lock_manager().remove_external_wait(txn.id());
    }
}

/// The DORA execution engine.
///
/// ```
/// use dora_core::{ActionSpec, DoraConfig, DoraEngine, FlowGraph, LocalMode};
/// use dora_storage::{ColumnDef, Database, TableSchema};
/// use dora_common::prelude::*;
///
/// let db = Database::for_tests();
/// let table = db
///     .create_table(TableSchema::new(
///         "counters",
///         vec![ColumnDef::new("id", ValueType::Int), ColumnDef::new("n", ValueType::Int)],
///         vec![0],
///     ))
///     .unwrap();
/// db.load_row(table, vec![Value::Int(1), Value::Int(0)]).unwrap();
///
/// let engine = DoraEngine::new(db, DoraConfig::for_tests());
/// engine.bind_table(table, 2, 1, 100).unwrap();
///
/// let mut graph = FlowGraph::new();
/// graph.push(ActionSpec::new("bump", table, Key::int(1), LocalMode::Exclusive,
///     move |ctx| {
///         ctx.db.update_primary(ctx.txn, table, &Key::int(1), CcMode::None, |row| {
///             let n = row[1].as_int()?;
///             row[1] = Value::Int(n + 1);
///             Ok(())
///         })
///     }));
/// engine.execute(graph).unwrap();
/// engine.shutdown();
/// ```
pub struct DoraEngine {
    inner: Arc<EngineInner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for DoraEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DoraEngine")
            .field("tables", &self.inner.routing.bound_tables())
            .finish()
    }
}

impl DoraEngine {
    /// Creates an engine over `db`. Tables must be bound with
    /// [`Self::bind_table`] before transactions touching them are submitted.
    pub fn new(db: Arc<Database>, config: DoraConfig) -> Self {
        Self {
            inner: Arc::new(EngineInner {
                db,
                config,
                routing: RoutingTable::new(),
                executors: RwLock::new(Vec::new()),
                domains: RwLock::new(Vec::new()),
                warned_secondary: Mutex::new(HashSet::new()),
                shutting_down: AtomicBool::new(false),
            }),
            workers: Mutex::new(Vec::new()),
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &DoraConfig {
        &self.inner.config
    }

    /// The underlying storage manager.
    pub fn db(&self) -> &Arc<Database> {
        &self.inner.db
    }

    /// The routing table (read access for diagnostics; the resource manager
    /// updates it through [`crate::ResourceManager`]).
    pub fn routing(&self) -> &RoutingTable {
        &self.inner.routing
    }

    /// Binds `executors` executor threads to `table`, partitioning the
    /// leading routing-field domain `[key_low, key_high]` evenly across them
    /// (Section 4.1.1).
    pub fn bind_table(
        &self,
        table: TableId,
        executors: usize,
        key_low: i64,
        key_high: i64,
    ) -> DbResult<()> {
        let executors = executors.max(1);
        self.bind_table_with_rule(
            table,
            executors,
            RoutingRule::even_ranges(key_low, key_high, executors),
        )?;
        let mut domains = self.inner.domains.write();
        if domains.len() <= table.0 as usize {
            domains.resize(table.0 as usize + 1, None);
        }
        domains[table.0 as usize] = Some((key_low, key_high));
        Ok(())
    }

    /// Binds a table with an explicit routing rule. The rule's executor count
    /// must equal `executors`.
    pub fn bind_table_with_rule(
        &self,
        table: TableId,
        executors: usize,
        rule: RoutingRule,
    ) -> DbResult<()> {
        if rule.executor_count() != executors {
            return Err(DbError::InvalidOperation(format!(
                "rule defines {} datasets but {} executors requested",
                rule.executor_count(),
                executors
            )));
        }
        // Make sure the table exists.
        self.inner.db.catalog().table(table)?;
        // Check and spawn under the registry lock: a rejected bind, or one
        // racing another bind of the same table, must spawn nothing, or its
        // executors would park forever holding the engine alive.
        let mut registry = self.inner.executors.write();
        let slot = table.0 as usize;
        if registry.len() <= slot {
            registry.resize_with(slot + 1, Vec::new);
        }
        if !registry[slot].is_empty() {
            return Err(DbError::InvalidOperation(format!(
                "{table} is already bound"
            )));
        }
        // A fresh bind warns anew about steps that cannot be routed.
        self.inner
            .warned_secondary
            .lock()
            .retain(|(warned_table, _)| *warned_table != table);
        let mut table_executors = Vec::with_capacity(executors);
        let mut new_workers = Vec::with_capacity(executors);
        for index in 0..executors {
            let shared = Arc::new(ExecutorShared::new(table, index));
            let resident = Arc::clone(&shared);
            let engine = Arc::clone(&self.inner);
            match std::thread::Builder::new()
                .name(format!("dora-exec-{}-{}", table.0, index))
                .spawn(move || resident.run_resident(&engine))
            {
                Ok(handle) => {
                    table_executors.push(shared);
                    new_workers.push(handle);
                }
                Err(e) => {
                    drop(registry);
                    for executor in &table_executors {
                        executor.enqueue(Message::Shutdown);
                    }
                    for handle in new_workers {
                        let _ = handle.join();
                    }
                    return Err(DbError::InvalidOperation(format!("spawn failed: {e}")));
                }
            }
        }
        registry[slot] = table_executors;
        drop(registry);
        self.inner.routing.set_rule(table, rule);
        self.workers.lock().extend(new_workers);
        Ok(())
    }

    /// Binds every table in the catalog with `executors` executors each,
    /// using an even range rule over `[key_low, key_high]`. Convenience for
    /// workloads whose tables all route on the same domain (e.g. the
    /// warehouse id).
    pub fn bind_all_tables(&self, executors: usize, key_low: i64, key_high: i64) -> DbResult<()> {
        for table in self.inner.db.catalog().tables() {
            self.bind_table(table.id, executors, key_low, key_high)?;
        }
        Ok(())
    }

    /// Submits a transaction flow graph and returns a handle without waiting
    /// for completion. Nobody is known to block on the commit, so the log's
    /// flusher daemon hardens it and finishes the handle.
    pub fn submit(&self, graph: FlowGraph) -> DbResult<DoraTxn> {
        self.start(graph, false)
    }

    fn start(&self, graph: FlowGraph, client_waits: bool) -> DbResult<DoraTxn> {
        if self.inner.shutting_down.load(Ordering::Acquire) {
            return Err(DbError::ShuttingDown);
        }
        let phases = graph.into_phases();
        if phases.is_empty() {
            return Err(DbError::InvalidOperation(
                "empty transaction flow graph".into(),
            ));
        }
        let handle = self.inner.db.begin();
        let txn = DoraTxnInner::new(handle, phases, client_waits);
        // Deliberately not counted as a DoraMessage: the client->engine
        // hand-off is a function call, not an inbox push, and the dispatch
        // metrics divide DoraMessages by the inbox-push/drain counters.
        self.inner.dispatch_phase(&txn, 0);
        Ok(DoraTxn { inner: txn })
    }

    /// Submits a flow graph and blocks until the transaction commits or
    /// aborts — the call every client (dispatcher) thread makes. Submission
    /// and wait are one call, so the terminal RVP knows a client is waiting
    /// and leaves the durable half of the commit to it: once dispatch has
    /// unwound every executor claim this thread took, it hardens the commit
    /// itself ([`Database::commit_wait`]) and, with early lock release off,
    /// performs the post-durable fan-out.
    pub fn execute(&self, graph: FlowGraph) -> DbResult<()> {
        let txn = self.start(graph, true)?.inner;
        txn.completion.wait()?;
        let Some(handle) = txn.precommitted.lock().take() else {
            return Ok(());
        };
        let early_released = handle.early_released();
        let durable = self.inner.db.commit_wait(&txn.handle, handle);
        if !early_released {
            self.inner.commit_fanout(&txn);
        }
        durable
    }

    /// Actions served per executor of `table` (the load statistic the
    /// resource manager uses).
    pub fn executor_loads(&self, table: TableId) -> DbResult<Vec<u64>> {
        Ok(self
            .inner
            .executors_for(table)?
            .iter()
            .map(|e| e.served())
            .collect())
    }

    /// Incoming-queue depth per executor of `table` (the backlog statistic
    /// the adaptive repartitioner samples alongside the serviced counts).
    pub fn executor_queue_depths(&self, table: TableId) -> DbResult<Vec<usize>> {
        Ok(self
            .inner
            .executors_for(table)?
            .iter()
            .map(|e| e.queue_depth())
            .collect())
    }

    /// The routing-key domain `[low, high]` recorded when `table` was bound
    /// through [`Self::bind_table`] (`None` for tables bound with an explicit
    /// rule, whose domain the engine does not know).
    pub fn table_domain(&self, table: TableId) -> Option<(i64, i64)> {
        self.inner
            .domains
            .read()
            .get(table.0 as usize)
            .copied()
            .flatten()
    }

    /// Tables eligible for adaptive repartitioning: bound with a [`Range`]
    /// rule over a known key domain and served by at least two executors.
    ///
    /// [`Range`]: RoutingRule::Range
    pub fn adaptive_tables(&self) -> Vec<(TableId, (i64, i64))> {
        let domains = self.inner.domains.read();
        domains
            .iter()
            .enumerate()
            .filter_map(|(index, domain)| {
                let domain = (*domain)?;
                let table = TableId(index as u32);
                match self.inner.routing.rule(table) {
                    Some(RoutingRule::Range { .. }) if self.executor_count(table) >= 2 => {
                        Some((table, domain))
                    }
                    _ => None,
                }
            })
            .collect()
    }

    /// `true` once [`Self::shutdown`] has begun.
    pub fn is_shutting_down(&self) -> bool {
        self.inner.shutting_down.load(Ordering::Acquire)
    }

    /// Number of executors bound to `table`.
    pub fn executor_count(&self, table: TableId) -> usize {
        self.inner
            .executors_for(table)
            .map(|e| e.len())
            .unwrap_or(0)
    }

    /// Begins the resize protocol: asks every executor of `table` to drain
    /// (stop serving actions of new transactions until its in-flight
    /// transactions complete). Returns the barriers to wait on. Used by the
    /// resource manager; see [`crate::ResourceManager::rebalance`].
    pub(crate) fn start_drain(&self, table: TableId) -> DbResult<Vec<Arc<ResizeBarrier>>> {
        let executors = self.inner.executors_for(table)?;
        let mut barriers = Vec::with_capacity(executors.len());
        for executor in &executors {
            let barrier = Arc::new(ResizeBarrier::new());
            executor.enqueue(Message::StartResize(Arc::clone(&barrier)));
            barriers.push(barrier);
        }
        Ok(barriers)
    }

    /// Installs a new routing rule for `table` and tells its executors to
    /// resume (re-dispatching any deferred actions through the new rule).
    pub(crate) fn finish_resize(&self, table: TableId, rule: RoutingRule) -> DbResult<()> {
        self.inner.routing.set_rule(table, rule);
        for executor in self.inner.executors_for(table)? {
            executor.enqueue(Message::FinishResize);
        }
        Ok(())
    }

    /// Shuts the engine down, joining every executor thread. Transactions
    /// submitted after this call are rejected.
    pub fn shutdown(&self) {
        if self.inner.shutting_down.swap(true, Ordering::AcqRel) {
            return;
        }
        for table in self.inner.executors.read().iter() {
            for executor in table {
                executor.enqueue(Message::Shutdown);
            }
        }
        let mut workers = self.workers.lock();
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for DoraEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::LocalMode;
    use dora_storage::{ColumnDef, TableSchema};

    fn counters_db() -> (Arc<Database>, TableId) {
        let db = Database::for_tests();
        let table = db
            .create_table(TableSchema::new(
                "counters",
                vec![
                    ColumnDef::new("id", ValueType::Int),
                    ColumnDef::new("n", ValueType::Int),
                ],
                vec![0],
            ))
            .unwrap();
        for id in 1..=100i64 {
            db.load_row(table, vec![Value::Int(id), Value::Int(0)])
                .unwrap();
        }
        (db, table)
    }

    fn bump_graph(table: TableId, id: i64) -> FlowGraph {
        let mut graph = FlowGraph::new();
        graph.push(ActionSpec::new(
            "bump",
            table,
            Key::int(id),
            LocalMode::Exclusive,
            move |ctx| {
                ctx.db
                    .update_primary(ctx.txn, table, &Key::int(id), CcMode::None, |row| {
                        let n = row[1].as_int()?;
                        row[1] = Value::Int(n + 1);
                        Ok(())
                    })
            },
        ));
        graph
    }

    #[test]
    fn a_rejected_rebind_spawns_no_executor() {
        let (db, table) = counters_db();
        let weak = Arc::downgrade(&db);
        let engine = DoraEngine::new(db, DoraConfig::for_tests());
        engine.bind_table(table, 2, 1, 100).unwrap();
        assert!(engine.bind_table(table, 2, 1, 100).is_err());
        engine.shutdown();
        drop(engine);
        assert!(
            weak.upgrade().is_none(),
            "a rejected bind left executors holding the database"
        );
    }

    #[test]
    fn single_action_transaction_commits() {
        let (db, table) = counters_db();
        let engine = DoraEngine::new(Arc::clone(&db), DoraConfig::for_tests());
        engine.bind_table(table, 2, 1, 100).unwrap();
        engine.execute(bump_graph(table, 7)).unwrap();
        let check = db.begin();
        let (_, row) = db
            .probe_primary(&check, table, &Key::int(7), false, CcMode::Full)
            .unwrap()
            .unwrap();
        assert_eq!(row[1], Value::Int(1));
        db.commit(&check).unwrap();
        engine.shutdown();
    }

    #[test]
    fn multi_phase_transaction_passes_data_between_phases() {
        let (db, table) = counters_db();
        let engine = DoraEngine::new(Arc::clone(&db), DoraConfig::for_tests());
        engine.bind_table(table, 2, 1, 100).unwrap();

        // Phase 1 reads counter 10 into the scratchpad; phase 2 adds it to
        // counter 90 (which lives on the other executor).
        let mut graph = FlowGraph::new();
        graph.push(ActionSpec::new(
            "read",
            table,
            Key::int(10),
            LocalMode::Shared,
            move |ctx| {
                let (_, row) = ctx
                    .db
                    .probe_primary(ctx.txn, table, &Key::int(10), false, CcMode::None)?
                    .ok_or(DbError::NotFound {
                        table,
                        detail: "10".into(),
                    })?;
                ctx.scratch.put("seen", row[1].clone());
                Ok(())
            },
        ));
        graph.begin_phase().push(ActionSpec::new(
            "add",
            table,
            Key::int(90),
            LocalMode::Exclusive,
            move |ctx| {
                let seen = ctx.scratch.get_int("seen")?;
                ctx.db
                    .update_primary(ctx.txn, table, &Key::int(90), CcMode::None, |row| {
                        let n = row[1].as_int()?;
                        row[1] = Value::Int(n + seen + 5);
                        Ok(())
                    })
            },
        ));
        engine.execute(graph).unwrap();

        let check = db.begin();
        let (_, row) = db
            .probe_primary(&check, table, &Key::int(90), false, CcMode::Full)
            .unwrap()
            .unwrap();
        assert_eq!(row[1], Value::Int(5), "counter 10 was 0, so 0 + 5");
        db.commit(&check).unwrap();
        engine.shutdown();
    }

    #[test]
    fn failed_action_aborts_whole_transaction() {
        let (db, table) = counters_db();
        let engine = DoraEngine::new(Arc::clone(&db), DoraConfig::for_tests());
        engine.bind_table(table, 2, 1, 100).unwrap();

        let mut graph = FlowGraph::new();
        graph.push(ActionSpec::new(
            "bump",
            table,
            Key::int(3),
            LocalMode::Exclusive,
            move |ctx| {
                ctx.db
                    .update_primary(ctx.txn, table, &Key::int(3), CcMode::None, |row| {
                        row[1] = Value::Int(99);
                        Ok(())
                    })
            },
        ));
        graph.push(ActionSpec::new(
            "fail",
            table,
            Key::int(80),
            LocalMode::Exclusive,
            move |_ctx| {
                Err(DbError::TxnAborted {
                    txn: TxnId::INVALID,
                    reason: "invalid input".into(),
                })
            },
        ));
        let result = engine.execute(graph);
        assert!(result.is_err());

        // The update of counter 3 must have been rolled back.
        let check = db.begin();
        let (_, row) = db
            .probe_primary(&check, table, &Key::int(3), false, CcMode::Full)
            .unwrap()
            .unwrap();
        assert_eq!(row[1], Value::Int(0));
        db.commit(&check).unwrap();
        engine.shutdown();
    }

    #[test]
    fn panicking_action_aborts_its_txn_but_the_executor_survives() {
        silence_injected_panics();
        let (db, table) = counters_db();
        let engine = DoraEngine::new(Arc::clone(&db), DoraConfig::for_tests());
        engine.bind_table(table, 2, 1, 100).unwrap();

        let mut graph = FlowGraph::new();
        graph.push(ActionSpec::new(
            "bump",
            table,
            Key::int(3),
            LocalMode::Exclusive,
            move |ctx| {
                ctx.db
                    .update_primary(ctx.txn, table, &Key::int(3), CcMode::None, |row| {
                        row[1] = Value::Int(99);
                        Ok(())
                    })
            },
        ));
        graph.push(ActionSpec::new(
            "boom",
            table,
            Key::int(80),
            LocalMode::Exclusive,
            move |_ctx| std::panic::panic_any(InjectedPanic),
        ));
        let result = engine.execute(graph);
        assert!(
            result.is_err(),
            "a panicked transaction aborts, never hangs"
        );

        // Supervision quarantined only that transaction: both executors keep
        // serving (including the one that caught the panic), local locks on
        // keys 3 and 80 were released, and the partial update rolled back.
        engine.execute(bump_graph(table, 80)).unwrap();
        engine.execute(bump_graph(table, 3)).unwrap();
        let check = db.begin();
        let (_, row) = db
            .probe_primary(&check, table, &Key::int(3), false, CcMode::Full)
            .unwrap()
            .unwrap();
        assert_eq!(row[1], Value::Int(1), "rolled back, then one clean bump");
        db.commit(&check).unwrap();
        engine.shutdown();
    }

    #[test]
    fn conflicting_transactions_serialize_on_local_locks() {
        let (db, table) = counters_db();
        let db2 = Arc::clone(&db);
        let engine = Arc::new(DoraEngine::new(db, DoraConfig::for_tests()));
        engine.bind_table(table, 2, 1, 100).unwrap();

        let threads = 4i64;
        let per_thread = 50i64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || {
                    for _ in 0..per_thread {
                        engine.execute(bump_graph(table, 42)).unwrap();
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let check = db2.begin();
        let (_, row) = db2
            .probe_primary(&check, table, &Key::int(42), false, CcMode::Full)
            .unwrap()
            .unwrap();
        assert_eq!(
            row[1],
            Value::Int(threads * per_thread),
            "every increment must be applied exactly once"
        );
        db2.commit(&check).unwrap();
        engine.shutdown();
    }

    #[test]
    fn unbound_table_is_rejected() {
        let (db, table) = counters_db();
        let engine = DoraEngine::new(db, DoraConfig::for_tests());
        // No bind_table call.
        let result = engine.execute(bump_graph(table, 1));
        assert!(result.is_err());
        engine.shutdown();
    }

    #[test]
    fn empty_graph_is_rejected() {
        let (db, table) = counters_db();
        let engine = DoraEngine::new(db, DoraConfig::for_tests());
        engine.bind_table(table, 1, 1, 100).unwrap();
        assert!(engine.execute(FlowGraph::new()).is_err());
        engine.shutdown();
    }

    #[test]
    fn shutdown_rejects_new_transactions() {
        let (db, table) = counters_db();
        let engine = DoraEngine::new(db, DoraConfig::for_tests());
        engine.bind_table(table, 1, 1, 100).unwrap();
        engine.shutdown();
        assert!(matches!(
            engine.execute(bump_graph(table, 1)),
            Err(DbError::ShuttingDown)
        ));
    }

    #[test]
    fn secondary_actions_run_on_the_submitting_thread() {
        let (db, table) = counters_db();
        let engine = DoraEngine::new(Arc::clone(&db), DoraConfig::for_tests());
        engine.bind_table(table, 2, 1, 100).unwrap();

        let mut graph = FlowGraph::new();
        graph.push(ActionSpec::secondary("scan", table, move |ctx| {
            // A "secondary" access that cannot be routed: count rows via a
            // scan and stash the result.
            let mut count = 0i64;
            ctx.db
                .scan_table(ctx.txn, table, CcMode::None, |_, _| count += 1)?;
            ctx.scratch.put("count", count);
            Ok(())
        }));
        graph.begin_phase().push(ActionSpec::new(
            "store",
            table,
            Key::int(1),
            LocalMode::Exclusive,
            move |ctx| {
                let count = ctx.scratch.get_int("count")?;
                ctx.db
                    .update_primary(ctx.txn, table, &Key::int(1), CcMode::None, |row| {
                        row[1] = Value::Int(count);
                        Ok(())
                    })
            },
        ));
        engine.execute(graph).unwrap();
        let check = db.begin();
        let (_, row) = db
            .probe_primary(&check, table, &Key::int(1), false, CcMode::Full)
            .unwrap()
            .unwrap();
        assert_eq!(row[1], Value::Int(100));
        db.commit(&check).unwrap();
        engine.shutdown();
    }

    #[test]
    fn executor_loads_reflect_routing() {
        let (db, table) = counters_db();
        let engine = DoraEngine::new(db, DoraConfig::for_tests());
        engine.bind_table(table, 2, 1, 100).unwrap();
        // Keys 1..=50 go to executor 0, 51..=100 to executor 1.
        for id in [1, 2, 3, 4, 5] {
            engine.execute(bump_graph(table, id)).unwrap();
        }
        let loads = engine.executor_loads(table).unwrap();
        assert_eq!(loads.len(), 2);
        assert!(loads[0] >= 5);
        assert_eq!(engine.executor_count(table), 2);
        engine.shutdown();
    }
}
