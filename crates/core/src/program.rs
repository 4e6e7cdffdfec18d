//! Declarative transaction programs: one definition, two execution plans.
//!
//! The paper's central artifact is the transaction flow graph (Section
//! 4.1.2): a transaction is *one* logical definition that the system
//! decomposes into actions and rendezvous points. [`TxnProgram`] makes that
//! single definition explicit — an ordered list of typed steps
//! ([`Step::read`], [`Step::update`], [`Step::insert`], [`Step::delete`],
//! plus [`Step::secondary`] for unroutable work and [`Step::custom`] as the
//! escape hatch), with [`TxnProgram::rvp`] marking the phase boundaries.
//!
//! Two compilers consume a program:
//!
//! * [`TxnProgram::compile_dora`] lowers the steps to a [`FlowGraph`]: each
//!   phase becomes a set of concurrent [`ActionSpec`]s, probes and in-place
//!   updates run without centralized concurrency control ([`CcMode::None`] —
//!   the executor's local lock table serializes conflicts), and record
//!   inserts/deletes take centralized row locks ([`CcMode::RowOnly`],
//!   Section 4.2.1). A program marked [`TxnProgram::serialized`] compiles to
//!   the one-action-per-phase DORA-S plan of Appendix A.4.
//! * [`TxnProgram::compile_baseline`] lowers the *same* steps to a
//!   sequential closure for the conventional thread-to-transaction engine,
//!   where every access goes through the centralized lock manager
//!   ([`CcMode::Full`]).
//!
//! Both are thin wrappers over [`TxnProgram::prepare`]: the one lowering lives
//! on [`PreparedProgram`] ([`PreparedProgram::flow_graph`] and the sequential
//! step loop [`PreparedProgram::run_baseline`], which snapshot reads reuse),
//! and a prepared program is what the engines execute.
//!
//! Step bodies never name a [`CcMode`] themselves; they ask the [`StepCtx`]
//! ([`StepCtx::cc`] for probes/updates, [`StepCtx::write_cc`] for
//! inserts/deletes), which is how one closure serves both architectures.
//!
//! ```
//! use dora_common::prelude::*;
//! use dora_core::{DoraConfig, DoraEngine, OnMissing, TxnProgram};
//! use dora_storage::{ColumnDef, Database, TableSchema};
//!
//! let db = Database::for_tests();
//! let table = db
//!     .create_table(TableSchema::new(
//!         "counters",
//!         vec![ColumnDef::new("id", ValueType::Int), ColumnDef::new("n", ValueType::Int)],
//!         vec![0],
//!     ))
//!     .unwrap();
//! db.load_row(table, vec![Value::Int(1), Value::Int(0)]).unwrap();
//!
//! // One definition: bump counter 1, then (next phase) read it back.
//! let program = || {
//!     TxnProgram::new("bump-and-check")
//!         .update("bump", table, Key::int(1), Key::int(1), OnMissing::Error, |_ctx, row| {
//!             let n = row[1].as_int()?;
//!             row[1] = Value::Int(n + 1);
//!             Ok(())
//!         })
//!         .rvp()
//!         .read("check", table, Key::int(1), Key::int(1), OnMissing::Abort("gone"), |_ctx, row| {
//!             assert!(row[1].as_int()? >= 1);
//!             Ok(())
//!         })
//! };
//!
//! // Compiled for the conventional engine: a sequential closure.
//! let body = program().compile_baseline();
//! let txn = db.begin();
//! body(&db, &txn).unwrap();
//! db.commit(&txn).unwrap();
//!
//! // The same definition compiled for DORA: a two-phase flow graph.
//! let graph = program().compile_dora();
//! assert_eq!(graph.phase_count(), 2);
//! let engine = DoraEngine::new(db, DoraConfig::for_tests());
//! engine.bind_table(table, 2, 1, 100).unwrap();
//! engine.execute(graph).unwrap();
//! engine.shutdown();
//! ```

use std::sync::Arc;

use dora_common::prelude::*;
use dora_storage::{Database, Snapshot, TxnHandle};

use crate::action::{ActionSpec, LocalMode, Scratch};
use crate::flow::FlowGraph;

/// Which execution architecture a compiled step is running under. Not public:
/// step bodies observe it only through the [`StepCtx`] accessors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    /// Conventional thread-to-transaction execution: full centralized
    /// concurrency control.
    Baseline,
    /// DORA thread-to-data execution: conflicts on routed records are
    /// serialized by the executor's local lock table.
    Dora,
}

/// Everything a program step may touch while it runs, on either engine.
pub struct StepCtx<'a> {
    /// The storage manager.
    pub db: &'a Database,
    /// The storage-level transaction the step belongs to.
    pub txn: &'a TxnHandle,
    /// The per-transaction scratchpad (data hand-off between phases).
    pub scratch: &'a Scratch,
    backend: Backend,
}

impl<'a> StepCtx<'a> {
    fn new(db: &'a Database, txn: &'a TxnHandle, scratch: &'a Scratch, backend: Backend) -> Self {
        Self {
            db,
            txn,
            scratch,
            backend,
        }
    }

    /// Concurrency-control mode for probes and in-place updates of records
    /// the step is routed to: [`CcMode::Full`] under the baseline,
    /// [`CcMode::None`] under DORA (the executor's local lock table already
    /// serializes conflicting actions, Section 4.1.3).
    pub fn cc(&self) -> CcMode {
        match self.backend {
            Backend::Baseline => CcMode::Full,
            Backend::Dora => CcMode::None,
        }
    }

    /// Concurrency-control mode for record inserts and deletes:
    /// [`CcMode::Full`] under the baseline, [`CcMode::RowOnly`] under DORA —
    /// structure-modifying operations still take a centralized row lock
    /// (Section 4.2.1).
    pub fn write_cc(&self) -> CcMode {
        match self.backend {
            Backend::Baseline => CcMode::Full,
            Backend::Dora => CcMode::RowOnly,
        }
    }

    /// A workload abort (invalid input, missing record, ...) attributed to
    /// this transaction. Aborts roll the whole transaction back on either
    /// engine but are not retried.
    pub fn abort(&self, reason: impl Into<String>) -> DbError {
        DbError::TxnAborted {
            txn: self.txn.id(),
            reason: reason.into(),
        }
    }
}

/// What a typed step does when the record it addresses is missing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnMissing {
    /// Propagate the storage error (the record is expected to exist; its
    /// absence is a harness bug, not workload input).
    Error,
    /// Abort the transaction with this reason (the workload-level "invalid
    /// input" outcome, e.g. TM1's ~25% abort rate).
    Abort(&'static str),
}

impl OnMissing {
    fn not_found(self, ctx: &StepCtx<'_>, table: TableId, key: &Key) -> DbError {
        match self {
            OnMissing::Abort(reason) => ctx.abort(reason),
            OnMissing::Error => DbError::NotFound {
                table,
                detail: format!("program step key {key}"),
            },
        }
    }
}

/// What a typed insert step does when the new row's key already exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnDuplicate {
    /// Propagate the storage error.
    Error,
    /// Abort the transaction with this reason.
    Abort(&'static str),
}

/// The closure type of a step body. Unlike a raw action body it is `Fn`, not
/// `FnOnce`: the baseline engine re-runs the whole program when it retries a
/// deadlock victim.
pub type StepBody = Box<dyn Fn(&StepCtx<'_>) -> DbResult<()> + Send + Sync>;

/// One step of a transaction program: a unit of work against a small set of
/// records of one table — exactly what DORA calls an *action* (Section
/// 4.1.2), but engine-agnostic.
pub struct Step {
    label: &'static str,
    table: TableId,
    /// Routing identifier (the routing-field values of the records the step
    /// touches). Empty for secondary steps.
    route: Key,
    mode: LocalMode,
    body: StepBody,
    /// `true` only for steps built with [`Step::secondary`] — the author
    /// declared up front that the step cannot be routed. A step whose route
    /// turns out empty *without* this flag falls back to the secondary path
    /// silently, which the engine flags once per bind (routing-coverage
    /// warning).
    declared_secondary: bool,
    /// `true` when the bind-time conflict matrix proved this step's template
    /// conflicts with nothing in the workload, so it skips the local-lock
    /// table and its executor and runs on the dispatching thread. Set only by
    /// [`TxnProgram::with_conflicts`], never by the constructors.
    elide_probe: bool,
}

impl std::fmt::Debug for Step {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Step")
            .field("label", &self.label)
            .field("table", &self.table)
            .field("route", &self.route)
            .field("mode", &self.mode)
            .finish_non_exhaustive()
    }
}

impl Step {
    /// A free-form routed step: `body` runs with the step's local-lock mode
    /// on the records grouped under `route`. The escape hatch for work the
    /// typed constructors cannot express (loops over dependent keys, RID
    /// accesses resolved through the scratchpad, secondary-index probes of
    /// routable keys).
    pub fn custom(
        label: &'static str,
        table: TableId,
        route: Key,
        mode: LocalMode,
        body: impl Fn(&StepCtx<'_>) -> DbResult<()> + Send + Sync + 'static,
    ) -> Self {
        Self {
            label,
            table,
            route,
            mode,
            body: Box::new(body),
            declared_secondary: false,
            elide_probe: false,
        }
    }

    /// A *secondary* step (Section 4.2.2): one whose inputs contain none of
    /// `table`'s routing fields, so no executor can be determined for it.
    /// Under DORA it runs on the thread submitting its phase; under the
    /// baseline it is an ordinary sequential step.
    pub fn secondary(
        label: &'static str,
        table: TableId,
        body: impl Fn(&StepCtx<'_>) -> DbResult<()> + Send + Sync + 'static,
    ) -> Self {
        Self {
            declared_secondary: true,
            ..Self::custom(label, table, Key::empty(), LocalMode::Shared, body)
        }
    }

    /// Reads the record at `key` (primary key) and hands it to `on_row`.
    pub fn read(
        label: &'static str,
        table: TableId,
        route: Key,
        key: Key,
        on_missing: OnMissing,
        on_row: impl Fn(&StepCtx<'_>, &Row) -> DbResult<()> + Send + Sync + 'static,
    ) -> Self {
        Self::custom(
            label,
            table,
            route,
            LocalMode::Shared,
            move |ctx| match ctx
                .db
                .probe_primary(ctx.txn, table, &key, false, ctx.cc())?
            {
                Some((_, row)) => on_row(ctx, &row),
                None => Err(on_missing.not_found(ctx, table, &key)),
            },
        )
    }

    /// Updates the record at `key` (primary key) in place through `apply`.
    pub fn update(
        label: &'static str,
        table: TableId,
        route: Key,
        key: Key,
        on_missing: OnMissing,
        apply: impl Fn(&StepCtx<'_>, &mut Row) -> DbResult<()> + Send + Sync + 'static,
    ) -> Self {
        Self::custom(
            label,
            table,
            route,
            LocalMode::Exclusive,
            move |ctx| match ctx
                .db
                .update_primary(ctx.txn, table, &key, ctx.cc(), |row| apply(ctx, row))
            {
                Ok(()) => Ok(()),
                Err(DbError::NotFound { .. }) => Err(on_missing.not_found(ctx, table, &key)),
                Err(other) => Err(other),
            },
        )
    }

    /// Inserts the row built by `make_row` (which may read the scratchpad
    /// and the transaction id).
    pub fn insert(
        label: &'static str,
        table: TableId,
        route: Key,
        on_duplicate: OnDuplicate,
        make_row: impl Fn(&StepCtx<'_>) -> DbResult<Row> + Send + Sync + 'static,
    ) -> Self {
        Self::custom(label, table, route, LocalMode::Exclusive, move |ctx| {
            let row = make_row(ctx)?;
            match ctx.db.insert(ctx.txn, table, row, ctx.write_cc()) {
                Ok(_) => Ok(()),
                Err(err @ DbError::DuplicateKey { .. }) => match on_duplicate {
                    OnDuplicate::Abort(reason) => Err(ctx.abort(reason)),
                    OnDuplicate::Error => Err(err),
                },
                Err(other) => Err(other),
            }
        })
    }

    /// Deletes the record at `key` (primary key).
    pub fn delete(
        label: &'static str,
        table: TableId,
        route: Key,
        key: Key,
        on_missing: OnMissing,
    ) -> Self {
        Self::custom(
            label,
            table,
            route,
            LocalMode::Exclusive,
            move |ctx| match ctx.db.delete_primary(ctx.txn, table, &key, ctx.write_cc()) {
                Ok(()) => Ok(()),
                Err(DbError::NotFound { .. }) => Err(on_missing.not_found(ctx, table, &key)),
                Err(other) => Err(other),
            },
        )
    }

    /// `true` if this step has no routing identifier (runs as a secondary
    /// action under DORA).
    pub fn is_secondary(&self) -> bool {
        self.route.is_empty()
    }

    /// The step's label (diagnostics, trace output).
    pub fn label(&self) -> &'static str {
        self.label
    }
}

/// A declarative transaction program: the single source of truth for one
/// transaction, compiled to either execution architecture. See the module
/// docs for the full story and a runnable example.
#[derive(Debug)]
pub struct TxnProgram {
    name: &'static str,
    phases: Vec<Vec<Step>>,
    serial: bool,
}

impl TxnProgram {
    /// Creates an empty program. `name` is the transaction-type label used
    /// by reports and statistics (e.g. `"tpcc-payment"`).
    pub fn new(name: &'static str) -> Self {
        Self {
            name,
            phases: vec![Vec::new()],
            serial: false,
        }
    }

    /// The transaction-type label.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Appends a step to the current phase.
    pub fn step(mut self, step: Step) -> Self {
        self.phases.last_mut().expect("always one phase").push(step);
        self
    }

    /// Marks a rendezvous point: steps added afterwards belong to the next
    /// phase and only start once every step of this phase has finished (an
    /// explicit data- or control-dependency boundary).
    pub fn rvp(mut self) -> Self {
        self.phases.push(Vec::new());
        self
    }

    /// Selects the fully serialized execution plan (DORA-S, Appendix A.4):
    /// [`compile_dora`](Self::compile_dora) will put every step in its own
    /// phase, in program order. The baseline compilation is unaffected — it
    /// is sequential either way.
    pub fn serialized(mut self, serial: bool) -> Self {
        self.serial = serial;
        self
    }

    /// `true` if the serialized (DORA-S) plan was selected.
    pub fn is_serialized(&self) -> bool {
        self.serial
    }

    /// Number of steps across all phases.
    pub fn step_count(&self) -> usize {
        self.phases.iter().map(Vec::len).sum()
    }

    /// Number of non-empty phases (what
    /// [`compile_dora`](Self::compile_dora) will produce for a non-serial
    /// program).
    pub fn phase_count(&self) -> usize {
        self.phases.iter().filter(|p| !p.is_empty()).count()
    }

    /// Number of secondary (unrouted) steps.
    pub fn secondary_count(&self) -> usize {
        self.phases
            .iter()
            .flatten()
            .filter(|s| s.is_secondary())
            .count()
    }

    /// `true` if every step declares [`LocalMode::Shared`] — the program
    /// never writes, so it is eligible for lock-free snapshot execution.
    pub fn is_read_only(&self) -> bool {
        self.phases
            .iter()
            .flatten()
            .all(|s| s.mode == LocalMode::Shared)
    }

    // ----- typed-step sugar (delegates to the [`Step`] constructors) --------

    /// Appends a [`Step::read`] to the current phase.
    pub fn read(
        self,
        label: &'static str,
        table: TableId,
        route: Key,
        key: Key,
        on_missing: OnMissing,
        on_row: impl Fn(&StepCtx<'_>, &Row) -> DbResult<()> + Send + Sync + 'static,
    ) -> Self {
        self.step(Step::read(label, table, route, key, on_missing, on_row))
    }

    /// Appends a [`Step::update`] to the current phase.
    pub fn update(
        self,
        label: &'static str,
        table: TableId,
        route: Key,
        key: Key,
        on_missing: OnMissing,
        apply: impl Fn(&StepCtx<'_>, &mut Row) -> DbResult<()> + Send + Sync + 'static,
    ) -> Self {
        self.step(Step::update(label, table, route, key, on_missing, apply))
    }

    /// Appends a [`Step::insert`] to the current phase.
    pub fn insert(
        self,
        label: &'static str,
        table: TableId,
        route: Key,
        on_duplicate: OnDuplicate,
        make_row: impl Fn(&StepCtx<'_>) -> DbResult<Row> + Send + Sync + 'static,
    ) -> Self {
        self.step(Step::insert(label, table, route, on_duplicate, make_row))
    }

    /// Appends a [`Step::delete`] to the current phase.
    pub fn delete(
        self,
        label: &'static str,
        table: TableId,
        route: Key,
        key: Key,
        on_missing: OnMissing,
    ) -> Self {
        self.step(Step::delete(label, table, route, key, on_missing))
    }

    /// Appends a [`Step::secondary`] to the current phase.
    pub fn secondary(
        self,
        label: &'static str,
        table: TableId,
        body: impl Fn(&StepCtx<'_>) -> DbResult<()> + Send + Sync + 'static,
    ) -> Self {
        self.step(Step::secondary(label, table, body))
    }

    /// Appends a [`Step::custom`] to the current phase.
    pub fn custom(
        self,
        label: &'static str,
        table: TableId,
        route: Key,
        mode: LocalMode,
        body: impl Fn(&StepCtx<'_>) -> DbResult<()> + Send + Sync + 'static,
    ) -> Self {
        self.step(Step::custom(label, table, route, mode, body))
    }

    /// Applies a bind-time [`ConflictMatrix`](crate::conflict::ConflictMatrix)
    /// to this program before compilation: steps the matrix proved
    /// conflict-free are marked probe-free (they run on the thread that
    /// dispatches their phase, with no local-lock-table acquire, counter
    /// `LockProbesElided`), and a program
    /// the matrix flags as high-abort is switched to the DORA-S serialized
    /// plan (Figure 11) unless the author already hand-set
    /// [`serialized`](Self::serialized).
    ///
    /// Programs the matrix has no declaration for (matched by
    /// [`name`](Self::name)) are returned unchanged — ad-hoc programs stay
    /// fully probed.
    pub fn with_conflicts(mut self, matrix: &crate::conflict::ConflictMatrix) -> Self {
        if !matrix.knows_program(self.name) {
            return self;
        }
        for step in self.phases.iter_mut().flatten() {
            if !step.route.is_empty() && matrix.is_probe_free(self.name, step.label) {
                step.elide_probe = true;
            }
        }
        if !self.serial && matrix.should_serialize(self.name) {
            self.serial = true;
        }
        self
    }

    /// Number of steps currently marked probe-free (diagnostics/tests).
    pub fn elided_count(&self) -> usize {
        self.phases
            .iter()
            .flatten()
            .filter(|s| s.elide_probe)
            .count()
    }

    // ----- compilers ---------------------------------------------------------

    /// Lowers the program to a DORA transaction flow graph: one
    /// [`ActionSpec`] per step, phases split at the [`rvp`](Self::rvp)
    /// boundaries (or one step per phase for a
    /// [`serialized`](Self::serialized) program), secondary steps as
    /// secondary actions.
    pub fn compile_dora(self) -> FlowGraph {
        self.prepare().flow_graph()
    }

    /// Lowers the program to a sequential transaction body for the
    /// conventional engine: the same steps, in program order, every access
    /// under full centralized concurrency control. The closure may be called
    /// repeatedly (the baseline retries deadlock victims); each call gets a
    /// fresh scratchpad.
    pub fn compile_baseline(self) -> impl Fn(&Database, &TxnHandle) -> DbResult<()> + Send + Sync {
        let prepared = self.prepare();
        move |db, txn| prepared.run_baseline(db, txn)
    }

    /// Compiles the program once into a [`PreparedProgram`] handle that can
    /// be executed any number of times, on either engine, without paying the
    /// lowering cost again. The prepared form is the seam servers and
    /// drivers should hold on to; [`compile_dora`](Self::compile_dora) /
    /// [`compile_baseline`](Self::compile_baseline) remain as the
    /// compile-per-call convenience path.
    pub fn prepare(self) -> PreparedProgram {
        PreparedProgram {
            name: self.name,
            phases: Arc::new(self.phases),
            serial: self.serial,
        }
    }
}

/// A [`TxnProgram`] compiled once, executable many times.
///
/// The step list is shared behind an [`Arc`], so cloning a prepared program
/// (one clone per session, per execution) is a reference-count bump — no
/// step bodies are rebuilt. Each [`flow_graph`](Self::flow_graph) call
/// re-materializes only the per-instance [`ActionSpec`] shells around the
/// shared bodies, and [`run_baseline`](Self::run_baseline) runs the steps
/// directly with a fresh scratchpad per call.
#[derive(Clone)]
pub struct PreparedProgram {
    name: &'static str,
    phases: Arc<Vec<Vec<Step>>>,
    serial: bool,
}

impl std::fmt::Debug for PreparedProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedProgram")
            .field("name", &self.name)
            .field("steps", &self.step_count())
            .field("serial", &self.serial)
            .finish()
    }
}

impl PreparedProgram {
    /// The transaction-type label.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of steps across all phases.
    pub fn step_count(&self) -> usize {
        self.phases.iter().map(Vec::len).sum()
    }

    /// Number of non-empty phases.
    pub fn phase_count(&self) -> usize {
        self.phases.iter().filter(|p| !p.is_empty()).count()
    }

    /// `true` if the serialized (DORA-S) plan was selected.
    pub fn is_serialized(&self) -> bool {
        self.serial
    }

    /// Materializes a DORA transaction flow graph for one execution. The
    /// action bodies borrow the shared step list; only the spec shells
    /// (label, table, route, mode) are rebuilt per instance.
    pub fn flow_graph(&self) -> FlowGraph {
        let mut graph = FlowGraph::new();
        for (phase_idx, phase) in self.phases.iter().enumerate() {
            if phase.is_empty() {
                continue;
            }
            let actions = phase
                .iter()
                .enumerate()
                .map(|(step_idx, step)| {
                    let phases = Arc::clone(&self.phases);
                    let run = move |actx: &crate::action::ActionContext<'_>| {
                        let ctx = StepCtx::new(actx.db, actx.txn, actx.scratch, Backend::Dora);
                        (phases[phase_idx][step_idx].body)(&ctx)
                    };
                    if step.route.is_empty() {
                        let mut spec = ActionSpec::secondary(step.label, step.table, run);
                        spec.declared_secondary = step.declared_secondary;
                        spec
                    } else {
                        let mut spec = ActionSpec::new(
                            step.label,
                            step.table,
                            step.route.clone(),
                            step.mode,
                            run,
                        );
                        spec.elide_probe = step.elide_probe;
                        spec
                    }
                })
                .collect();
            graph = graph.phase_with(actions);
        }
        if self.serial {
            graph.serialized()
        } else {
            graph
        }
    }

    /// Runs the program sequentially on the conventional engine, with a
    /// fresh scratchpad (safe to call repeatedly — the baseline retries
    /// deadlock victims).
    pub fn run_baseline(&self, db: &Database, txn: &TxnHandle) -> DbResult<()> {
        let scratch = Scratch::new();
        let ctx = StepCtx::new(db, txn, &scratch, Backend::Baseline);
        self.phases
            .iter()
            .flatten()
            .try_for_each(|step| (step.body)(&ctx))
    }

    /// `true` if every step declares [`LocalMode::Shared`] — the program
    /// never writes, so it is eligible for lock-free snapshot execution.
    pub fn is_read_only(&self) -> bool {
        self.phases
            .iter()
            .flatten()
            .all(|s| s.mode == LocalMode::Shared)
    }

    /// Runs the program against a pinned [`Snapshot`]: every read is served
    /// at the snapshot's horizon from the version chains, with no DORA
    /// routing, no local-lock-table probes, and no centralized lock manager
    /// involvement — so it can run on *any* thread, concurrently with OLTP,
    /// without disturbing either engine's partitioning.
    ///
    /// The program must be [`is_read_only`](Self::is_read_only); programs
    /// with write steps are rejected up front (a write slipping through
    /// would also be rejected by the storage layer).
    pub fn run_snapshot(&self, db: &Database, snapshot: &Arc<Snapshot>) -> DbResult<()> {
        if !self.is_read_only() {
            return Err(DbError::InvalidOperation(format!(
                "program `{}` has write steps; snapshot execution is read-only",
                self.name
            )));
        }
        let txn = db.begin_snapshot(Arc::clone(snapshot));
        match self.run_baseline(db, &txn) {
            Ok(()) => db.commit(&txn),
            Err(err) => {
                let _ = db.abort(&txn);
                Err(err)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DoraConfig;
    use crate::engine::DoraEngine;
    use dora_storage::{ColumnDef, TableSchema};
    use std::sync::Arc;

    fn counter_db() -> (Arc<Database>, TableId) {
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
        for id in 1..=8i64 {
            db.load_row(table, vec![Value::Int(id), Value::Int(0)])
                .unwrap();
        }
        (db, table)
    }

    fn counter_value(db: &Database, table: TableId, id: i64) -> i64 {
        let txn = db.begin();
        let (_, row) = db
            .probe_primary(&txn, table, &Key::int(id), false, CcMode::Full)
            .unwrap()
            .unwrap();
        let n = row[1].as_int().unwrap();
        db.commit(&txn).unwrap();
        n
    }

    fn bump_program(table: TableId, id: i64) -> TxnProgram {
        TxnProgram::new("bump").update(
            "bump",
            table,
            Key::int(id),
            Key::int(id),
            OnMissing::Error,
            |_ctx, row| {
                let n = row[1].as_int()?;
                row[1] = Value::Int(n + 1);
                Ok(())
            },
        )
    }

    #[test]
    fn phases_tile_over_steps() {
        let (_db, table) = counter_db();
        let program = bump_program(table, 1)
            .step(Step::read(
                "peek",
                table,
                Key::int(2),
                Key::int(2),
                OnMissing::Error,
                |_, _| Ok(()),
            ))
            .rvp()
            .secondary("probe", table, |_| Ok(()));
        assert_eq!(program.step_count(), 3);
        assert_eq!(program.phase_count(), 2);
        assert_eq!(program.secondary_count(), 1);
        let graph = program.compile_dora();
        assert_eq!(graph.phase_count(), 2);
        assert_eq!(graph.actions_in(0), 2);
        assert_eq!(graph.actions_in(1), 1);
    }

    #[test]
    fn trailing_and_empty_phases_are_dropped() {
        let (_db, table) = counter_db();
        let graph = bump_program(table, 1).rvp().rvp().compile_dora();
        assert_eq!(graph.phase_count(), 1);
    }

    #[test]
    fn serialized_program_compiles_to_one_action_per_phase() {
        let (_db, table) = counter_db();
        let program = bump_program(table, 1)
            .step(bump_step(table, 2))
            .rvp()
            .step(bump_step(table, 3))
            .serialized(true);
        assert!(program.is_serialized());
        let graph = program.compile_dora();
        assert_eq!(graph.phase_count(), 3);
        assert!((0..3).all(|p| graph.actions_in(p) == 1));
    }

    fn bump_step(table: TableId, id: i64) -> Step {
        Step::update(
            "bump",
            table,
            Key::int(id),
            Key::int(id),
            OnMissing::Error,
            |_ctx, row| {
                let n = row[1].as_int()?;
                row[1] = Value::Int(n + 1);
                Ok(())
            },
        )
    }

    #[test]
    fn baseline_and_dora_compilations_apply_the_same_effects() {
        let (db_base, table) = counter_db();
        let (db_dora, _) = counter_db();
        let engine = DoraEngine::new(Arc::clone(&db_dora), DoraConfig::for_tests());
        engine.bind_table(table, 2, 1, 8).unwrap();

        for id in 1..=4i64 {
            let body = bump_program(table, id).compile_baseline();
            let txn = db_base.begin();
            body(&db_base, &txn).unwrap();
            db_base.commit(&txn).unwrap();
            engine
                .execute(bump_program(table, id).compile_dora())
                .unwrap();
        }
        for id in 1..=8i64 {
            assert_eq!(
                counter_value(&db_base, table, id),
                counter_value(&db_dora, table, id),
                "counter {id} diverged"
            );
        }
        engine.shutdown();
    }

    #[test]
    fn baseline_retry_gets_a_fresh_scratchpad() {
        let (db, table) = counter_db();
        let body = TxnProgram::new("scratch")
            .custom("stash", table, Key::int(1), LocalMode::Shared, |ctx| {
                // A retry must not see the previous attempt's value.
                assert!(ctx.scratch.get("seen").is_none());
                ctx.scratch.put("seen", 1i64);
                Ok(())
            })
            .compile_baseline();
        for _ in 0..3 {
            let txn = db.begin();
            body(&db, &txn).unwrap();
            db.abort(&txn).unwrap();
        }
    }

    #[test]
    fn typed_steps_map_missing_and_duplicate_outcomes() {
        let (db, table) = counter_db();
        let run = |program: TxnProgram| {
            let body = program.compile_baseline();
            let txn = db.begin();
            let result = body(&db, &txn);
            db.abort(&txn).unwrap();
            result
        };
        // Missing record: Abort maps to TxnAborted, Error propagates NotFound.
        let aborted = run(TxnProgram::new("t").delete(
            "del",
            table,
            Key::int(99),
            Key::int(99),
            OnMissing::Abort("nothing to delete"),
        ));
        assert!(matches!(aborted, Err(DbError::TxnAborted { .. })));
        let missing = run(TxnProgram::new("t").update(
            "upd",
            table,
            Key::int(99),
            Key::int(99),
            OnMissing::Error,
            |_, _| Ok(()),
        ));
        assert!(matches!(missing, Err(DbError::NotFound { .. })));
        // Duplicate insert: Abort maps to TxnAborted.
        let duplicate = run(TxnProgram::new("t").insert(
            "ins",
            table,
            Key::int(1),
            OnDuplicate::Abort("exists"),
            |_| Ok(vec![Value::Int(1), Value::Int(7)]),
        ));
        assert!(matches!(duplicate, Err(DbError::TxnAborted { .. })));
    }

    #[test]
    fn prepared_program_executes_many_times_on_both_engines() {
        let (db_base, table) = counter_db();
        let (db_dora, _) = counter_db();
        let engine = DoraEngine::new(Arc::clone(&db_dora), DoraConfig::for_tests());
        engine.bind_table(table, 2, 1, 8).unwrap();

        // Compile once; execute the same handle repeatedly on both engines.
        let prepared = bump_program(table, 3).prepare();
        assert_eq!(prepared.name(), "bump");
        assert_eq!(prepared.step_count(), 1);
        assert_eq!(prepared.phase_count(), 1);
        for _ in 0..5 {
            let txn = db_base.begin();
            prepared.run_baseline(&db_base, &txn).unwrap();
            db_base.commit(&txn).unwrap();
            engine.execute(prepared.flow_graph()).unwrap();
        }
        assert_eq!(counter_value(&db_base, table, 3), 5);
        assert_eq!(counter_value(&db_dora, table, 3), 5);
        engine.shutdown();
    }

    #[test]
    fn prepared_flow_graph_preserves_shape_and_serialization() {
        let (_db, table) = counter_db();
        let prepared = bump_program(table, 1)
            .step(bump_step(table, 2))
            .rvp()
            .secondary("probe", table, |_| Ok(()))
            .serialized(true)
            .prepare();
        assert!(prepared.is_serialized());
        // Like compile_dora, a serialized prepared program lowers to one
        // action per phase, and the handle can do it again and again.
        for _ in 0..2 {
            let graph = prepared.flow_graph();
            assert_eq!(graph.phase_count(), 3);
            assert!((0..3).all(|p| graph.actions_in(p) == 1));
        }
        let clone = prepared.clone();
        assert_eq!(clone.step_count(), prepared.step_count());
    }

    #[test]
    fn with_conflicts_marks_probe_free_steps_and_auto_serializes() {
        use crate::conflict::{ConflictMatrix, KeyAtom, ProgramTemplate, StepTemplate};
        let (_db, table) = counter_db();
        // "bump" writes column 1 and races itself → keeps its probe, and its
        // 0.5 abort rate pushes the program over the DORA-S threshold.
        // "peek" declares no column reads → dismissed against every writer.
        let templates = vec![ProgramTemplate::new("mixed")
            .step(
                StepTemplate::write("bump", table, vec![KeyAtom::Param("id")])
                    .writes([1])
                    .abort_rate(0.5),
            )
            .step(StepTemplate::read(
                "peek",
                table,
                vec![KeyAtom::Param("id")],
            ))];
        let matrix = ConflictMatrix::analyze(&templates, 0.1);

        let program = TxnProgram::new("mixed")
            .step(bump_step(table, 1))
            .read(
                "peek",
                table,
                Key::int(2),
                Key::int(2),
                OnMissing::Error,
                |_, _| Ok(()),
            )
            .with_conflicts(&matrix);
        assert_eq!(program.elided_count(), 1);
        assert!(program.is_serialized(), "0.5 ≥ 0.1 with a conflicting step");
        let described = program.compile_dora().describe();
        let flat: Vec<_> = described.iter().flatten().collect();
        assert!(flat
            .iter()
            .any(|s| s.contains("peek") && s.contains("[probe-free]")));
        assert!(!flat
            .iter()
            .any(|s| s.contains("bump") && s.contains("[probe-free]")));

        // A program the matrix has no declaration for is returned unchanged.
        let adhoc = bump_program(table, 1).with_conflicts(&matrix);
        assert_eq!(adhoc.elided_count(), 0);
        assert!(!adhoc.is_serialized());

        // `prepare()` keeps the marks: the re-lowered flow graph still
        // carries them.
        let prepared = TxnProgram::new("mixed")
            .step(bump_step(table, 1))
            .read(
                "peek",
                table,
                Key::int(2),
                Key::int(2),
                OnMissing::Error,
                |_, _| Ok(()),
            )
            .with_conflicts(&matrix)
            .prepare();
        let flat: Vec<String> = prepared
            .flow_graph()
            .describe()
            .into_iter()
            .flatten()
            .collect();
        assert!(flat.iter().any(|s| s.contains("[probe-free]")));
    }

    #[test]
    fn step_ctx_cc_modes_differ_per_backend() {
        let db = Database::for_tests();
        let txn = db.begin();
        let scratch = Scratch::new();
        let base = StepCtx::new(&db, &txn, &scratch, Backend::Baseline);
        assert_eq!(base.cc(), CcMode::Full);
        assert_eq!(base.write_cc(), CcMode::Full);
        let dora = StepCtx::new(&db, &txn, &scratch, Backend::Dora);
        assert_eq!(dora.cc(), CcMode::None);
        assert_eq!(dora.write_cc(), CcMode::RowOnly);
        db.abort(&txn).unwrap();
    }
}
