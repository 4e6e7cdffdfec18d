//! Declarative transaction programs: one plan per transaction type, bound
//! per call.
//!
//! The paper's central artifact is the transaction flow graph (Section
//! 4.1.2) of a transaction *type*: one logical definition that the system
//! decomposes into actions and rendezvous points. [`TxnProgram`] makes that
//! definition explicit — an ordered list of typed steps ([`Step::read`],
//! [`Step::update`], [`Step::insert`], [`Step::delete`], plus
//! [`Step::secondary`] for unroutable work and [`Step::custom`] as the
//! escape hatch), with [`TxnProgram::rvp`] marking the phase boundaries.
//!
//! A program is a shared *plan* plus the *parameters* of one transaction.
//! The plan (steps, phases, step bodies) is built once per transaction type
//! and cached by the workload; a step's route and key are [`Shape`]s over
//! parameter slots ([`Param`]), and a step body reads the parameters through
//! [`StepCtx::int`] / [`StepCtx::float`]. Drawing a transaction is then
//! [`TxnProgram::bind`]: a reference-count bump and a few integers, with no
//! step, closure or box rebuilt. A program built ad hoc from concrete
//! [`Key`]s is a plan with no parameters — the same representation.
//!
//! One program runs on either architecture:
//!
//! * [`TxnProgram::compile_dora`] gives the DORA [`FlowGraph`]: each phase
//!   becomes a set of concurrent actions, probes and in-place updates run
//!   without centralized concurrency control ([`CcMode::None`] — the
//!   executor's local lock table serializes conflicts), and record
//!   inserts/deletes take centralized row locks ([`CcMode::RowOnly`],
//!   Section 4.2.1). A program marked [`TxnProgram::serialized`] runs as the
//!   one-action-per-phase DORA-S plan of Appendix A.4. Each action refers to
//!   its plan step; nothing is copied.
//! * [`TxnProgram::compile_baseline`] runs the *same* steps sequentially on
//!   the conventional thread-to-transaction engine, where every access goes
//!   through the centralized lock manager ([`CcMode::Full`]).
//!
//! [`TxnProgram::prepare`] wraps a program into the [`PreparedProgram`] the
//! engines execute. DORA stamps it first with its bind-time conflict matrix
//! ([`TxnProgram::with_conflicts`]: probe-free steps, DORA-S); the stamp is
//! computed once per plan and matrix, cached on the plan and shared by every
//! later binding stamped with that matrix.
//!
//! Step bodies never name a [`CcMode`] themselves; they ask the [`StepCtx`]
//! ([`StepCtx::cc`] for probes/updates, [`StepCtx::write_cc`] for
//! inserts/deletes), which is how one closure serves both architectures.
//!
//! ```
//! use dora_common::prelude::*;
//! use dora_core::{DoraConfig, DoraEngine, OnMissing, Param, Params, Shape, TxnProgram};
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
//! // One plan: bump counter `id`, then (next phase) read it back.
//! const ID: Param = Param::new(0, "id");
//! let plan = TxnProgram::new("bump-and-check")
//!     .update("bump", table, ID, ID, OnMissing::Error, |_ctx, row| {
//!         let n = row[1].as_int()?;
//!         row[1] = Value::Int(n + 1);
//!         Ok(())
//!     })
//!     .rvp()
//!     .read("check", table, ID, ID, OnMissing::Abort("gone"), |_ctx, row| {
//!         assert!(row[1].as_int()? >= 1);
//!         Ok(())
//!     });
//!
//! // Bound for one transaction and run on the conventional engine.
//! let body = plan.bind(Params::of([1])).compile_baseline();
//! let txn = db.begin();
//! body(&db, &txn).unwrap();
//! db.commit(&txn).unwrap();
//!
//! // The same plan as a two-phase DORA flow graph.
//! let graph = plan.bind(Params::of([1])).compile_dora();
//! assert_eq!(graph.phase_count(), 2);
//! let engine = DoraEngine::new(db, DoraConfig::for_tests());
//! engine.bind_table(table, 2, 1, 100).unwrap();
//! engine.execute(graph).unwrap();
//! engine.shutdown();
//! ```

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use dora_common::prelude::*;
use dora_common::InlineVec;
use dora_storage::{Database, Snapshot, TxnHandle};

use crate::action::{LocalMode, Scratch};
use crate::conflict::{ConflictMatrix, Declared, KeyAtom};
use crate::flow::FlowGraph;

/// Which execution architecture a compiled step is running under. Not public:
/// step bodies observe it only through the [`StepCtx`] accessors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Backend {
    /// Conventional thread-to-transaction execution: full centralized
    /// concurrency control.
    Baseline,
    /// DORA thread-to-data execution: conflicts on routed records are
    /// serialized by the executor's local lock table.
    Dora,
}

/// A parameter slot of a plan: its position in the [`Params`] a transaction
/// binds, and a name (reports, and the key atoms of the derived conflict
/// templates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Param {
    index: usize,
    name: &'static str,
}

impl Param {
    /// Not a slot: the id of the storage transaction running the step, which
    /// no two transactions share. [`StepCtx::int`] reads it; in an insert's
    /// [`full_key`](Step::full_key) it tells the conflict analysis that two
    /// transactions never make the same key.
    pub const TXN_ID: Param = Param::new(usize::MAX, "txn_id");

    /// The slot at `index`, called `name`.
    pub const fn new(index: usize, name: &'static str) -> Self {
        Self { index, name }
    }
}

/// Slots stored in place; a transaction with more (a TPC-C NewOrder's item
/// list) keeps them in one shared buffer.
const PARAMS_INLINE: usize = 8;

/// The parameters of one transaction: integers in slot order. A float is
/// stored as its bit pattern ([`Params::with_float`]).
///
/// A list longer than the inline slots is one buffer, allocated once when it
/// is collected (from an iterator that knows its length) and shared, not
/// copied, by every attempt of the transaction.
#[derive(Debug, Clone)]
pub struct Params(Slots);

#[derive(Debug, Clone)]
enum Slots {
    Inline(InlineVec<i64, PARAMS_INLINE>),
    Shared(Arc<[i64]>),
}

impl Params {
    /// No parameters.
    pub(crate) const fn new() -> Self {
        Self(Slots::Inline(InlineVec::new()))
    }

    /// The given integers, slot 0 first.
    pub fn of<const N: usize>(values: [i64; N]) -> Self {
        values.into_iter().collect()
    }

    /// Appends an integer slot. Past the inline slots this copies the list:
    /// collect a long one instead.
    fn push(&mut self, value: i64) {
        match &mut self.0 {
            Slots::Inline(slots) if slots.len() < PARAMS_INLINE => slots.push(value),
            _ => *self = self.iter().chain([value]).collect(),
        }
    }

    /// These parameters with a float slot appended.
    pub fn with_float(mut self, value: f64) -> Self {
        self.push(value.to_bits() as i64);
        self
    }

    /// Number of slots.
    pub(crate) fn len(&self) -> usize {
        match &self.0 {
            Slots::Inline(slots) => slots.len(),
            Slots::Shared(slots) => slots.len(),
        }
    }

    fn get(&self, index: usize) -> Option<i64> {
        match &self.0 {
            Slots::Inline(slots) => slots.get(index).copied(),
            Slots::Shared(slots) => slots.get(index).copied(),
        }
    }

    fn iter(&self) -> impl Iterator<Item = i64> + '_ {
        (0..self.len()).filter_map(|index| self.get(index))
    }

    /// The integer in `param`'s slot.
    pub(crate) fn int(&self, param: Param) -> DbResult<i64> {
        self.get(param.index).ok_or_else(|| {
            DbError::InvalidOperation(format!(
                "parameter `{}` (slot {}) not bound",
                param.name, param.index
            ))
        })
    }

    /// The float in `param`'s slot.
    pub(crate) fn float(&self, param: Param) -> DbResult<f64> {
        self.int(param).map(|bits| f64::from_bits(bits as u64))
    }
}

impl Default for Params {
    fn default() -> Self {
        Self::new()
    }
}

impl FromIterator<i64> for Params {
    /// In place when the iterator's upper bound fits the inline slots;
    /// otherwise one shared buffer, allocated once when the iterator's length
    /// is exact.
    fn from_iter<I: IntoIterator<Item = i64>>(values: I) -> Self {
        let values = values.into_iter();
        match values.size_hint() {
            (_, Some(most)) if most <= PARAMS_INLINE => Self(Slots::Inline(values.collect())),
            _ => Self(Slots::Shared(values.collect())),
        }
    }
}

/// The components of a key shape stored in place (TPC-C's and TM1's
/// longest keys have three).
const SHAPE_INLINE: usize = 3;

/// How a step's routing identifier or primary key is made from a
/// transaction's [`Params`]: either a fixed [`Key`] (an ad-hoc program) or
/// one integer component per parameter slot.
#[derive(Debug, Clone, PartialEq)]
pub struct Shape(ShapeRepr);

#[derive(Debug, Clone, PartialEq)]
enum ShapeRepr {
    Fixed(Key),
    Params(InlineVec<Param, SHAPE_INLINE>),
}

impl Shape {
    /// The key whose components are the given slots, in order.
    pub fn of(params: impl IntoIterator<Item = Param>) -> Self {
        Self(ShapeRepr::Params(params.into_iter().collect()))
    }

    /// The empty shape: no routing fields (a secondary step).
    pub(crate) fn empty() -> Self {
        Self(ShapeRepr::Fixed(Key::empty()))
    }

    /// `true` if the shape has no components.
    pub(crate) fn is_empty(&self) -> bool {
        match &self.0 {
            ShapeRepr::Fixed(key) => key.is_empty(),
            ShapeRepr::Params(params) => params.is_empty(),
        }
    }

    /// The key this shape makes from `params`.
    pub(crate) fn bind(&self, params: &Params) -> DbResult<Key> {
        self.bind_with(|param| params.int(param))
    }

    /// The key this shape makes, each slot read through `int`.
    fn bind_with(&self, int: impl Fn(Param) -> DbResult<i64>) -> DbResult<Key> {
        match &self.0 {
            ShapeRepr::Fixed(key) => Ok(key.clone()),
            ShapeRepr::Params(slots) => {
                let mut key = Key::empty();
                for param in slots.iter() {
                    key.push(int(*param)?);
                }
                Ok(key)
            }
        }
    }

    /// The shape as conflict-template key atoms: a fixed component is a
    /// [`KeyAtom::Const`], a slot a [`KeyAtom::Param`] under its name, and
    /// [`Param::TXN_ID`] a [`KeyAtom::Unique`].
    pub(crate) fn atoms(&self) -> Vec<KeyAtom> {
        match &self.0 {
            ShapeRepr::Fixed(key) => key.values().iter().cloned().map(KeyAtom::Const).collect(),
            ShapeRepr::Params(slots) => slots
                .iter()
                .map(|param| match *param {
                    Param::TXN_ID => KeyAtom::Unique,
                    param => KeyAtom::Param(param.name),
                })
                .collect(),
        }
    }
}

impl From<Key> for Shape {
    fn from(key: Key) -> Self {
        Self(ShapeRepr::Fixed(key))
    }
}

impl From<Param> for Shape {
    fn from(param: Param) -> Self {
        Self::of([param])
    }
}

/// Everything a program step may touch while it runs, on either engine.
pub struct StepCtx<'a> {
    /// The storage manager.
    pub db: &'a Database,
    /// The storage-level transaction the step belongs to.
    pub txn: &'a TxnHandle,
    /// The per-transaction scratchpad (data hand-off between phases).
    pub scratch: &'a Scratch,
    params: &'a Params,
    backend: Backend,
}

impl<'a> StepCtx<'a> {
    pub(crate) fn new(
        db: &'a Database,
        txn: &'a TxnHandle,
        scratch: &'a Scratch,
        params: &'a Params,
        backend: Backend,
    ) -> Self {
        Self {
            db,
            txn,
            scratch,
            params,
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

    /// The integer parameter in `param`'s slot, or the transaction id for
    /// [`Param::TXN_ID`].
    pub fn int(&self, param: Param) -> DbResult<i64> {
        match param {
            Param::TXN_ID => Ok(self.txn.id().0 as i64),
            param => self.params.int(param),
        }
    }

    /// The float parameter in `param`'s slot.
    pub fn float(&self, param: Param) -> DbResult<f64> {
        self.params.float(param)
    }

    /// The key `shape` makes from this transaction's parameters.
    pub(crate) fn key(&self, shape: &Shape) -> DbResult<Key> {
        shape.bind_with(|param| self.int(param))
    }

    /// A workload abort (invalid input, missing record, ...) attributed to
    /// this transaction. Aborts roll the whole transaction back on either
    /// engine but are not retried.
    pub fn abort(&self, reason: impl Into<std::borrow::Cow<'static, str>>) -> DbError {
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
/// deadlock victim, and every transaction bound from a plan runs the same
/// body. Shared, so that extending a shared plan copies the step list
/// without rebuilding a body.
pub(crate) type StepBody = Arc<dyn Fn(&StepCtx<'_>) -> DbResult<()> + Send + Sync>;

/// One step of a transaction program: a unit of work against a small set of
/// records of one table — exactly what DORA calls an *action* (Section
/// 4.1.2), but engine-agnostic.
///
/// A step also declares its data effects, once, where it is built: the
/// columns it reads ([`reads`](Self::reads)) and writes
/// ([`writes`](Self::writes)), whether it inserts or deletes rows, and how
/// often it aborts. The bind-time conflict analysis (`crate::conflict`)
/// derives its templates from these and from the step's table, route, key
/// and local-lock mode.
#[derive(Clone)]
pub struct Step {
    label: &'static str,
    table: TableId,
    /// Routing identifier (the routing-field values of the records the step
    /// touches). Empty for secondary steps.
    route: Shape,
    /// The primary key a typed read, update or delete addresses, or the one
    /// an insert declares for the rows it makes.
    key: Option<Shape>,
    mode: LocalMode,
    body: StepBody,
    /// `true` only for steps built with [`Step::secondary`] — the author
    /// declared up front that the step cannot be routed. A step whose route
    /// turns out empty *without* this flag falls back to the secondary path
    /// silently, which the engine flags once per bind (routing-coverage
    /// warning).
    declared_secondary: bool,
    /// `true` when the author asserted the step conflicts with nothing
    /// (a hand-built probe-free [`ActionSpec`](crate::ActionSpec)); the
    /// bind-time conflict matrix marks steps through the program's stamp
    /// instead.
    probe_free: bool,
    declared: Declared,
}

impl std::fmt::Debug for Step {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Step")
            .field("label", &self.label)
            .field("table", &self.table)
            .field("route", &self.route)
            .field("mode", &self.mode)
            .field("declared", &self.declared)
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
        route: impl Into<Shape>,
        mode: LocalMode,
        body: impl Fn(&StepCtx<'_>) -> DbResult<()> + Send + Sync + 'static,
    ) -> Self {
        Self {
            label,
            table,
            route: route.into(),
            key: None,
            mode,
            body: Arc::new(body),
            declared_secondary: false,
            probe_free: false,
            declared: Declared::default(),
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
            ..Self::custom(label, table, Shape::empty(), LocalMode::Shared, body)
        }
    }

    /// Reads the record at `key` (primary key) and hands it to `on_row`.
    pub fn read(
        label: &'static str,
        table: TableId,
        route: impl Into<Shape>,
        key: impl Into<Shape>,
        on_missing: OnMissing,
        on_row: impl Fn(&StepCtx<'_>, &Row) -> DbResult<()> + Send + Sync + 'static,
    ) -> Self {
        let key = key.into();
        let shape = key.clone();
        Self {
            key: Some(key),
            ..Self::custom(label, table, route, LocalMode::Shared, move |ctx| {
                let key = ctx.key(&shape)?;
                match ctx
                    .db
                    .probe_primary(ctx.txn, table, &key, false, ctx.cc())?
                {
                    Some((_, row)) => on_row(ctx, &row),
                    None => Err(on_missing.not_found(ctx, table, &key)),
                }
            })
        }
    }

    /// Updates the record at `key` (primary key) in place through `apply`.
    pub fn update(
        label: &'static str,
        table: TableId,
        route: impl Into<Shape>,
        key: impl Into<Shape>,
        on_missing: OnMissing,
        apply: impl Fn(&StepCtx<'_>, &mut Row) -> DbResult<()> + Send + Sync + 'static,
    ) -> Self {
        let key = key.into();
        let shape = key.clone();
        Self {
            key: Some(key),
            ..Self::custom(label, table, route, LocalMode::Exclusive, move |ctx| {
                let key = ctx.key(&shape)?;
                match ctx
                    .db
                    .update_primary(ctx.txn, table, &key, ctx.cc(), |row| apply(ctx, row))
                {
                    Ok(()) => Ok(()),
                    Err(DbError::NotFound { .. }) => Err(on_missing.not_found(ctx, table, &key)),
                    Err(other) => Err(other),
                }
            })
        }
    }

    /// Inserts the row built by `make_row` (which may read the parameters,
    /// the scratchpad and the transaction id).
    pub fn insert(
        label: &'static str,
        table: TableId,
        route: impl Into<Shape>,
        on_duplicate: OnDuplicate,
        make_row: impl Fn(&StepCtx<'_>) -> DbResult<Row> + Send + Sync + 'static,
    ) -> Self {
        Self {
            declared: Declared::existence(),
            ..Self::custom(label, table, route, LocalMode::Exclusive, move |ctx| {
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
    }

    /// Deletes the record at `key` (primary key).
    pub fn delete(
        label: &'static str,
        table: TableId,
        route: impl Into<Shape>,
        key: impl Into<Shape>,
        on_missing: OnMissing,
    ) -> Self {
        let key = key.into();
        let shape = key.clone();
        Self {
            key: Some(key),
            declared: Declared::existence(),
            ..Self::custom(label, table, route, LocalMode::Exclusive, move |ctx| {
                let key = ctx.key(&shape)?;
                match ctx.db.delete_primary(ctx.txn, table, &key, ctx.write_cc()) {
                    Ok(()) => Ok(()),
                    Err(DbError::NotFound { .. }) => Err(on_missing.not_found(ctx, table, &key)),
                    Err(other) => Err(other),
                }
            })
        }
    }

    /// Declares the column positions whose values the step consumes.
    /// Checking that a row exists does not count: that is covered by the
    /// existence rule. A routed step that declares none is taken to read
    /// every column, so a step that reads nothing says so with `reads([])`.
    pub fn reads(mut self, columns: impl IntoIterator<Item = usize>) -> Self {
        self.declared.reads = Some(columns.into_iter().collect());
        self
    }

    /// Declares the column positions the step writes. An exclusive step that
    /// declares none is taken to write every column.
    pub fn writes(mut self, columns: impl IntoIterator<Item = usize>) -> Self {
        self.declared.writes = Some(columns.into_iter().collect());
        self
    }

    /// Declares that the step inserts or deletes rows of its table (a
    /// row-existence effect). Typed inserts and deletes declare it
    /// themselves; a custom step that inserts or deletes must.
    pub fn inserts_or_deletes(mut self) -> Self {
        self.declared.existence = true;
        self
    }

    /// Declares the primary key of the rows an insert makes, so that the
    /// analysis can dismiss two inserts that never make the same key (a
    /// component [`Param::TXN_ID`] differs between any two transactions). A
    /// typed read, update or delete keeps the key it addresses.
    pub fn full_key(mut self, key: impl Into<Shape>) -> Self {
        self.key.get_or_insert_with(|| key.into());
        self
    }

    /// Declares the probability that the step aborts its transaction (the
    /// DORA-S decision of Figure 11 combines these per program).
    pub fn abort_rate(mut self, rate: f64) -> Self {
        self.declared.abort_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// The declared data effects.
    pub(crate) fn declared(&self) -> &Declared {
        &self.declared
    }

    /// Marks the step probe-free by hand: the author asserts the proof the
    /// conflict matrix would give (see [`crate::conflict`]).
    pub(crate) fn assert_probe_free(mut self, probe_free: bool) -> Self {
        self.probe_free = probe_free;
        self
    }

    /// Keeps or drops the author's declaration that the step is secondary.
    pub(crate) fn declare_secondary(mut self, declared: bool) -> Self {
        self.declared_secondary = declared;
        self
    }

    /// `true` if this step has no routing identifier (runs as a secondary
    /// action under DORA).
    pub(crate) fn is_secondary(&self) -> bool {
        self.route.is_empty()
    }

    /// `true` if the author declared the step secondary.
    pub(crate) fn is_declared_secondary(&self) -> bool {
        self.declared_secondary
    }

    /// The step's label (diagnostics, trace output).
    pub(crate) fn label(&self) -> &'static str {
        self.label
    }

    /// The table the step touches.
    pub(crate) fn table(&self) -> TableId {
        self.table
    }

    /// The routing identifier's shape.
    pub(crate) fn route(&self) -> &Shape {
        &self.route
    }

    /// The primary-key shape of a typed read, update or delete, or the one
    /// an insert declares.
    pub(crate) fn key(&self) -> Option<&Shape> {
        self.key.as_ref()
    }

    /// The local-lock mode the step needs on its route.
    pub(crate) fn mode(&self) -> LocalMode {
        self.mode
    }
}

/// The conflict stamp of one plan under one matrix: which steps are
/// probe-free, and whether the matrix asks for DORA-S. Computed once.
#[derive(Debug)]
struct Stamp {
    matrix: u64,
    /// `false` when the matrix has no declaration for the plan: the program
    /// is left as it is.
    known: bool,
    probe_free: Vec<bool>,
    serial: bool,
}

impl Stamp {
    fn compute(plan: &Plan, matrix: &ConflictMatrix) -> Self {
        let known = matrix.knows_program(plan.name);
        Self {
            matrix: matrix.id(),
            known,
            probe_free: plan
                .steps
                .iter()
                .map(|step| {
                    known && !step.route.is_empty() && matrix.is_probe_free(plan.name, step.label)
                })
                .collect(),
            serial: known && matrix.should_serialize(plan.name),
        }
    }
}

/// One entry of a plan's stamp list: the stamp under one matrix, then the
/// entry of the next matrix the plan met.
struct StampEntry {
    stamp: Stamp,
    next: OnceLock<Box<StampEntry>>,
}

/// The shared part of a program: everything but the parameters.
///
/// Aligned to two cache lines so that the fields sit apart from the `Arc`'s
/// reference count: every transaction bumps and drops that count from the
/// client threads while executors read the steps and phases. Sharing a line
/// cost TM1 about 0.3 µs of latency per transaction on a 2-vCPU host.
#[repr(align(128))]
struct Plan {
    name: &'static str,
    steps: Vec<Step>,
    /// Step ranges of the phases, in order. Only the last may be empty.
    phases: Vec<Range<usize>>,
    serial: bool,
    /// The stamps of the matrices this plan met, in the order it met them:
    /// one per engine that ran it, usually one. Append-only, so reading a
    /// stamp writes nothing that concurrent transactions share.
    stamps: OnceLock<Box<StampEntry>>,
}

impl Clone for Plan {
    /// A copy to extend: the stamps are left behind, since they describe
    /// the original's steps.
    fn clone(&self) -> Self {
        Self {
            name: self.name,
            steps: self.steps.clone(),
            phases: self.phases.clone(),
            serial: self.serial,
            stamps: OnceLock::new(),
        }
    }
}

impl Plan {
    /// Number of non-empty phases.
    fn phase_count(&self) -> usize {
        let trailing_empty = self.phases.last().is_some_and(|phase| phase.is_empty());
        self.phases.len() - usize::from(trailing_empty)
    }

    /// The position of `matrix`'s stamp in the stamp list, and the stamp:
    /// computed and appended the first time the plan meets the matrix.
    fn stamp_for(&self, matrix: &ConflictMatrix) -> (usize, &Stamp) {
        let mut slot = &self.stamps;
        let mut position = 0;
        loop {
            let entry = slot.get_or_init(|| {
                Box::new(StampEntry {
                    stamp: Stamp::compute(self, matrix),
                    next: OnceLock::new(),
                })
            });
            if entry.stamp.matrix == matrix.id() {
                return (position, &entry.stamp);
            }
            slot = &entry.next;
            position += 1;
        }
    }

    /// The stamp at `position` in the stamp list.
    fn stamp_at(&self, position: usize) -> Option<&Stamp> {
        let mut entry = self.stamps.get()?;
        for _ in 0..position {
            entry = entry.next.get()?;
        }
        Some(&entry.stamp)
    }
}

/// A declarative transaction program: the single source of truth for one
/// transaction, run on either execution architecture — a shared plan plus
/// this transaction's parameters. See the module docs for the full story and
/// a runnable example.
pub struct TxnProgram {
    plan: Arc<Plan>,
    params: Params,
    /// Set by [`with_conflicts`](Self::with_conflicts) for a plan the matrix
    /// knows: the position of the matrix's stamp in the plan's stamp list.
    stamp: Option<usize>,
}

impl std::fmt::Debug for TxnProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnProgram")
            .field("name", &self.plan.name)
            .field("steps", &self.plan.steps)
            .field("params", &self.params)
            .field("serial", &self.is_serialized())
            .finish()
    }
}

impl TxnProgram {
    /// Creates an empty program. `name` is the transaction-type label used
    /// by reports and statistics (e.g. `"tpcc-payment"`).
    pub fn new(name: &'static str) -> Self {
        Self {
            plan: Arc::new(Plan {
                name,
                steps: Vec::new(),
                phases: Vec::new(),
                serial: false,
                stamps: OnceLock::new(),
            }),
            params: Params::new(),
            stamp: None,
        }
    }

    /// The same plan bound to `params`: the program of one transaction. No
    /// step is rebuilt — the plan is shared, and so is its conflict stamp.
    pub fn bind(&self, params: Params) -> TxnProgram {
        TxnProgram {
            plan: self.plan.clone(),
            params,
            stamp: self.stamp,
        }
    }

    /// The transaction-type label.
    pub fn name(&self) -> &'static str {
        self.plan.name
    }

    /// The bound parameters.
    pub(crate) fn params(&self) -> &Params {
        &self.params
    }

    /// The plan's steps, in program order.
    pub(crate) fn steps(&self) -> &[Step] {
        &self.plan.steps
    }

    /// The plan, for extending: copied first if another program shares it.
    /// A stamp describes the steps as they were, so it is dropped.
    fn plan_mut(&mut self) -> &mut Plan {
        self.stamp = None;
        let plan = Arc::make_mut(&mut self.plan);
        plan.stamps = OnceLock::new();
        plan
    }

    /// Appends a step to the current phase.
    pub fn step(mut self, step: Step) -> Self {
        self.push_step(step);
        self
    }

    pub(crate) fn push_step(&mut self, step: Step) {
        let plan = self.plan_mut();
        plan.steps.push(step);
        let end = plan.steps.len();
        match plan.phases.last_mut() {
            Some(phase) => phase.end = end,
            None => plan.phases.push(end - 1..end),
        }
    }

    /// Marks a rendezvous point: steps added afterwards belong to the next
    /// phase and only start once every step of this phase has finished (an
    /// explicit data- or control-dependency boundary). A boundary with no
    /// step before it is dropped.
    pub fn rvp(mut self) -> Self {
        self.push_rvp();
        self
    }

    pub(crate) fn push_rvp(&mut self) {
        let plan = self.plan_mut();
        let end = plan.steps.len();
        if plan.phases.last().is_none_or(|phase| !phase.is_empty()) {
            plan.phases.push(end..end);
        }
    }

    /// Selects the fully serialized execution plan (DORA-S, Appendix A.4):
    /// [`compile_dora`](Self::compile_dora) will put every step in its own
    /// phase, in program order. The baseline compilation is unaffected — it
    /// is sequential either way.
    pub fn serialized(mut self, serial: bool) -> Self {
        self.plan_mut().serial = serial;
        self
    }

    /// `true` if the serialized (DORA-S) plan was selected, by hand or by
    /// the conflict stamp.
    pub(crate) fn is_serialized(&self) -> bool {
        self.plan.serial || self.stamp().is_some_and(|stamp| stamp.serial)
    }

    /// Number of steps across all phases.
    pub fn step_count(&self) -> usize {
        self.plan.steps.len()
    }

    /// Number of non-empty phases (what
    /// [`compile_dora`](Self::compile_dora) will produce for a non-serial
    /// program).
    pub fn phase_count(&self) -> usize {
        self.plan.phase_count()
    }

    /// Number of secondary (unrouted) steps.
    pub fn secondary_count(&self) -> usize {
        self.plan.steps.iter().filter(|s| s.is_secondary()).count()
    }

    /// `true` if every step declares [`LocalMode::Shared`] — the program
    /// never writes, so it is eligible for lock-free snapshot execution.
    pub(crate) fn is_read_only(&self) -> bool {
        self.plan.steps.iter().all(|s| s.mode == LocalMode::Shared)
    }

    // ----- typed-step sugar (delegates to the [`Step`] constructors) --------

    /// Appends a [`Step::read`] to the current phase.
    pub fn read(
        self,
        label: &'static str,
        table: TableId,
        route: impl Into<Shape>,
        key: impl Into<Shape>,
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
        route: impl Into<Shape>,
        key: impl Into<Shape>,
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
        route: impl Into<Shape>,
        on_duplicate: OnDuplicate,
        make_row: impl Fn(&StepCtx<'_>) -> DbResult<Row> + Send + Sync + 'static,
    ) -> Self {
        self.step(Step::insert(label, table, route, on_duplicate, make_row))
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
        route: impl Into<Shape>,
        mode: LocalMode,
        body: impl Fn(&StepCtx<'_>) -> DbResult<()> + Send + Sync + 'static,
    ) -> Self {
        self.step(Step::custom(label, table, route, mode, body))
    }

    /// Applies a bind-time [`ConflictMatrix`] to this program: steps the
    /// matrix proved conflict-free are marked probe-free (they run on the
    /// thread that dispatches their phase, with no local-lock-table acquire,
    /// counter `LockProbesElided`), and a program the matrix flags as
    /// high-abort is switched to the DORA-S serialized plan (Figure 11).
    ///
    /// The stamp is computed the first time a plan meets a matrix and kept
    /// on the plan beside the stamps of the other matrices it met, so every
    /// later program bound from it is stamped with no lookup by name.
    /// Programs the matrix has no declaration for (matched by
    /// [`name`](Self::name)) are returned unchanged — ad-hoc programs stay
    /// fully probed.
    pub fn with_conflicts(mut self, matrix: &ConflictMatrix) -> Self {
        let (position, stamp) = self.plan.stamp_for(matrix);
        self.stamp = stamp.known.then_some(position);
        self
    }

    /// The conflict stamp this program carries.
    fn stamp(&self) -> Option<&Stamp> {
        self.plan.stamp_at(self.stamp?)
    }

    /// `true` if step `index` skips the local-lock table: marked by the
    /// conflict stamp, or by hand.
    pub(crate) fn is_probe_free(&self, index: usize) -> bool {
        self.plan
            .steps
            .get(index)
            .is_some_and(|step| step.probe_free)
            || self
                .stamp()
                .and_then(|stamp| stamp.probe_free.get(index).copied())
                .unwrap_or(false)
    }

    /// Number of phases DORA runs: one per step under DORA-S.
    pub(crate) fn dora_phase_count(&self) -> usize {
        if self.is_serialized() {
            self.step_count()
        } else {
            self.phase_count()
        }
    }

    /// The steps of DORA phase `phase` (empty past the last one).
    pub(crate) fn dora_phase(&self, phase: usize) -> Range<usize> {
        if self.is_serialized() {
            phase.min(self.step_count())..(phase + 1).min(self.step_count())
        } else {
            self.plan.phases.get(phase).cloned().unwrap_or(0..0)
        }
    }

    /// Runs step `index`, if there is one.
    pub(crate) fn run_step(&self, index: usize, ctx: &StepCtx<'_>) -> DbResult<()> {
        match self.plan.steps.get(index) {
            Some(step) => (step.body)(ctx),
            None => Err(DbError::InvalidOperation(format!(
                "program `{}` has no step {index}",
                self.plan.name
            ))),
        }
    }

    // ----- compilers ---------------------------------------------------------

    /// Lowers the program to a DORA transaction flow graph: one action per
    /// step, phases split at the [`rvp`](Self::rvp) boundaries (or one step
    /// per phase for a [`serialized`](Self::serialized) program), secondary
    /// steps as secondary actions. Free: the graph *is* the program.
    pub fn compile_dora(self) -> FlowGraph {
        FlowGraph::from_program(self)
    }

    /// Lowers the program to a sequential transaction body for the
    /// conventional engine: the same steps, in program order, every access
    /// under full centralized concurrency control. The closure may be called
    /// repeatedly (the baseline retries deadlock victims); each call gets a
    /// fresh scratchpad.
    pub fn compile_baseline(self) -> impl Fn(&Database, &TxnHandle) -> DbResult<()> + Send + Sync {
        move |db, txn| self.run_baseline(db, txn)
    }

    /// Wraps the program into the [`PreparedProgram`] handle the engines
    /// execute, any number of times, on either engine.
    pub fn prepare(self) -> PreparedProgram {
        PreparedProgram { program: self }
    }

    /// Another program with the same plan, parameters and stamp.
    fn share(&self) -> TxnProgram {
        TxnProgram {
            plan: self.plan.clone(),
            params: self.params.clone(),
            stamp: self.stamp,
        }
    }

    /// Runs the program sequentially with a fresh scratchpad.
    fn run_baseline(&self, db: &Database, txn: &TxnHandle) -> DbResult<()> {
        let scratch = Scratch::new();
        let ctx = StepCtx::new(db, txn, &scratch, &self.params, Backend::Baseline);
        self.plan
            .steps
            .iter()
            .try_for_each(|step| (step.body)(&ctx))
    }
}

/// A [`TxnProgram`] ready to execute, many times.
///
/// Cloning one (one clone per session, per execution) bumps the plan's
/// reference count and copies the parameters — no step body is rebuilt.
/// Each [`flow_graph`](Self::flow_graph) call is such a clone, and
/// [`run_baseline`](Self::run_baseline) runs the steps directly with a fresh
/// scratchpad per call.
pub struct PreparedProgram {
    program: TxnProgram,
}

impl Clone for PreparedProgram {
    fn clone(&self) -> Self {
        Self {
            program: self.program.share(),
        }
    }
}

impl std::fmt::Debug for PreparedProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedProgram")
            .field("name", &self.name())
            .field("steps", &self.step_count())
            .field("serial", &self.is_serialized())
            .finish()
    }
}

impl PreparedProgram {
    /// The transaction-type label.
    pub fn name(&self) -> &'static str {
        self.program.name()
    }

    /// Number of steps across all phases.
    pub(crate) fn step_count(&self) -> usize {
        self.program.step_count()
    }

    /// `true` if the serialized (DORA-S) plan was selected.
    pub(crate) fn is_serialized(&self) -> bool {
        self.program.is_serialized()
    }

    /// The same plan bound to `params` ([`TxnProgram::bind`]): another
    /// transaction of this type, to prepare and run.
    pub fn bind(&self, params: Params) -> TxnProgram {
        self.program.bind(params)
    }

    /// The DORA transaction flow graph of one execution: the same plan and
    /// parameters, shared.
    pub fn flow_graph(&self) -> FlowGraph {
        FlowGraph::from_program(self.program.share())
    }

    /// Runs the program sequentially on the conventional engine, with a
    /// fresh scratchpad (safe to call repeatedly — the baseline retries
    /// deadlock victims).
    pub fn run_baseline(&self, db: &Database, txn: &TxnHandle) -> DbResult<()> {
        self.program.run_baseline(db, txn)
    }

    /// `true` if every step declares [`LocalMode::Shared`] — the program
    /// never writes, so it is eligible for lock-free snapshot execution.
    pub fn is_read_only(&self) -> bool {
        self.program.is_read_only()
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
                self.name()
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

    /// Steps the bind-time analysis proved conflict-free.
    fn elided(program: &TxnProgram) -> usize {
        (0..program.step_count())
            .filter(|index| program.is_probe_free(*index))
            .count()
    }

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
                assert!(ctx.scratch.get_at("seen", 0).is_none());
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
        let aborted = run(TxnProgram::new("t").step(Step::delete(
            "del",
            table,
            Key::int(99),
            Key::int(99),
            OnMissing::Abort("nothing to delete"),
        )));
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
        assert_eq!(prepared.program.phase_count(), 1);
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
        let (_db, table) = counter_db();
        // "bump" writes column 1 and races itself → keeps its probe, and its
        // 0.5 abort rate pushes the program over the DORA-S threshold.
        // "peek" reads no column → dismissed against every writer.
        let declared = TxnProgram::new("mixed")
            .step(
                Step::custom("bump", table, ID, LocalMode::Exclusive, |_| Ok(()))
                    .writes([1])
                    .abort_rate(0.5),
            )
            .step(Step::custom("peek", table, ID, LocalMode::Shared, |_| Ok(())).reads([]));
        let matrix = ConflictMatrix::analyze(&[declared], 0.1).unwrap();

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
        assert_eq!(elided(&program), 1);
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
        assert_eq!(elided(&adhoc), 0);
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
        let params = Params::new();
        let base = StepCtx::new(&db, &txn, &scratch, &params, Backend::Baseline);
        assert_eq!(base.cc(), CcMode::Full);
        assert_eq!(base.write_cc(), CcMode::Full);
        let dora = StepCtx::new(&db, &txn, &scratch, &params, Backend::Dora);
        assert_eq!(dora.cc(), CcMode::None);
        assert_eq!(dora.write_cc(), CcMode::RowOnly);
        db.abort(&txn).unwrap();
    }

    const ID: Param = Param::new(0, "id");

    fn bump_plan(table: TableId) -> TxnProgram {
        TxnProgram::new("bump-plan").update("bump", table, ID, ID, OnMissing::Error, |_ctx, row| {
            let n = row[1].as_int()?;
            row[1] = Value::Int(n + 1);
            Ok(())
        })
    }

    #[test]
    fn a_plan_bound_to_parameters_routes_and_runs_on_both_engines() {
        let (db_base, table) = counter_db();
        let (db_dora, _) = counter_db();
        let engine = DoraEngine::new(Arc::clone(&db_dora), DoraConfig::for_tests());
        engine.bind_table(table, 2, 1, 8).unwrap();
        let plan = bump_plan(table);
        for id in [2i64, 2, 7] {
            let graph = plan.bind(Params::of([id])).compile_dora();
            assert_eq!(
                graph.describe(),
                vec![vec![format!("bump{}", Key::int(id))]]
            );
            engine.execute(graph).unwrap();
            let body = plan.bind(Params::of([id])).compile_baseline();
            let txn = db_base.begin();
            body(&db_base, &txn).unwrap();
            db_base.commit(&txn).unwrap();
        }
        for db in [&db_base, &db_dora] {
            assert_eq!(counter_value(db, table, 2), 2);
            assert_eq!(counter_value(db, table, 7), 1);
        }
        // Binding shares the plan: no step is rebuilt.
        let bound = plan.bind(Params::of([3]));
        assert!(std::ptr::eq(bound.steps(), plan.steps()));
        engine.shutdown();
    }

    #[test]
    fn a_missing_parameter_is_an_error_not_a_panic() {
        let (db, table) = counter_db();
        let body = bump_plan(table).bind(Params::new()).compile_baseline();
        let txn = db.begin();
        assert!(matches!(body(&db, &txn), Err(DbError::InvalidOperation(_))));
        db.abort(&txn).unwrap();
    }

    #[test]
    fn params_round_trip_ints_and_floats() {
        let mut params = Params::new();
        params.push(-4);
        let params = params.with_float(12.5);
        assert_eq!(params.len(), 2);
        assert_eq!(params.int(Param::new(0, "a")).unwrap(), -4);
        assert_eq!(params.float(Param::new(1, "b")).unwrap(), 12.5);
        assert!(params.int(Param::new(2, "c")).is_err());
        let many: Params = (0..20).collect();
        assert_eq!(many.int(Param::new(19, "last")).unwrap(), 19);
        // A long list is one buffer that every copy shares.
        let copy = many.clone();
        match (&many.0, &copy.0) {
            (Slots::Shared(a), Slots::Shared(b)) => assert!(Arc::ptr_eq(a, b)),
            _ => panic!("20 slots are not inline"),
        }
        let mut grown = Params::of([1, 2, 3, 4, 5, 6, 7, 8]);
        grown.push(9);
        let grown = grown.with_float(0.5);
        assert_eq!(grown.len(), 10);
        assert_eq!(grown.int(Param::new(8, "ninth")).unwrap(), 9);
        assert_eq!(grown.float(Param::new(9, "tenth")).unwrap(), 0.5);
    }

    #[test]
    fn the_stamp_is_computed_once_per_plan_and_shared_by_bindings() {
        let (_db, table) = counter_db();
        // Declared as a read of nothing, "bump" conflicts with nothing.
        let reading = TxnProgram::new("bump-plan")
            .step(Step::custom("bump", table, ID, LocalMode::Shared, |_| Ok(())).reads([]));
        let matrix = ConflictMatrix::analyze(&[reading], 0.1).unwrap();
        let plan = bump_plan(table);
        let first = plan.bind(Params::of([1])).with_conflicts(&matrix);
        let second = plan.bind(Params::of([2])).with_conflicts(&matrix);
        assert_eq!(elided(&first), 1);
        assert_eq!((first.stamp, second.stamp), (Some(0), Some(0)));
        // Another matrix gets a stamp of its own beside the first, shared
        // by the programs stamped with it.
        let other = ConflictMatrix::analyze(&[bump_plan(table)], 0.1).unwrap();
        let third = plan.bind(Params::of([3])).with_conflicts(&other);
        let fourth = plan.bind(Params::of([4])).with_conflicts(&other);
        assert_eq!((third.stamp, fourth.stamp), (Some(1), Some(1)));
        assert_eq!(elided(&third), 0);
        assert_eq!(elided(&first), 1);
        let fifth = plan.bind(Params::new()).with_conflicts(&matrix);
        assert_eq!((fifth.stamp, elided(&fifth)), (Some(0), 1));
        // Extending a stamped program drops the stamp: it described the
        // steps before the extension.
        let extended = first.rvp().step(bump_step(table, 3));
        assert_eq!(elided(&extended), 0);
        assert_eq!(
            plan.step_count(),
            1,
            "the shared plan is copied, not changed"
        );
    }

    #[test]
    fn shapes_bind_slots_in_order_and_name_their_atoms() {
        let a = Param::new(0, "a");
        let c = Param::new(2, "c");
        let shape = Shape::of([c, a]);
        assert_eq!(shape.bind(&Params::of([1, 2, 3])).unwrap(), Key::int2(3, 1));
        assert_eq!(
            shape.atoms(),
            vec![KeyAtom::Param("c"), KeyAtom::Param("a")]
        );
        let fixed = Shape::from(Key::int(9));
        assert_eq!(fixed.bind(&Params::new()).unwrap(), Key::int(9));
        assert_eq!(fixed.atoms(), vec![KeyAtom::Const(Value::Int(9))]);
        assert!(Shape::empty().is_empty());
        // The transaction id is no slot: a unique atom, read from the step's
        // transaction.
        let history = Shape::of([a, Param::TXN_ID]);
        assert_eq!(history.atoms(), vec![KeyAtom::Param("a"), KeyAtom::Unique]);
        assert!(history.bind(&Params::of([1])).is_err());
        let db = Database::for_tests();
        let txn = db.begin();
        let scratch = Scratch::new();
        let params = Params::of([4]);
        let ctx = StepCtx::new(&db, &txn, &scratch, &params, Backend::Dora);
        assert_eq!(ctx.key(&history).unwrap(), Key::int2(4, txn.id().0 as i64));
        db.abort(&txn).unwrap();
    }
}
