//! The unified execution-engine abstraction.
//!
//! The paper compares two execution architectures — conventional
//! thread-to-transaction (the Baseline) and data-oriented thread-to-data
//! (DORA) — over the same storage manager and the same workloads.
//! [`ExecutionEngine`] is the single seam through which the load driver, the
//! benchmark harness, the server, the equivalence tests and the examples
//! drive either one: bind a [`Workload`], [`prepare`](ExecutionEngine::prepare)
//! a program, then [`execute_prepared_checked`](ExecutionEngine::execute_prepared_checked)
//! it. That is the one way a transaction runs; [`execute_one`](ExecutionEngine::execute_one)
//! only draws the program from the bound workload's mix first.
//!
//! Both engines answer one client contract: a deadlock victim is retried
//! inside the call by [`dora_core::retry_deadlocks`], a workload abort is
//! `Ok(Aborted)`, retry exhaustion is `Ok(GaveUp)`, and every other failure
//! (e.g. [`DbError::DurabilityLost`]) is an `Err` that was not retried.
//!
//! Adding a third architecture (e.g. a physiologically-partitioned or
//! HTAP-style engine) requires implementing this trait and registering a
//! factory arm in [`build_engine_with`] — no workload, driver, test or
//! experiment code changes.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;
use rand::rngs::SmallRng;

use dora_common::prelude::*;
use dora_core::{
    retry_deadlocks, AdaptiveController, ConflictMatrix, DoraConfig, DoraEngine, PreparedProgram,
    TxnProgram,
};
use dora_storage::{Database, Snapshot};
use dora_workloads::{Workload, WorkloadStats};

use crate::baseline::BaselineEngine;

const ALREADY_BOUND: &str = "workload already bound to this engine";

/// One execution architecture bound to one workload.
///
/// Implementations hold whatever per-architecture state they need (executor
/// threads, routing tables, a conflict matrix); callers see only:
/// *setup* — [`bind`](Self::bind) a workload once, *execute* —
/// [`prepare`](Self::prepare) and
/// [`execute_prepared_checked`](Self::execute_prepared_checked), and
/// *teardown* — [`shutdown`](Self::shutdown).
pub trait ExecutionEngine: Send + Sync {
    /// Which registered architecture this is.
    fn kind(&self) -> EngineKind;

    /// The underlying storage manager.
    fn db(&self) -> &Arc<Database>;

    /// Binds `workload` to this engine: whatever per-architecture setup the
    /// workload needs (DORA binds tables to executors; the baseline has no
    /// setup). Must be called exactly once, before `execute_one`; a second
    /// call is rejected before it has any side effect.
    fn bind(&self, workload: Arc<dyn Workload>, executors_per_table: usize) -> DbResult<()>;

    /// The workload [`bind`](Self::bind) installed, if any.
    fn workload(&self) -> Option<&Arc<dyn Workload>>;

    /// Runs one transaction drawn from the bound workload's mix: draw,
    /// [`prepare`](Self::prepare), then
    /// [`execute_prepared_checked`](Self::execute_prepared_checked). Every
    /// error folds into `Aborted`.
    ///
    /// # Panics
    /// Panics if no workload has been bound.
    fn execute_one(&self, rng: &mut SmallRng) -> TxnOutcome {
        // Invariant (see `# Panics`): a caller binds before it draws; an
        // unbound engine here is a harness bug, not a run-time condition.
        let workload = self.workload().expect("no workload bound");
        workload
            .next_program(self.db(), rng)
            .and_then(|program| self.prepare(program))
            .and_then(|prepared| self.execute_prepared_checked(&prepared))
            .unwrap_or(TxnOutcome::Aborted)
    }

    /// Like [`execute_one`](Self::execute_one), but also times the
    /// transaction (prepare and execute) and tallies its outcome under its
    /// transaction-type label in `stats` — the feed for the per-type summary
    /// tables (commits, aborts, gave-up, error rate, response times) the
    /// benchmark reports print.
    ///
    /// # Panics
    /// Panics if no workload has been bound.
    fn execute_one_timed(&self, rng: &mut SmallRng, stats: &WorkloadStats) -> TxnOutcome {
        // Invariant (see `# Panics`): a caller binds before it draws; an
        // unbound engine here is a harness bug, not a run-time condition.
        let workload = self.workload().expect("no workload bound");
        let Ok(program) = workload.next_program(self.db(), rng) else {
            return TxnOutcome::Aborted;
        };
        let label = program.name();
        let start = Instant::now();
        let outcome = self
            .prepare(program)
            .and_then(|prepared| self.execute_prepared_checked(&prepared))
            .unwrap_or(TxnOutcome::Aborted);
        stats.record_timed(label, outcome, start.elapsed());
        outcome
    }

    /// Turns `program` into a reusable [`PreparedProgram`] handle — the
    /// compile-once/execute-many seam servers hold on to. The default just
    /// wraps it; an architecture may also stamp it (DORA marks the steps its
    /// conflict analysis proved probe-free).
    fn prepare(&self, program: TxnProgram) -> DbResult<PreparedProgram> {
        Ok(program.prepare())
    }

    /// Executes one instance of a prepared program to its end. This needs no
    /// bound workload: the program *is* the work.
    ///
    /// The contract is the same on every engine: deadlock victims are
    /// retried inside the call (up to `SystemConfig::max_retries` times),
    /// and the result is `Ok(Committed)`, `Ok(Aborted)` for a workload
    /// abort, `Ok(GaveUp)` when every attempt was a victim, or the `Err`
    /// that ended the one attempt it was not safe to re-run — such as
    /// [`DbError::DurabilityLost`] (a ghost commit must never be re-run).
    fn execute_prepared_checked(&self, prepared: &PreparedProgram) -> DbResult<TxnOutcome>;

    /// Executes a read-only prepared program against an already-pinned
    /// [`Snapshot`] — the HTAP scan path. The program runs on the calling
    /// thread with no DORA routing, no local-lock-table probes, and no
    /// centralized lock manager involvement; several scans may share one
    /// snapshot to amortize the pin. Programs with write steps are rejected.
    fn execute_on_snapshot(
        &self,
        prepared: &PreparedProgram,
        snapshot: &Arc<Snapshot>,
    ) -> DbResult<TxnOutcome> {
        prepared.run_snapshot(self.db(), snapshot)?;
        Ok(TxnOutcome::Committed)
    }

    /// Stops any engine-owned threads. Idempotent; the default is a no-op.
    fn shutdown(&self) {}
}

impl dyn ExecutionEngine {
    /// Pins a [`Snapshot`] at the current published commit-ticket horizon,
    /// for [`ExecutionEngine::execute_on_snapshot`]. Not a trait method:
    /// snapshots live in the storage manager, below the execution
    /// architecture, so no engine can answer differently.
    pub fn snapshot(&self) -> Snapshot {
        self.db().snapshot()
    }
}

impl ExecutionEngine for BaselineEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Baseline
    }

    fn db(&self) -> &Arc<Database> {
        BaselineEngine::db(self)
    }

    fn bind(&self, workload: Arc<dyn Workload>, _executors_per_table: usize) -> DbResult<()> {
        // The conventional engine needs no per-workload setup: any thread may
        // touch any record, which is the whole point of the architecture.
        self.bound
            .set(workload)
            .map_err(|_| DbError::InvalidOperation(ALREADY_BOUND.into()))
    }

    fn workload(&self) -> Option<&Arc<dyn Workload>> {
        self.bound.get()
    }

    fn execute_prepared_checked(&self, prepared: &PreparedProgram) -> DbResult<TxnOutcome> {
        self.execute(|db, txn| prepared.run_baseline(db, txn))
    }
}

/// Adapter presenting [`DoraEngine`] (which lives below the workload crate
/// and therefore cannot know about workloads) as an [`ExecutionEngine`].
pub struct DoraExecution {
    engine: Arc<DoraEngine>,
    bound: OnceLock<Arc<dyn Workload>>,
    /// The adaptive repartitioning controller, spawned at bind time when
    /// `DoraConfig::adaptive.enabled` is set. Stopped before the engine in
    /// [`ExecutionEngine::shutdown`] (a resize drains executors, so the
    /// controller must never outlive them).
    adaptive: Mutex<Option<AdaptiveController>>,
    /// The workload's conflict matrix, computed once at bind time when the
    /// workload hands over its plans. [`ExecutionEngine::prepare`] stamps
    /// every program against it (probe-free steps, DORA-S
    /// auto-serialization).
    conflicts: OnceLock<ConflictMatrix>,
}

impl DoraExecution {
    /// Wraps an already-constructed DORA engine.
    pub fn new(engine: Arc<DoraEngine>) -> Self {
        Self {
            engine,
            bound: OnceLock::new(),
            adaptive: Mutex::new(None),
            conflicts: OnceLock::new(),
        }
    }

    /// The wrapped DORA engine, for callers that need architecture-specific
    /// access (routing tables, executor loads, flow-graph submission).
    pub fn dora(&self) -> &Arc<DoraEngine> {
        &self.engine
    }

    /// Resizes the adaptive controller has driven so far (0 when adaptivity
    /// is disabled).
    pub fn adaptive_resizes(&self) -> u64 {
        self.adaptive
            .lock()
            .as_ref()
            .map(AdaptiveController::resizes)
            .unwrap_or(0)
    }
}

impl ExecutionEngine for DoraExecution {
    fn kind(&self) -> EngineKind {
        EngineKind::Dora
    }

    fn db(&self) -> &Arc<Database> {
        self.engine.db()
    }

    fn bind(&self, workload: Arc<dyn Workload>, executors_per_table: usize) -> DbResult<()> {
        // Reject a second workload before `bind_dora` spawns any executor.
        if self.bound.get().is_some() {
            return Err(DbError::InvalidOperation(ALREADY_BOUND.into()));
        }
        workload.bind_dora(&self.engine, executors_per_table)?;
        // Static conflict analysis, once per workload (DIBS-style): derive a
        // template from every step of the workload's plans, compare every
        // pair, and record which steps can skip the local-lock probe and
        // which programs should run as DORA-S serialized plans. A workload
        // without plans gets no matrix.
        let plans = workload.plans(self.engine.db())?;
        if !plans.is_empty() {
            let matrix =
                ConflictMatrix::analyze(&plans, self.engine.config().serialize_abort_threshold)?;
            let db = self.engine.db();
            let report = matrix.report(&|table| {
                db.catalog()
                    .table(table)
                    .map(|meta| meta.schema.name.clone())
                    .unwrap_or_else(|_| table.to_string())
            });
            eprintln!("{report}");
            let _ = self.conflicts.set(matrix);
        }
        self.bound
            .set(workload)
            .map_err(|_| DbError::InvalidOperation(ALREADY_BOUND.into()))?;
        let adaptive_config = self.engine.config().adaptive.clone();
        if adaptive_config.enabled {
            *self.adaptive.lock() = Some(AdaptiveController::spawn(
                Arc::clone(&self.engine),
                adaptive_config,
            ));
        }
        Ok(())
    }

    fn workload(&self) -> Option<&Arc<dyn Workload>> {
        self.bound.get()
    }

    fn prepare(&self, program: TxnProgram) -> DbResult<PreparedProgram> {
        // Stamp the bind-time conflict matrix (probe-free steps, DORA-S
        // auto-serialization). The stamp is cached on the program's plan the
        // first time the plan meets the matrix, so a transaction bound from a
        // cached plan shares it: no lookup by name per transaction.
        Ok(match self.conflicts.get() {
            Some(matrix) => program.with_conflicts(matrix),
            None => program,
        }
        .prepare())
    }

    fn execute_prepared_checked(&self, prepared: &PreparedProgram) -> DbResult<TxnOutcome> {
        // Each attempt's flow graph shares the handle's plan and copies its
        // parameters; nothing is built per attempt.
        retry_deadlocks(self.engine.db().config().max_retries, || {
            self.engine.execute(prepared.flow_graph())
        })
    }

    fn shutdown(&self) {
        // Stop the controller first: it may be mid-resize, which needs live
        // executors to drain.
        if let Some(controller) = self.adaptive.lock().take() {
            controller.stop();
        }
        self.engine.shutdown();
    }
}

/// The engine registry: constructs the requested architecture over `db`.
/// This `match` is the *only* place in the workspace that branches on the
/// engine kind — everything downstream holds an `Arc<dyn ExecutionEngine>`.
pub fn build_engine_with(
    kind: EngineKind,
    db: Arc<Database>,
    dora_config: DoraConfig,
) -> Arc<dyn ExecutionEngine> {
    match kind {
        EngineKind::Baseline => Arc::new(BaselineEngine::new(db)),
        EngineKind::Dora => Arc::new(DoraExecution::new(Arc::new(DoraEngine::new(
            db,
            dora_config,
        )))),
    }
}

/// [`build_engine_with`] using the default DORA configuration.
pub fn build_engine(kind: EngineKind, db: Arc<Database>) -> Arc<dyn ExecutionEngine> {
    build_engine_with(kind, db, DoraConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dora_workloads::TpcB;
    use rand::SeedableRng;

    fn bound_engine(kind: EngineKind) -> Arc<dyn ExecutionEngine> {
        let db = Database::for_tests();
        let workload: Arc<dyn Workload> = Arc::new(TpcB::with_accounts(2, 20));
        workload.setup(&db).unwrap();
        let engine = build_engine_with(kind, db, DoraConfig::for_tests());
        engine.bind(workload, 2).unwrap();
        engine
    }

    #[test]
    fn every_registered_engine_executes_transactions() {
        for kind in EngineKind::ALL {
            let engine = bound_engine(kind);
            assert_eq!(engine.kind(), kind);
            let mut rng = SmallRng::seed_from_u64(3);
            let mut committed = 0;
            for _ in 0..20 {
                if engine.execute_one(&mut rng) == TxnOutcome::Committed {
                    committed += 1;
                }
            }
            assert!(committed > 0, "{} committed nothing", kind.label());
            engine.shutdown();
        }
    }

    #[test]
    fn every_registered_engine_executes_prepared_programs() {
        for kind in EngineKind::ALL {
            let engine = bound_engine(kind);
            let db = Arc::clone(engine.db());
            let workload = TpcB::with_accounts(2, 20);
            // Prepare once, execute many: the same parameterized transfer.
            let program = workload.account_update_program(&db, 1, 1, 1, 10.0).unwrap();
            let prepared = engine.prepare(program).unwrap();
            for _ in 0..5 {
                assert_eq!(
                    engine.execute_prepared_checked(&prepared).unwrap(),
                    TxnOutcome::Committed,
                    "{} failed a prepared execution",
                    kind.label()
                );
            }
            engine.shutdown();
        }
    }

    #[test]
    fn timed_execution_feeds_per_type_stats() {
        for kind in EngineKind::ALL {
            let engine = bound_engine(kind);
            let stats = WorkloadStats::new();
            let mut rng = SmallRng::seed_from_u64(7);
            for _ in 0..10 {
                engine.execute_one_timed(&mut rng, &stats);
            }
            let row = stats.type_stats(TpcB::ACCOUNT_UPDATE);
            assert_eq!(row.total(), 10, "{}: every run tallied", kind.label());
            assert_eq!(row.latency.count(), 10, "{}: every run timed", kind.label());
            engine.shutdown();
        }
    }

    #[test]
    fn rebinding_is_rejected() {
        for kind in EngineKind::ALL {
            let engine = bound_engine(kind);
            let other: Arc<dyn Workload> = Arc::new(TpcB::with_accounts(2, 20));
            assert!(
                engine.bind(other, 2).is_err(),
                "{} allowed a second bind",
                kind.label()
            );
            engine.shutdown();
        }
    }

    /// A rejected second bind must not leave anything behind: no executor
    /// thread parked forever holding the engine, and so the database, alive.
    #[test]
    fn a_rejected_rebind_leaks_nothing() {
        for kind in EngineKind::ALL {
            for rebind in [false, true] {
                let engine = bound_engine(kind);
                let db = Arc::downgrade(engine.db());
                if rebind {
                    let other: Arc<dyn Workload> = Arc::new(TpcB::with_accounts(2, 20));
                    assert!(engine.bind(other, 2).is_err());
                }
                engine.shutdown();
                drop(engine);
                assert!(
                    db.upgrade().is_none(),
                    "{}: db leaked (rebind: {rebind})",
                    kind.label()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "no workload bound")]
    fn executing_unbound_engine_panics() {
        let db = Database::for_tests();
        let engine = build_engine(EngineKind::Baseline, db);
        let mut rng = SmallRng::seed_from_u64(1);
        engine.execute_one(&mut rng);
    }

    #[test]
    fn every_registered_engine_serves_snapshot_reads() {
        use dora_core::{OnMissing, TxnProgram};

        for kind in EngineKind::ALL {
            let engine = bound_engine(kind);
            let table = engine.db().table_id("account").unwrap();
            let snapshot = Arc::new(engine.snapshot());

            let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
            let sink = Arc::clone(&seen);
            let program = TxnProgram::new("snapshot-read").read(
                "read-account",
                table,
                Key::int(1),
                Key::int(1),
                OnMissing::Error,
                move |_, row| {
                    sink.lock().push(row[2].clone());
                    Ok(())
                },
            );
            let prepared = program.prepare();
            assert!(prepared.is_read_only());
            assert_eq!(
                engine.execute_on_snapshot(&prepared, &snapshot).unwrap(),
                TxnOutcome::Committed,
                "{}: snapshot execution",
                kind.label()
            );
            assert_eq!(seen.lock().len(), 1);

            // A program with a write step is rejected before it runs.
            let writer = TxnProgram::new("snapshot-write").update(
                "bump",
                table,
                Key::int(1),
                Key::int(1),
                OnMissing::Error,
                |_, _| Ok(()),
            );
            let prepared = writer.prepare();
            assert!(!prepared.is_read_only());
            assert!(
                engine.execute_on_snapshot(&prepared, &snapshot).is_err(),
                "{}: write program must be rejected",
                kind.label()
            );
            engine.shutdown();
        }
    }
}
