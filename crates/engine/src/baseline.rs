//! The baseline engine: conventional thread-to-transaction execution.
//!
//! Each client (worker) thread executes whole transactions against the
//! storage manager with full centralized concurrency control — the
//! uncoordinated access pattern whose lock-manager contention Section 3 of
//! the paper dissects. Deadlock victims are retried by
//! [`dora_core::retry_deadlocks`], the policy DORA's adapter runs too.

use std::sync::{Arc, OnceLock};

use dora_common::prelude::*;
use dora_core::retry_deadlocks;
use dora_metrics::{incr, CounterKind};
use dora_storage::{Database, TxnHandle};
use dora_workloads::Workload;

/// The conventional execution engine.
///
/// It holds nothing but the database handle: in the thread-to-transaction
/// model there is no routing, no executors and no per-thread data — any
/// thread may touch any record, which is precisely why every access must go
/// through the centralized lock manager.
#[derive(Clone)]
pub struct BaselineEngine {
    db: Arc<Database>,
    /// Workload bound through [`crate::exec::ExecutionEngine::bind`]; in an
    /// `Arc` so clones share the binding, in a `OnceLock` so the per-txn
    /// read path stays lock-free.
    pub(crate) bound: Arc<OnceLock<Arc<dyn Workload>>>,
}

impl std::fmt::Debug for BaselineEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BaselineEngine")
            .field("bound", &self.bound.get().map(|w| w.name()))
            .finish_non_exhaustive()
    }
}

impl BaselineEngine {
    /// Creates a baseline engine over `db`.
    pub fn new(db: Arc<Database>) -> Self {
        Self {
            db,
            bound: Arc::new(OnceLock::new()),
        }
    }

    /// The underlying storage manager.
    pub(crate) fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// Executes `body` as one transaction with full concurrency control,
    /// retrying deadlock victims up to `SystemConfig::max_retries` times.
    ///
    /// The commit rides the same durability path as DORA's: under group
    /// commit the worker thread *parks* on the log's LSN-keyed ticket queue
    /// until the flusher daemon hardens the group carrying its commit
    /// record (with ELR, its locks are already released by then) — so the
    /// Figure-style engine comparisons stay apples-to-apples across commit
    /// modes.
    ///
    /// The outcome follows [`retry_deadlocks`]: `Committed`, `Aborted` for a
    /// workload abort, `GaveUp` when every attempt was a deadlock victim, and
    /// `Err` for any other failure.
    pub fn execute<F>(&self, body: F) -> DbResult<TxnOutcome>
    where
        F: Fn(&Database, &TxnHandle) -> DbResult<()>,
    {
        retry_deadlocks(self.db.config().max_retries, || {
            let txn = self.db.begin();
            // Worker supervision, symmetric to the DORA executors': a panic
            // in the transaction body — injected by the chaos plan or a
            // genuine bug — aborts this transaction instead of killing the
            // worker thread.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let faults = self.db.faults();
                if faults.enabled() && faults.should_inject(FaultSite::ExecutorPanic) {
                    incr(CounterKind::FaultsInjected);
                    std::panic::panic_any(InjectedPanic);
                }
                body(&self.db, &txn)
            }))
            .unwrap_or_else(|_payload| {
                incr(CounterKind::ExecutorPanicsRecovered);
                Err(DbError::TxnAborted {
                    txn: txn.id(),
                    reason: "transaction body panicked; quarantined by worker supervision".into(),
                })
            });
            match result {
                Ok(()) => self.db.commit(&txn),
                Err(err) => {
                    self.db.abort(&txn)?;
                    Err(err)
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dora_storage::{ColumnDef, TableSchema};

    fn db_with_counter() -> (Arc<Database>, TableId) {
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
        db.load_row(table, vec![Value::Int(1), Value::Int(0)])
            .unwrap();
        db.load_row(table, vec![Value::Int(2), Value::Int(0)])
            .unwrap();
        (db, table)
    }

    #[test]
    fn committed_transaction_applies_changes() {
        let (db, table) = db_with_counter();
        let engine = BaselineEngine::new(Arc::clone(&db));
        let outcome = engine
            .execute(|db, txn| {
                db.update_primary(txn, table, &Key::int(1), CcMode::Full, |row| {
                    row[1] = Value::Int(5);
                    Ok(())
                })
            })
            .unwrap();
        assert_eq!(outcome, TxnOutcome::Committed);
        let check = db.begin();
        let (_, row) = db
            .probe_primary(&check, table, &Key::int(1), false, CcMode::Full)
            .unwrap()
            .unwrap();
        assert_eq!(row[1], Value::Int(5));
        db.commit(&check).unwrap();
    }

    #[test]
    fn workload_abort_rolls_back_without_retry() {
        let (db, table) = db_with_counter();
        let engine = BaselineEngine::new(Arc::clone(&db));
        let outcome = engine
            .execute(|db, txn| {
                db.update_primary(txn, table, &Key::int(1), CcMode::Full, |row| {
                    row[1] = Value::Int(77);
                    Ok(())
                })?;
                Err(DbError::TxnAborted {
                    txn: txn.id(),
                    reason: "invalid input".into(),
                })
            })
            .unwrap();
        assert_eq!(outcome, TxnOutcome::Aborted);
        let check = db.begin();
        let (_, row) = db
            .probe_primary(&check, table, &Key::int(1), false, CcMode::Full)
            .unwrap()
            .unwrap();
        assert_eq!(row[1], Value::Int(0), "aborted change must not be visible");
        db.commit(&check).unwrap();
    }

    #[test]
    fn concurrent_increments_are_serialized_by_locks() {
        let (db, table) = db_with_counter();
        let engine = BaselineEngine::new(Arc::clone(&db));
        let threads = 4i64;
        let per_thread = 50i64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let engine = engine.clone();
                std::thread::spawn(move || {
                    for _ in 0..per_thread {
                        let outcome = engine
                            .execute(|db, txn| {
                                db.update_primary(txn, table, &Key::int(2), CcMode::Full, |row| {
                                    let n = row[1].as_int()?;
                                    row[1] = Value::Int(n + 1);
                                    Ok(())
                                })
                            })
                            .unwrap();
                        assert_eq!(outcome, TxnOutcome::Committed);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let check = db.begin();
        let (_, row) = db
            .probe_primary(&check, table, &Key::int(2), false, CcMode::Full)
            .unwrap()
            .unwrap();
        assert_eq!(row[1], Value::Int(threads * per_thread));
        db.commit(&check).unwrap();
    }

    #[test]
    fn panicking_body_is_quarantined_and_the_worker_survives() {
        silence_injected_panics();
        let (db, table) = db_with_counter();
        let engine = BaselineEngine::new(Arc::clone(&db));
        let outcome = engine
            .execute(|db, txn| {
                db.update_primary(txn, table, &Key::int(1), CcMode::Full, |row| {
                    row[1] = Value::Int(42);
                    Ok(())
                })?;
                std::panic::panic_any(InjectedPanic)
            })
            .unwrap();
        assert_eq!(outcome, TxnOutcome::Aborted);
        // The partial update rolled back and the same engine keeps serving.
        let check = engine
            .execute(|db, txn| {
                let (_, row) = db
                    .probe_primary(txn, table, &Key::int(1), false, CcMode::Full)?
                    .expect("row 1 exists");
                assert_eq!(row[1], Value::Int(0), "panicked change must roll back");
                Ok(())
            })
            .unwrap();
        assert_eq!(check, TxnOutcome::Committed);
    }

    #[test]
    fn unexpected_errors_are_propagated() {
        let (db, _table) = db_with_counter();
        let engine = BaselineEngine::new(db);
        let result = engine.execute(|_, _| Err(DbError::Corruption("boom".into())));
        assert!(matches!(result, Err(DbError::Corruption(_))));
    }
}
