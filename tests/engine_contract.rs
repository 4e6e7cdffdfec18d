//! The client contract of the `ExecutionEngine` seam, checked row by row on
//! every registered engine: `execute_prepared_checked` answers the same
//! outcome for the same failure on Baseline and DORA. Deadlock victims are
//! retried inside the call, a workload abort is `Ok(Aborted)`, retry
//! exhaustion is `Ok(GaveUp)`, and a lost commit is an `Err` that is never
//! re-run.
//!
//! Every wait has a 20 s deadline, so a lost wake-up fails the test instead
//! of hanging it.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

use dora_repro::common::config::SystemConfig;
use dora_repro::common::fault::FaultConfig;
use dora_repro::common::prelude::*;
use dora_repro::dora::{DoraConfig, LocalMode, PreparedProgram, StepCtx, TxnProgram};
use dora_repro::engine::{build_engine_with, ExecutionEngine};
use dora_repro::metrics::{current_thread_snapshot, global, CounterKind};
use dora_repro::storage::Database;
use dora_repro::workloads::{TpcB, Workload};

const DEADLINE: Duration = Duration::from_secs(20);
const BRANCHES: i64 = 2;
const ACCOUNTS: i64 = 20;

/// Runs `f` on its own thread; fails the test if it has not returned within
/// [`DEADLINE`].
fn within_deadline<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    let result = rx
        .recv_timeout(DEADLINE)
        .unwrap_or_else(|_| panic!("{what}: not finished within {DEADLINE:?}"));
    worker.join().unwrap();
    result
}

/// A TPC-B database under `config`, bound to a `kind` engine.
fn engine(kind: EngineKind, config: SystemConfig) -> Arc<dyn ExecutionEngine> {
    let db = Database::new(config);
    let workload: Arc<dyn Workload> = Arc::new(TpcB::with_accounts(BRANCHES, ACCOUNTS));
    workload.setup(&db).unwrap();
    let engine = build_engine_with(kind, db, DoraConfig::for_tests());
    engine.bind(workload, 2).unwrap();
    engine
}

/// A one-step program whose step, routed to branch 1, counts its runs and
/// then returns whatever `body` says for that run (1-based).
fn counted(
    engine: &dyn ExecutionEngine,
    runs: &Arc<AtomicUsize>,
    body: impl Fn(&StepCtx<'_>, usize) -> DbResult<()> + Send + Sync + 'static,
) -> PreparedProgram {
    let branch = engine.db().table_id("branch").unwrap();
    let runs = Arc::clone(runs);
    let program = TxnProgram::new("contract").custom(
        "counted",
        branch,
        Key::int(1),
        LocalMode::Exclusive,
        move |ctx| body(ctx, runs.fetch_add(1, Ordering::SeqCst) + 1),
    );
    engine.prepare(program).unwrap()
}

/// Executes `prepared` on its own thread under the deadline, returning the
/// result and how much `TxnGaveUp` rose on the executing thread.
fn execute(
    engine: &Arc<dyn ExecutionEngine>,
    prepared: PreparedProgram,
    what: &str,
) -> (DbResult<TxnOutcome>, u64) {
    let engine = Arc::clone(engine);
    within_deadline(what, move || {
        let before = current_thread_snapshot().counter(CounterKind::TxnGaveUp);
        let result = engine.execute_prepared_checked(&prepared);
        let after = current_thread_snapshot().counter(CounterKind::TxnGaveUp);
        (result, after - before)
    })
}

fn deadlock(ctx: &StepCtx<'_>) -> DbError {
    DbError::Deadlock {
        victim: ctx.txn.id(),
    }
}

#[test]
fn a_commit_is_committed() {
    for kind in EngineKind::ALL {
        let engine = engine(kind, SystemConfig::for_tests());
        let program = TpcB::with_accounts(BRANCHES, ACCOUNTS)
            .account_update_program(engine.db(), 1, 1, 1, 10.0)
            .unwrap();
        let prepared = engine.prepare(program).unwrap();
        let (result, _) = execute(&engine, prepared, kind.label());
        assert_eq!(result.unwrap(), TxnOutcome::Committed, "{}", kind.label());
        engine.shutdown();
    }
}

#[test]
fn a_workload_abort_is_aborted_and_not_retried() {
    for kind in EngineKind::ALL {
        let engine = engine(kind, SystemConfig::for_tests());
        let runs = Arc::new(AtomicUsize::new(0));
        let prepared = counted(&*engine, &runs, |ctx, _| Err(ctx.abort("invalid input")));
        let (result, _) = execute(&engine, prepared, kind.label());
        assert_eq!(result.unwrap(), TxnOutcome::Aborted, "{}", kind.label());
        assert_eq!(runs.load(Ordering::SeqCst), 1, "{}", kind.label());
        engine.shutdown();
    }
}

#[test]
fn a_deadlock_victim_is_retried_inside_the_call() {
    for kind in EngineKind::ALL {
        let engine = engine(kind, SystemConfig::for_tests());
        let runs = Arc::new(AtomicUsize::new(0));
        let prepared = counted(&*engine, &runs, |ctx, run| {
            if run <= 2 {
                Err(deadlock(ctx))
            } else {
                Ok(())
            }
        });
        let (result, gave_up) = execute(&engine, prepared, kind.label());
        assert_eq!(result.unwrap(), TxnOutcome::Committed, "{}", kind.label());
        assert_eq!(runs.load(Ordering::SeqCst), 3, "{}", kind.label());
        assert_eq!(gave_up, 0, "{}", kind.label());
        engine.shutdown();
    }
}

#[test]
fn retry_exhaustion_gives_up_after_max_retries_plus_one_attempts() {
    for kind in EngineKind::ALL {
        let engine = engine(kind, SystemConfig::for_tests());
        let max_retries = engine.db().config().max_retries;
        let runs = Arc::new(AtomicUsize::new(0));
        let prepared = counted(&*engine, &runs, |ctx, _| Err(deadlock(ctx)));
        let (result, gave_up) = execute(&engine, prepared, kind.label());
        assert_eq!(result.unwrap(), TxnOutcome::GaveUp, "{}", kind.label());
        assert_eq!(
            runs.load(Ordering::SeqCst),
            max_retries + 1,
            "{}",
            kind.label()
        );
        assert_eq!(
            gave_up,
            1,
            "{}: TxnGaveUp counts the give-up once",
            kind.label()
        );
        engine.shutdown();
    }
}

/// Two clients lock accounts X then Y and Y then X with `CcMode::Full` row
/// locks. On the first attempt a barrier holds each after its first lock, so
/// the lock manager must pick a victim; the victim's retry commits, and so
/// does the other client.
#[test]
fn both_sides_of_a_real_deadlock_commit() {
    const X: i64 = 1;
    const Y: i64 = 2;
    for kind in EngineKind::ALL {
        let engine = engine(kind, SystemConfig::for_tests());
        let account = engine.db().table_id("account").unwrap();
        let barrier = Arc::new(Barrier::new(2));
        let victims_before = global().snapshot().counter(CounterKind::DeadlockVictim);

        let client = |first: i64, second: i64| {
            let barrier = Arc::clone(&barrier);
            let first_attempt = AtomicBool::new(true);
            let bump = move |ctx: &StepCtx<'_>, id: i64| {
                ctx.db
                    .update_primary(ctx.txn, account, &Key::int(id), CcMode::Full, |row| {
                        row[2] = Value::Float(row[2].as_float()? + 1.0);
                        Ok(())
                    })
            };
            // A secondary step runs on the submitting thread under DORA, so
            // both engines take the same centralized row locks.
            let program = TxnProgram::new("cross").secondary("cross", account, move |ctx| {
                bump(ctx, first)?;
                if first_attempt.swap(false, Ordering::SeqCst) {
                    barrier.wait();
                }
                bump(ctx, second)
            });
            let prepared = engine.prepare(program).unwrap();
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || engine.execute_prepared_checked(&prepared))
        };
        let clients = [client(X, Y), client(Y, X)];
        for (side, handle) in clients.into_iter().enumerate() {
            let result = within_deadline("deadlocked client", move || handle.join().unwrap());
            assert_eq!(
                result.unwrap(),
                TxnOutcome::Committed,
                "{}: side {side}",
                kind.label()
            );
        }
        let victims = global().snapshot().counter(CounterKind::DeadlockVictim) - victims_before;
        assert!(
            victims >= 1,
            "{}: no deadlock victim was chosen",
            kind.label()
        );

        let check = engine.db().begin();
        for id in [X, Y] {
            let (_, row) = engine
                .db()
                .probe_primary(&check, account, &Key::int(id), false, CcMode::Full)
                .unwrap()
                .unwrap();
            assert_eq!(
                row[2].as_float().unwrap(),
                2.0,
                "{}: account {id} bumped once per client",
                kind.label()
            );
        }
        engine.db().commit(&check).unwrap();
        engine.shutdown();
    }
}

/// Every device write fails and none is retried, so the log is dead
/// at the first commit: the error surfaces, and the transaction body ran
/// exactly once (a commit whose durability is unknown must never be re-run).
#[test]
fn a_dead_log_stream_is_an_error_and_is_never_retried() {
    for kind in EngineKind::ALL {
        let config = SystemConfig {
            log_flush_micros: 100,
            faults: FaultConfig {
                device_error_rate: 1.0,
                max_write_retries: 0,
                ..FaultConfig::default()
            },
            ..SystemConfig::for_tests()
        };
        let engine = engine(kind, config);
        let runs = Arc::new(AtomicUsize::new(0));
        let count = Arc::clone(&runs);
        let branch = engine.db().table_id("branch").unwrap();
        let program = TpcB::with_accounts(BRANCHES, ACCOUNTS)
            .account_update_program(engine.db(), 1, 1, 1, 10.0)
            .unwrap()
            .custom("count", branch, Key::int(1), LocalMode::Shared, move |_| {
                count.fetch_add(1, Ordering::SeqCst);
                Ok(())
            });
        let prepared = engine.prepare(program).unwrap();
        let (result, _) = execute(&engine, prepared, kind.label());
        assert!(
            matches!(result, Err(DbError::DurabilityLost)),
            "{}: got {result:?}",
            kind.label()
        );
        assert_eq!(runs.load(Ordering::SeqCst), 1, "{}", kind.label());
        assert!(engine.db().log_manager().failed());
        engine.shutdown();
    }
}
