//! Checkpoints are background work: a committer that crosses the interval
//! wakes the `log-checkpointer` thread and goes on; the builder moves the
//! log's prefix below its floor out of the log, folds it into the previous
//! checkpoint in place, and holds the checkpoint mutex from the move until
//! the checkpoint is complete — so whatever a recovery reads under that
//! mutex has every record in exactly one of the two places.
//!
//! Every wait has a 20 s deadline, so a lost wake-up fails instead of hanging.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use dora_repro::common::config::{DurabilityConfig, SystemConfig};
use dora_repro::common::prelude::*;
use dora_repro::dora::DoraConfig;
use dora_repro::engine::{build_engine_with, ExecutionEngine};
use dora_repro::storage::{ColumnDef, Database, LogRecordKind, TableSchema, TxnHandle};
use dora_repro::workloads::{TpcB, Workload};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const DEADLINE: Duration = Duration::from_secs(20);
const BRANCHES: i64 = 4;
const ACCOUNTS: i64 = 50;
/// Log records between checkpoints: ~84 TPC-B transactions.
const INTERVAL: u64 = 500;
const TPCB_TABLES: [&str; 4] = ["branch", "teller", "account", "history_b"];

fn checkpointing() -> SystemConfig {
    SystemConfig {
        durability: DurabilityConfig {
            checkpoint_interval: INTERVAL,
            ..DurabilityConfig::default()
        },
        ..SystemConfig::for_tests()
    }
}

fn loaded_tpcb(config: SystemConfig) -> (Arc<Database>, Arc<dyn Workload>) {
    let db = Database::new(config);
    let workload: Arc<dyn Workload> = Arc::new(TpcB::with_accounts(BRANCHES, ACCOUNTS));
    workload.setup(&db).unwrap();
    (db, workload)
}

fn tpcb_engine(kind: EngineKind, config: SystemConfig) -> Arc<dyn ExecutionEngine> {
    let (db, workload) = loaded_tpcb(config);
    let engine = build_engine_with(kind, db, DoraConfig::for_tests());
    engine.bind(workload, 2).unwrap();
    engine
}

/// Runs `f` on a thread of its own and returns its result, failing the test
/// if it has not finished by the deadline.
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

fn wait_until(what: &str, mut condition: impl FnMut() -> bool) {
    let start = Instant::now();
    while !condition() {
        assert!(start.elapsed() < DEADLINE, "{what}: never happened");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// `clients` threads each run transactions until `stop(own count)` says so;
/// returns how many committed.
fn run_clients(
    engine: &Arc<dyn ExecutionEngine>,
    clients: u64,
    stop: impl Fn(u64) -> bool + Send + Sync + 'static,
) -> u64 {
    let stop = Arc::new(stop);
    let workers: Vec<_> = (0..clients)
        .map(|client| {
            let engine = Arc::clone(engine);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(1_000 + client);
                let start = Instant::now();
                let (mut ran, mut committed) = (0, 0);
                while !stop(ran) {
                    assert!(start.elapsed() < DEADLINE, "client {client}: still running");
                    ran += 1;
                    if engine.execute_one(&mut rng) == TxnOutcome::Committed {
                        committed += 1;
                    }
                }
                committed
            })
        })
        .collect();
    workers
        .into_iter()
        .map(|worker| within_deadline("client", move || worker.join().unwrap()))
        .sum()
}

fn column_sum(db: &Database, table: &str, column: usize) -> f64 {
    let id = db.table_id(table).unwrap();
    let txn = db.begin();
    let mut total = 0.0;
    db.scan_table(&txn, id, CcMode::None, |_, row| {
        total += row[column].as_float().unwrap_or(0.0);
    })
    .unwrap();
    db.commit(&txn).unwrap();
    total
}

/// The TPC-B invariant: Σ branch = Σ teller = Σ account = Σ history amounts.
fn assert_money_conserved(db: &Database, context: &str) {
    let sums = [
        column_sum(db, "branch", 1),
        column_sum(db, "teller", 2),
        column_sum(db, "account", 2),
        column_sum(db, "history_b", 3),
    ];
    assert!(
        sums.iter().all(|sum| (sum - sums[0]).abs() < 1e-6),
        "{context}: branch / teller / account / history sums differ: {sums:?}"
    );
}

fn sorted_rows(db: &Database, table: &str) -> Vec<Vec<u8>> {
    let id = db.table_id(table).unwrap();
    let txn = db.begin();
    let mut rows = Vec::new();
    db.scan_table(&txn, id, CcMode::None, |_, row| {
        rows.push(Value::encode_row(row).to_vec());
    })
    .unwrap();
    db.commit(&txn).unwrap();
    rows.sort_unstable();
    rows
}

fn assert_same_rows(live: &Database, recovered: &Database, tables: &[&str], context: &str) {
    for table in tables {
        assert!(
            sorted_rows(live, table) == sorted_rows(recovered, table),
            "{context}: table {table} differs between the live and the recovered database"
        );
    }
}

/// Recovers `db` into a freshly loaded TPC-B replica (the loader logs nothing).
fn recovered_tpcb(db: &Database) -> Arc<Database> {
    let (fresh, _) = loaded_tpcb(SystemConfig::for_tests());
    db.recover_into(&fresh).unwrap();
    fresh
}

/// (a) Automatic checkpoints under load, on both engines: every build runs on
/// the `log-checkpointer` thread — never on a client or an executor — money is
/// conserved, and checkpoint + log recover the live database row by row.
#[test]
fn checkpoints_under_load_are_built_in_the_background_and_recover_the_live_state() {
    for kind in EngineKind::ALL {
        for clients in [1, 4, 16] {
            let context = format!("{} / {clients} clients", kind.label());
            let engine = tpcb_engine(kind, checkpointing());
            let per_client = 3_200 / clients;
            let committed = run_clients(&engine, clients, move |ran| ran == per_client);
            engine.shutdown();
            assert!(committed > 0, "{context}: nothing committed");

            let db = engine.db();
            let log = db.log_manager();
            // Waits for every build a crossing has requested.
            let checkpoint = log.checkpoint_snapshot().expect("a checkpoint exists");
            let stats = log.checkpoint_stats();
            assert!(
                stats.builds >= 10,
                "{context}: only {} builds",
                stats.builds
            );
            assert_eq!(
                stats.background_builds,
                stats.builds,
                "{context}: a build ran off the {} thread",
                dora_repro::storage::CHECKPOINTER_THREAD
            );
            assert!(log.reclaimed_records() > 0, "{context}: nothing reclaimed");
            assert_eq!(checkpoint.low_water().0, log.reclaimed_records());
            assert_money_conserved(db, &context);
            assert_eq!(
                db.row_count(db.table_id("history_b").unwrap()).unwrap() as u64,
                committed,
                "{context}: one history row per commit"
            );
            assert_same_rows(db, &recovered_tpcb(db), &TPCB_TABLES, &context);
        }
    }
}

/// (b) A recovery that runs *during* the load, beside the builder, reads a
/// transaction-consistent state every time: no record is ever in neither the
/// checkpoint nor the log.
#[test]
fn recovery_beside_a_running_build_never_misses_a_record() {
    for kind in EngineKind::ALL {
        let engine = tpcb_engine(kind, checkpointing());
        let done = Arc::new(AtomicBool::new(false));
        let recoverer = {
            let db = Arc::clone(engine.db());
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                // Stops the clients even when an assertion below fails.
                struct Finish(Arc<AtomicBool>);
                impl Drop for Finish {
                    fn drop(&mut self) {
                        self.0.store(true, Ordering::Release);
                    }
                }
                let _finish = Finish(done);
                let start = Instant::now();
                let mut recoveries = 0;
                while recoveries < 25 || db.log_manager().checkpoint_stats().builds < 10 {
                    assert!(start.elapsed() < DEADLINE, "recoverer: still running");
                    let (fresh, _) = loaded_tpcb(SystemConfig::for_tests());
                    db.recover_into(&fresh).unwrap();
                    assert_money_conserved(&fresh, &format!("recovery {recoveries}"));
                    recoveries += 1;
                }
            })
        };
        let stop = Arc::clone(&done);
        run_clients(&engine, 4, move |_| stop.load(Ordering::Acquire));
        within_deadline("recoverer", move || recoverer.join().unwrap());
        engine.shutdown();
        let db = engine.db();
        assert_money_conserved(db, kind.label());
        assert_same_rows(db, &recovered_tpcb(db), &TPCB_TABLES, kind.label());
    }
}

/// (c) Commits proceed during a build: with the builder parked right after
/// its cut (a hold on `FaultSite::CheckpointStall`), 200 transactions commit
/// durably, and the builder never held the log's `records` mutex for 5 ms.
#[test]
fn commits_proceed_while_the_builder_is_parked_after_its_cut() {
    let engine = tpcb_engine(EngineKind::Dora, checkpointing());
    let db = Arc::clone(engine.db());
    let log = db.log_manager();
    let hold = db.faults().hold(FaultSite::CheckpointStall);
    let mut rng = SmallRng::seed_from_u64(7);
    // Cross the interval; the first build cuts, then parks.
    wait_until("the first cut", || {
        assert_eq!(engine.execute_one(&mut rng), TxnOutcome::Committed);
        log.reclaimed_records() > 0
    });
    for _ in 0..200 {
        assert_eq!(engine.execute_one(&mut rng), TxnOutcome::Committed);
    }
    assert_eq!(log.checkpoint_stats().builds, 0, "the builder is parked");
    assert_eq!(
        log.flushed_lsn().0,
        log.len() as u64,
        "every commit hardened"
    );
    drop(hold);
    let checkpoint = within_deadline("the parked build", {
        let db = Arc::clone(&db);
        move || db.log_manager().checkpoint_snapshot()
    });
    assert!(checkpoint.is_some());
    engine.shutdown();
    let stats = log.checkpoint_stats();
    assert!(stats.builds >= 1);
    assert!(
        stats.max_lock_hold < Duration::from_millis(5),
        "the builder held a records mutex for {:?}",
        stats.max_lock_hold
    );
    assert_same_rows(&db, &recovered_tpcb(&db), &TPCB_TABLES, "after the stall");
}

fn counters_db(config: SystemConfig, rows: i64) -> (Arc<Database>, TableId) {
    let db = Database::new(config);
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
    for id in 1..=rows {
        db.load_row(table, vec![Value::Int(id), Value::Int(0)])
            .unwrap();
    }
    (db, table)
}

fn bump(db: &Database, txn: &TxnHandle, table: TableId, id: i64) {
    db.update_primary(txn, table, &Key::int(id), CcMode::Full, |row| {
        row[1] = Value::Int(row[1].as_int()? + 1);
        Ok(())
    })
    .unwrap();
}

fn recovered_counters(db: &Database, rows: i64) -> Arc<Database> {
    let (fresh, _) = counters_db(SystemConfig::for_tests(), rows);
    db.recover_into(&fresh).unwrap();
    fresh
}

/// (d) The cut stops below the first record of a live transaction: one that
/// is live across the cut can still roll back, one that commits after it is
/// recovered from the tail, and a finished one whose records straddle the cut
/// rides `pending` until its fence is folded.
#[test]
fn transactions_live_across_the_cut_roll_back_or_commit_later() {
    let (db, table) = counters_db(SystemConfig::for_tests(), 5);
    let log = db.log_manager();

    let settled = db.begin();
    bump(&db, &settled, table, 1);
    db.commit(&settled).unwrap();
    let straddler = db.begin();
    bump(&db, &straddler, table, 2);
    let loser = db.begin();
    bump(&db, &loser, table, 3);
    let late = db.begin();
    bump(&db, &late, table, 4);
    bump(&db, &straddler, table, 5);
    db.commit(&straddler).unwrap();

    let appended = log.len() as u64;
    log.take_checkpoint();
    let checkpoint = log.checkpoint_snapshot().unwrap();
    let cut = checkpoint.low_water().0;
    assert!(
        cut < appended && log.reclaimed_records() == cut,
        "the cut ({cut} of {appended}) is the reclaim floor"
    );
    assert_eq!(checkpoint.seq_horizon(), 1, "only `settled` is folded");
    assert!(
        checkpoint
            .pending()
            .iter()
            .any(|record| record.txn == straddler.id()
                && matches!(record.kind, LogRecordKind::Update { .. })),
        "the straddler's first update is below the cut, its fence above: carried"
    );
    assert!(checkpoint
        .pending()
        .iter()
        .all(|record| record.txn != loser.id() && record.txn != late.id()));

    // The loser's records were not moved: its undo chain is intact.
    db.abort(&loser).unwrap();
    db.commit(&late).unwrap();
    assert_same_rows(
        &db,
        &recovered_counters(&db, 5),
        &["counters"],
        "after the cut",
    );

    log.take_checkpoint();
    let checkpoint = log.checkpoint_snapshot().unwrap();
    assert_eq!(checkpoint.seq_horizon(), 3);
    assert!(checkpoint.pending().is_empty() && log.retained_records() == 0);
    assert_eq!(
        checkpoint.row_count(),
        4,
        "rows 1, 2, 4, 5; the loser's is gone"
    );
    assert_same_rows(
        &db,
        &recovered_counters(&db, 5),
        &["counters"],
        "all folded",
    );
}

/// (e) `take_checkpoint()` is the same body on the caller's thread: racing
/// the background builder it serialises on the checkpoint mutex, and every
/// record still ends up in exactly one place.
#[test]
fn take_checkpoint_serialises_with_the_background_build() {
    let engine = tpcb_engine(EngineKind::Dora, checkpointing());
    let done = Arc::new(AtomicBool::new(false));
    let manual = {
        let db = Arc::clone(engine.db());
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            // A manual checkpoint restarts the interval, so leave room for
            // a crossing between two of them.
            let log = db.log_manager();
            let mut taken = 0u64;
            while !done.load(Ordering::Acquire) {
                let next = log.len() as u64 + 2 * INTERVAL;
                while (log.len() as u64) < next && !done.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                log.take_checkpoint();
                taken += 1;
            }
            taken
        })
    };
    run_clients(&engine, 4, |ran| ran == 600);
    done.store(true, Ordering::Release);
    let taken = within_deadline("manual checkpoints", move || manual.join().unwrap());
    engine.shutdown();
    let db = engine.db();
    let log = db.log_manager();
    log.checkpoint_snapshot();
    let stats = log.checkpoint_stats();
    assert!(taken > 0 && stats.background_builds > 0);
    assert_eq!(stats.builds, stats.background_builds + taken);
    assert_money_conserved(db, "racing builds");
    assert_same_rows(db, &recovered_tpcb(db), &TPCB_TABLES, "racing builds");
}

/// (f) Dropping the database while the builder is parked mid-build joins the
/// thread: the drop does not return while the build cannot finish, and does
/// once it can.
#[test]
fn dropping_the_database_mid_build_joins_the_builder() {
    let engine = tpcb_engine(EngineKind::Baseline, checkpointing());
    let hold = engine.db().faults().hold(FaultSite::CheckpointStall);
    let mut rng = SmallRng::seed_from_u64(11);
    wait_until("the first cut", || {
        assert_eq!(engine.execute_one(&mut rng), TxnOutcome::Committed);
        engine.db().log_manager().reclaimed_records() > 0
    });
    engine.shutdown();
    let (dropped_tx, dropped_rx) = mpsc::channel();
    let dropper = std::thread::spawn(move || {
        drop(engine);
        dropped_tx.send(()).unwrap();
    });
    assert!(
        dropped_rx.recv_timeout(Duration::from_millis(100)).is_err(),
        "the database was dropped without its parked builder"
    );
    drop(hold);
    dropped_rx
        .recv_timeout(DEADLINE)
        .expect("the drop returns once the build can finish");
    dropper.join().unwrap();
}
