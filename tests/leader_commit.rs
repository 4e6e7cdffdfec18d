//! Leader/follower group commit: the flusher is a role, held by whichever
//! thread took the log's flush claim. A committer that blocks for
//! durability performs the device write itself when the claim is free and
//! follows the holder when it is not; the `log-flusher` daemon exists only
//! for commits nobody blocks on. Whoever writes, every commit hardens exactly
//! once, a failed write reaches everybody waiting on it, and no device write
//! runs under an executor claim.
//!
//! Every wait has a 20 s deadline, so a lost wake-up fails instead of hanging.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dora_repro::common::config::{DurabilityConfig, SystemConfig};
use dora_repro::common::prelude::*;
use dora_repro::dora::{ActionSpec, DoraConfig, DoraEngine, DoraTxn, FlowGraph, LocalMode};
use dora_repro::engine::BaselineEngine;
use dora_repro::metrics::{current_thread_snapshot, CounterKind, Snapshot};
use dora_repro::storage::{ColumnDef, Database, TableSchema};

const DEADLINE: Duration = Duration::from_secs(20);

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

fn config(log_flush_micros: u64, durability: DurabilityConfig) -> SystemConfig {
    SystemConfig {
        log_flush_micros,
        durability,
        ..SystemConfig::for_tests()
    }
}

fn bump(db: &Database, txn: &dora_repro::storage::TxnHandle, table: TableId, id: i64, cc: CcMode) {
    db.update_primary(txn, table, &Key::int(id), cc, |row| {
        row[1] = Value::Int(row[1].as_int()? + 1);
        Ok(())
    })
    .unwrap();
}

/// One conventional transaction bumping counter `id`, committed synchronously.
fn commit_bump(db: &Database, table: TableId, id: i64) -> DbResult<()> {
    let txn = db.begin();
    bump(db, &txn, table, id, CcMode::Full);
    db.commit(&txn)
}

/// A single-action DORA transaction bumping counter `id` after `before`.
fn bump_graph(table: TableId, id: i64, before: impl FnOnce() + Send + 'static) -> FlowGraph {
    let mut graph = FlowGraph::new();
    graph.push(ActionSpec::new(
        "bump",
        table,
        Key::int(id),
        LocalMode::Exclusive,
        move |ctx| {
            before();
            ctx.db
                .update_primary(ctx.txn, table, &Key::int(id), CcMode::None, |row| {
                    row[1] = Value::Int(row[1].as_int()? + 1);
                    Ok(())
                })
        },
    ));
    graph
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

/// Polls `condition` until it holds, failing the test at the deadline.
fn wait_until(what: &str, condition: impl Fn() -> bool) {
    let start = Instant::now();
    while !condition() {
        assert!(start.elapsed() < DEADLINE, "{what}: never happened");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn wait_within_deadline(txn: &DoraTxn, what: &str) -> DbResult<()> {
    let start = Instant::now();
    while !txn.is_done() {
        assert!(start.elapsed() < DEADLINE, "{what}: never finished");
        std::thread::sleep(Duration::from_millis(1));
    }
    txn.wait()
}

/// Device writes the calling thread performed / performed under a committer's
/// claim, since `mark`. Counters are per thread, so concurrently running
/// tests do not disturb these.
fn own_flushes_since(mark: &Snapshot) -> (u64, u64) {
    let delta = current_thread_snapshot().since(mark);
    (
        delta.counter(CounterKind::LogFlushes),
        delta.counter(CounterKind::LeaderFlushes),
    )
}

fn daemon_spawned(db: &Database) -> bool {
    db.log_manager().flusher_spawned()
}

fn assert_everything_is_durable(db: &Database) {
    let log = db.log_manager();
    assert_eq!(
        log.flushed_lsn().0,
        log.len() as u64,
        "the last commit record hardened"
    );
}

/// A lone blocking committer — on either engine — finds the claim free every
/// time: it performs every device write itself (`led_share` = 1), nobody is
/// woken, and no `log-flusher` thread is ever spawned.
#[test]
fn a_lone_blocking_committer_leads_every_write_and_no_daemon_exists() {
    let commits = 25u64;
    for engine_kind in EngineKind::ALL {
        let (flushes, led, daemons) = within_deadline("lone committer", move || {
            let (db, table) = counters_db(config(20, DurabilityConfig::default()), 4);
            let mark = current_thread_snapshot();
            match engine_kind {
                EngineKind::Baseline => {
                    let engine = BaselineEngine::new(Arc::clone(&db));
                    for _ in 0..commits {
                        engine
                            .execute(|db, txn| {
                                bump(db, txn, table, 1, CcMode::Full);
                                Ok(())
                            })
                            .unwrap();
                    }
                }
                EngineKind::Dora => {
                    let engine = DoraEngine::new(Arc::clone(&db), DoraConfig::default());
                    engine.bind_table(table, 2, 1, 4).unwrap();
                    for _ in 0..commits {
                        engine.execute(bump_graph(table, 1, || {})).unwrap();
                    }
                    engine.shutdown();
                }
            }
            let (flushes, led) = own_flushes_since(&mark);
            assert_everything_is_durable(&db);
            assert_eq!(db.log_manager().flush_group_sizes().total(), commits);
            (flushes, led, daemon_spawned(&db))
        });
        assert_eq!(
            flushes,
            commits,
            "{}: the committer's own thread performed every write",
            engine_kind.label()
        );
        assert_eq!(led, flushes, "{}: led_share = 1", engine_kind.label());
        assert!(!daemons, "{}: nobody queued", engine_kind.label());
    }
}

/// N committers on one log: whoever finds the claim free writes for
/// everybody whose commit record is in the log by then. Every commit hardens and is
/// counted in exactly one group, there are never more writes than commits,
/// every write was led by a committer, and the log replays to every commit.
#[test]
fn concurrent_committers_harden_every_commit_exactly_once() {
    for committers in [2u64, 8, 32] {
        let per_committer = 12u64;
        let commits = committers * per_committer;
        let (db, table) = counters_db(config(50, DurabilityConfig::default()), committers as i64);
        let workers: Vec<_> = (0..committers)
            .map(|c| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    let mark = current_thread_snapshot();
                    for _ in 0..per_committer {
                        commit_bump(&db, table, 1 + c as i64).unwrap();
                    }
                    own_flushes_since(&mark)
                })
            })
            .collect();
        let (mut flushes, mut led) = (0, 0);
        let start = Instant::now();
        for worker in workers {
            while !worker.is_finished() {
                assert!(
                    start.elapsed() < DEADLINE,
                    "{committers} committers: a commit never hardened"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            let (own_flushes, own_led) = worker.join().unwrap();
            flushes += own_flushes;
            led += own_led;
        }

        let sizes = db.log_manager().flush_group_sizes();
        assert_eq!(
            sizes.total(),
            commits,
            "{committers} committers: Σ group sizes = commits"
        );
        assert_eq!(sizes.count(), flushes, "every write recorded one group");
        assert!(
            flushes <= commits,
            "{committers} committers: {flushes} writes for {commits} commits"
        );
        assert_eq!(led, flushes, "blocking committers led every write");
        assert!(!daemon_spawned(&db));
        assert_everything_is_durable(&db);
        assert_eq!(
            db.log_manager().redo(None).unwrap().records.len() as u64,
            commits,
            "the hardened log replays to every commit"
        );
    }
}

/// A follower whose commit record the leader's horizon covers performs no
/// write. The leader is held under the claim before its write until the
/// second committer's commit record is in the log, so the one write covers
/// both — whichever of the two took the claim.
#[test]
fn a_follower_the_leaders_horizon_covers_performs_no_write() {
    let (db, table) = counters_db(config(100, DurabilityConfig::default()), 2);
    let hold = db.faults().hold(FaultSite::FlusherStall);
    let workers: Vec<_> = [1i64, 2]
        .into_iter()
        .map(|id| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let mark = current_thread_snapshot();
                commit_bump(&db, table, id).unwrap();
                own_flushes_since(&mark).0
            })
        })
        .collect();
    // Begin, update and commit record per committer.
    wait_until("both commits logged and the leader held", || {
        db.log_manager().len() == 6 && db.faults().parked(FaultSite::FlusherStall) == 1
    });
    drop(hold);
    let flushes: Vec<u64> = workers
        .into_iter()
        .map(|worker| within_deadline("grouped commit", move || worker.join().unwrap()))
        .collect();
    let mut sorted = flushes.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, vec![0, 1], "one leader, one follower: {flushes:?}");
    let sizes = db.log_manager().flush_group_sizes();
    assert_eq!((sizes.count(), sizes.total()), (1, 2), "one group of two");
    assert_everything_is_durable(&db);
}

/// A blocking DORA client hardens its commit after dispatch has unwound every
/// executor claim, and early lock release frees the local lock at precommit:
/// a second client's action on the same key, served by the same executor,
/// runs while the first client is still inside its 20 ms device write.
#[test]
fn a_second_client_executes_while_the_first_is_inside_its_device_write() {
    let (db, table) = counters_db(config(20_000, DurabilityConfig::default()), 2);
    let engine = Arc::new(DoraEngine::new(Arc::clone(&db), DoraConfig::default()));
    engine.bind_table(table, 1, 1, 2).unwrap();

    let (first_ran_tx, first_ran_rx) = mpsc::channel();
    let first = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            let before = move || first_ran_tx.send(Instant::now()).unwrap();
            engine.execute(bump_graph(table, 1, before)).unwrap();
            Instant::now()
        })
    };
    let first_ran = first_ran_rx
        .recv_timeout(DEADLINE)
        .expect("first action runs");

    let (second_ran_tx, second_ran_rx) = mpsc::channel();
    let second = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            let before = move || second_ran_tx.send(Instant::now()).unwrap();
            engine.execute(bump_graph(table, 1, before)).unwrap();
        })
    };
    let second_ran = second_ran_rx
        .recv_timeout(DEADLINE)
        .expect("second action runs");
    let first_durable = within_deadline("first commit", move || first.join().unwrap());
    within_deadline("second commit", move || second.join().unwrap());

    assert!(
        first_durable.duration_since(first_ran) >= Duration::from_millis(20),
        "the first client paid its device write"
    );
    assert!(
        second_ran < first_durable,
        "the second action ran {:?} after the first, whose commit took {:?} to harden: \
         a claim or a local lock was held across the device write",
        second_ran.duration_since(first_ran),
        first_durable.duration_since(first_ran),
    );
    assert!(!daemon_spawned(&db), "both clients drove the log");
    assert_everything_is_durable(&db);
    engine.shutdown();
}

/// With early lock release off, a blocking DORA client keeps its local locks
/// until its commit is durable and then releases them itself: a second
/// transaction on the same key runs only after the first one's 30 ms device
/// write, the `Completed` message is sent from the client's thread, and no
/// flusher thread exists that could have sent it.
#[test]
fn without_elr_the_client_releases_local_locks_after_its_own_write() {
    let (db, table) = counters_db(config(30_000, DurabilityConfig::group_commit_only()), 2);
    let engine = Arc::new(DoraEngine::new(Arc::clone(&db), DoraConfig::default()));
    engine.bind_table(table, 1, 1, 2).unwrap();

    let (first_ran_tx, first_ran_rx) = mpsc::channel();
    let first = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            let mark = current_thread_snapshot();
            let before = move || first_ran_tx.send(Instant::now()).unwrap();
            engine.execute(bump_graph(table, 1, before)).unwrap();
            current_thread_snapshot()
                .since(&mark)
                .counter(CounterKind::DoraMessages)
        })
    };
    let first_ran = first_ran_rx
        .recv_timeout(DEADLINE)
        .expect("first action runs");

    let (second_ran_tx, second_ran_rx) = mpsc::channel();
    let second = engine
        .submit(bump_graph(table, 1, move || {
            second_ran_tx.send(Instant::now()).unwrap()
        }))
        .unwrap();
    let second_ran = second_ran_rx
        .recv_timeout(DEADLINE)
        .expect("second action runs once the lock is released");
    assert!(
        second_ran.duration_since(first_ran) >= Duration::from_millis(30),
        "the local lock outlived the device write (released after {:?})",
        second_ran.duration_since(first_ran)
    );
    let first_messages = within_deadline("first commit", move || first.join().unwrap());
    assert_eq!(
        first_messages, 2,
        "the client's thread sent its action and, after the write, the Completed"
    );
    wait_within_deadline(&second, "second commit").unwrap();
    engine.shutdown();
}

/// `submit` returns before anybody waits, so the commit goes to the log's
/// daemon: the submitting thread performs no device write, the daemon is
/// spawned, and a later `wait()` sees the commit durable.
#[test]
fn a_submitted_transaction_completes_through_the_daemon() {
    let (db, table) = counters_db(config(100, DurabilityConfig::default()), 2);
    let engine = DoraEngine::new(Arc::clone(&db), DoraConfig::default());
    engine.bind_table(table, 1, 1, 2).unwrap();
    let mark = current_thread_snapshot();
    let txn = engine.submit(bump_graph(table, 1, || {})).unwrap();
    wait_within_deadline(&txn, "submitted commit").unwrap();
    assert_eq!(
        own_flushes_since(&mark),
        (0, 0),
        "the submitter never writes"
    );
    assert!(daemon_spawned(&db));
    assert_everything_is_durable(&db);
    // A blocking client on the same log still leads its own write.
    engine.execute(bump_graph(table, 2, || {})).unwrap();
    assert_eq!(own_flushes_since(&mark), (1, 1));
    engine.shutdown();
}

/// A failed write (every device write errors, no retries) reaches everybody
/// waiting on the log: the committer that led it, a follower parked behind
/// it, and a callback queued with the daemon. The leader is held under the
/// claim before its write until the other two commits are in the log, long
/// past the follower's 1 ms of polling.
#[test]
fn a_failed_write_surfaces_durability_lost_to_leader_followers_and_callbacks() {
    let system = SystemConfig {
        faults: FaultConfig {
            device_error_rate: 1.0,
            max_write_retries: 0,
            ..FaultConfig::default()
        },
        ..config(1_000, DurabilityConfig::default())
    };
    let (db, table) = counters_db(system, 3);
    let engine = Arc::new(DoraEngine::new(Arc::clone(&db), DoraConfig::default()));
    engine.bind_table(table, 1, 1, 3).unwrap();

    let hold = db.faults().hold(FaultSite::FlusherStall);
    let leader = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || engine.execute(bump_graph(table, 1, || {})))
    };
    wait_until("the leader held under the claim", || {
        db.faults().parked(FaultSite::FlusherStall) == 1
    });
    let follower = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || commit_bump(&db, table, 2))
    };
    let queued = engine.submit(bump_graph(table, 3, || {})).unwrap();
    // Begin, update and commit record per transaction.
    wait_until("all three commits logged", || db.log_manager().len() == 9);
    std::thread::sleep(Duration::from_millis(20));
    drop(hold);

    for (who, outcome) in [
        (
            "leader",
            within_deadline("leader", move || leader.join().unwrap()),
        ),
        (
            "follower",
            within_deadline("follower", move || follower.join().unwrap()),
        ),
        ("callback", wait_within_deadline(&queued, "queued callback")),
    ] {
        assert!(
            matches!(outcome, Err(DbError::DurabilityLost)),
            "{who}: a commit on a dead log must not look durable, got {outcome:?}"
        );
    }
    assert!(db.log_manager().failed());
    assert!(
        matches!(commit_bump(&db, table, 2), Err(DbError::DurabilityLost)),
        "later commits fail fast"
    );
    engine.shutdown();
}
