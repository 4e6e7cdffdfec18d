//! Versions on demand: row versioning is a mode the database is in only
//! while a snapshot is open. Writers build no chains otherwise, the first
//! snapshot of a period adopts whatever is in flight instead of waiting for
//! it, and the store starts every period empty. The invariant under test:
//!
//! > for every live snapshot at horizon `H`, each row is either chained with
//! > the right image at `H`, or unchained with heap bytes committed at a
//! > ticket ≤ `H`.
//!
//! Every wait has a 20 s deadline, so an opener that blocks on a transaction
//! fails instead of hanging.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use dora_repro::common::config::{DurabilityConfig, SystemConfig};
use dora_repro::common::fault::FaultConfig;
use dora_repro::common::prelude::*;
use dora_repro::dora::DoraConfig;
use dora_repro::engine::{build_engine_with, ExecutionEngine};
use dora_repro::metrics::{current_thread_snapshot, CounterKind};
use dora_repro::storage::{ColumnDef, Database, Snapshot, TableSchema};
use dora_repro::workloads::{TpcB, Workload};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const DEADLINE: Duration = Duration::from_secs(20);

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

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let start = Instant::now();
    while !done() {
        assert!(start.elapsed() < DEADLINE, "{what}: never happened");
        std::thread::yield_now();
    }
}

// ----- a three-column table driven through `Database` directly --------------

fn accounts_db(config: SystemConfig, rows: i64) -> (Arc<Database>, TableId) {
    let db = Database::new(config);
    let table = db
        .create_table(TableSchema::new(
            "accounts",
            vec![
                ColumnDef::new("id", ValueType::Int),
                ColumnDef::new("balance", ValueType::Int),
            ],
            vec![0],
        ))
        .unwrap();
    for id in 1..=rows {
        db.load_row(table, vec![Value::Int(id), Value::Int(100)])
            .unwrap();
    }
    (db, table)
}

/// The concurrency-control modes each engine drives the storage manager
/// with: `(update / probe, insert, delete)`.
fn cc_modes(kind: EngineKind) -> (CcMode, CcMode, CcMode) {
    match kind {
        EngineKind::Baseline => (CcMode::Full, CcMode::Full, CcMode::Full),
        EngineKind::Dora => (CcMode::None, CcMode::RowOnly, CcMode::None),
    }
}

fn set_balance(
    db: &Database,
    txn: &dora_repro::storage::TxnHandle,
    table: TableId,
    id: i64,
    balance: i64,
    cc: CcMode,
) {
    db.update_primary(txn, table, &Key::int(id), cc, |row| {
        row[1] = Value::Int(balance);
        Ok(())
    })
    .unwrap();
}

/// What a snapshot shows of the table: `id → balance`, by scan, after
/// checking that a probe of every id in `1..=probe_to` says the same.
fn table_at(
    db: &Database,
    table: TableId,
    snapshot: &Arc<Snapshot>,
    probe_to: i64,
) -> BTreeMap<i64, i64> {
    let reader = db.begin_snapshot(Arc::clone(snapshot));
    let mut scanned = BTreeMap::new();
    db.scan_table(&reader, table, CcMode::Full, |_, row| {
        let fresh = scanned.insert(row[0].as_int().unwrap(), row[1].as_int().unwrap());
        assert!(fresh.is_none(), "a scan emitted id {} twice", row[0]);
    })
    .unwrap();
    for id in 1..=probe_to {
        let probed = db
            .probe_primary(&reader, table, &Key::int(id), false, CcMode::Full)
            .unwrap()
            .map(|(_, row)| row[1].as_int().unwrap());
        assert_eq!(
            probed,
            scanned.get(&id).copied(),
            "probe and scan disagree on id {id}"
        );
    }
    db.commit(&reader).unwrap();
    scanned
}

fn balances(pairs: &[(i64, i64)]) -> BTreeMap<i64, i64> {
    pairs.iter().copied().collect()
}

/// (a) A writer is in flight — an update, an insert and a delete, none of
/// which left anything in the version store — when the same thread opens a
/// snapshot. The open returns without waiting for the writer, probe and scan
/// show the three pre-images, and what a fresh snapshot shows afterwards
/// depends only on whether the writer committed or aborted.
#[test]
fn opening_a_snapshot_adopts_the_writer_in_flight_on_the_same_thread() {
    for kind in EngineKind::ALL {
        for commit in [true, false] {
            let label = format!("{} commit={commit}", kind.label());
            let (before, after) = within_deadline(&label.clone(), move || {
                let (update_cc, insert_cc, delete_cc) = cc_modes(kind);
                let (db, table) = accounts_db(SystemConfig::for_tests(), 2);
                let writer = db.begin();
                set_balance(&db, &writer, table, 1, -1, update_cc);
                db.insert(
                    &writer,
                    table,
                    vec![Value::Int(3), Value::Int(300)],
                    insert_cc,
                )
                .unwrap();
                db.delete_primary(&writer, table, &Key::int(2), delete_cc)
                    .unwrap();
                assert_eq!(
                    db.mvcc_stats().chains,
                    0,
                    "no snapshot is open: the writer must not have built a chain"
                );

                // The writer cannot finish while this thread is in here.
                let during = Arc::new(db.snapshot());
                let before = table_at(&db, table, &during, 3);

                if commit {
                    db.commit(&writer).unwrap();
                } else {
                    db.abort(&writer).unwrap();
                }
                let fresh = Arc::new(db.snapshot());
                let after = table_at(&db, table, &fresh, 3);
                assert_eq!(
                    table_at(&db, table, &during, 3),
                    before,
                    "the first snapshot must keep reading at its own horizon"
                );
                (before, after)
            });
            let pre_images = balances(&[(1, 100), (2, 100)]);
            assert_eq!(
                before, pre_images,
                "{label}: in-flight writes leaked into the snapshot"
            );
            let expected = if commit {
                balances(&[(1, -1), (3, 300)])
            } else {
                pre_images
            };
            assert_eq!(
                after, expected,
                "{label}: wrong state after the writer finished"
            );
        }
    }
}

/// (d) Without a snapshot nothing is versioned — not one version created,
/// not one chain — and what a versioning period leaves behind is gone when
/// the next one starts.
#[test]
fn a_run_without_snapshots_builds_no_versions_and_every_period_starts_empty() {
    for kind in EngineKind::ALL {
        let (update_cc, insert_cc, delete_cc) = cc_modes(kind);
        let (db, table) = accounts_db(SystemConfig::for_tests(), 8);
        let label = kind.label();

        // Counters are per thread, so tests running beside this one do not
        // disturb the exact zero.
        let mark = current_thread_snapshot();
        let write_some = |round: i64| {
            let txn = db.begin();
            for id in 1..=4 {
                set_balance(&db, &txn, table, id, round, update_cc);
            }
            db.insert(
                &txn,
                table,
                vec![Value::Int(100 + round), Value::Int(round)],
                insert_cc,
            )
            .unwrap();
            db.delete_primary(&txn, table, &Key::int(100 + round), delete_cc)
                .unwrap();
            db.commit(&txn).unwrap();
        };
        for round in 0..50 {
            write_some(round);
        }
        let delta = current_thread_snapshot().since(&mark);
        assert_eq!(
            delta.counter(CounterKind::VersionsCreated),
            0,
            "{label}: a writer built versions nobody can read"
        );
        assert_eq!(
            db.mvcc_stats().chains,
            0,
            "{label}: chains without a reader"
        );

        // A period with history in it...
        let pinned = db.snapshot();
        for round in 50..60 {
            write_some(round);
        }
        assert!(
            db.mvcc_stats().versions >= 8,
            "{label}: a pinned snapshot must keep history"
        );
        drop(pinned);
        // ... and writers beside no snapshot again.
        let mark = current_thread_snapshot();
        for round in 60..70 {
            write_some(round);
        }
        let delta = current_thread_snapshot().since(&mark);
        assert_eq!(
            delta.counter(CounterKind::VersionsCreated),
            0,
            "{label}: versioning did not turn off with the last snapshot"
        );
        let reopened = Arc::new(db.snapshot());
        assert_eq!(
            db.mvcc_stats().chains,
            0,
            "{label}: the next period must start from an empty store"
        );
        assert_eq!(
            table_at(&db, table, &reopened, 8),
            balances(&[
                (1, 69),
                (2, 69),
                (3, 69),
                (4, 69),
                (5, 100),
                (6, 100),
                (7, 100),
                (8, 100)
            ]),
            "{label}: the heap alone must be the committed state"
        );
    }

    // Through the engines, whichever thread does the writing.
    for kind in EngineKind::ALL {
        let db = Database::for_tests();
        let workload: Arc<dyn Workload> = Arc::new(TpcB::with_accounts(2, 20));
        workload.setup(&db).unwrap();
        let engine = build_engine_with(kind, Arc::clone(&db), DoraConfig::for_tests());
        engine.bind(workload, 2).unwrap();
        let mut rng = SmallRng::seed_from_u64(11);
        let mut committed = 0;
        for _ in 0..200 {
            if engine.execute_one(&mut rng) == TxnOutcome::Committed {
                committed += 1;
            }
        }
        let stats = db.mvcc_stats();
        assert_eq!(stats.published, committed, "{}", kind.label());
        assert_eq!((stats.chains, stats.versions), (0, 0), "{}", kind.label());
        engine.shutdown();
    }
}

/// (e) A transaction that began while a snapshot was open outlives it,
/// writes on beside no snapshot, is adopted by the next opener and commits
/// under that opener's period: every snapshot reads it correctly.
#[test]
fn a_transaction_that_outlives_its_versioning_period_is_adopted_by_the_next() {
    for kind in EngineKind::ALL {
        let label = kind.label();
        within_deadline(label, move || {
            let (update_cc, insert_cc, delete_cc) = cc_modes(kind);
            let (db, table) = accounts_db(SystemConfig::for_tests(), 4);
            let first = db.snapshot();
            let straggler = db.begin();
            set_balance(&db, &straggler, table, 1, 11, update_cc);
            drop(first);
            // Versioning is off; the straggler still belongs to the period
            // that ended.
            set_balance(&db, &straggler, table, 1, 12, update_cc);
            set_balance(&db, &straggler, table, 2, 22, update_cc);
            db.delete_primary(&straggler, table, &Key::int(3), delete_cc)
                .unwrap();
            // Another transaction comes and goes beside no snapshot.
            let other = db.begin();
            set_balance(&db, &other, table, 4, 44, update_cc);
            db.commit(&other).unwrap();

            let second = Arc::new(db.snapshot());
            let committed = balances(&[(1, 100), (2, 100), (3, 100), (4, 44)]);
            assert_eq!(table_at(&db, table, &second, 5), committed, "{label}");

            // Adopted: from here on it seeds for itself.
            db.insert(
                &straggler,
                table,
                vec![Value::Int(5), Value::Int(55)],
                insert_cc,
            )
            .unwrap();
            set_balance(&db, &straggler, table, 4, 45, update_cc);
            assert_eq!(table_at(&db, table, &second, 5), committed, "{label}");
            db.commit(&straggler).unwrap();
            assert_eq!(table_at(&db, table, &second, 5), committed, "{label}");

            let third = Arc::new(db.snapshot());
            assert_eq!(
                table_at(&db, table, &third, 5),
                balances(&[(1, 12), (2, 22), (4, 45), (5, 55)]),
                "{label}"
            );
        });
    }
}

/// An opener stalled between starting the period and adopting what is in
/// flight, on another thread; returns once it is parked there.
fn open_and_stall(
    db: &Arc<Database>,
    durable: bool,
) -> (
    dora_repro::common::fault::FaultHold,
    std::thread::JoinHandle<Snapshot>,
) {
    let hold = db.faults().hold(FaultSite::SnapshotAdoption);
    let opener = {
        let db = Arc::clone(db);
        std::thread::spawn(move || {
            if durable {
                db.snapshot_durable()
            } else {
                db.snapshot()
            }
        })
    };
    wait_until("the opener starts the period", || {
        db.faults().parked(FaultSite::SnapshotAdoption) == 1
    });
    (hold, opener)
}

/// A transaction the opener has not reached yet writes a row on top of a
/// commit that is already in the period, and commits before the opener gets
/// to it: the row has a chain, so the commit must extend it — "this
/// transaction is not versioned" would leave the chain one commit behind
/// the heap.
#[test]
fn an_unadopted_commit_extends_the_chain_it_writes_on_top_of() {
    for kind in EngineKind::ALL {
        let label = kind.label();
        let (update_cc, _, _) = cc_modes(kind);
        let (db, table) = accounts_db(SystemConfig::for_tests(), 2);
        let unadopted = db.begin();
        set_balance(&db, &unadopted, table, 2, 20, update_cc);
        let (hold, opener) = open_and_stall(&db, false);

        let versioned = db.begin();
        set_balance(&db, &versioned, table, 1, 11, update_cc);
        db.commit(&versioned).unwrap();
        set_balance(&db, &unadopted, table, 1, 12, update_cc);
        db.commit(&unadopted).unwrap();

        drop(hold);
        let snapshot = Arc::new(within_deadline(label, move || opener.join().unwrap()));
        assert_eq!(snapshot.horizon(), 2, "{label}");
        assert_eq!(
            table_at(&db, table, &snapshot, 2),
            balances(&[(1, 12), (2, 20)]),
            "{label}: the chain of row 1 stopped at the first commit"
        );
    }
}

/// A chain base is the row's image below *every* writer that is not durable
/// yet, in whatever order the seeds arrive: here the transaction born into
/// the period seeds row 1 (with the undurable commit's image, which is what
/// the heap holds) before the opener gets to that commit's write list.
#[test]
fn a_base_seeded_on_top_of_an_undurable_commit_is_moved_below_it() {
    for kind in EngineKind::ALL {
        let label = kind.label();
        let (update_cc, _, _) = cc_modes(kind);
        let (db, table) = accounts_db(SystemConfig::for_tests(), 1);
        let undurable = db.begin();
        set_balance(&db, &undurable, table, 1, 101, update_cc);
        let handle = db.precommit(&undurable).unwrap();
        assert!(
            handle.early_released(),
            "its locks are free, the device not asked"
        );
        let (hold, opener) = open_and_stall(&db, true);

        let born_versioned = db.begin();
        set_balance(&db, &born_versioned, table, 1, 102, update_cc);

        drop(hold);
        let durable = Arc::new(within_deadline(label, move || opener.join().unwrap()));
        assert_eq!(durable.horizon(), 0, "{label}");
        assert_eq!(
            table_at(&db, table, &durable, 1),
            balances(&[(1, 100)]),
            "{label}: an undurable image is the base of the chain"
        );
        let published = Arc::new(db.snapshot());
        assert_eq!(
            table_at(&db, table, &published, 1),
            balances(&[(1, 101)]),
            "{label}"
        );
        db.commit(&born_versioned).unwrap();
        db.commit_wait(&undurable, handle).unwrap();
        assert_eq!(
            table_at(&db, table, &durable, 1),
            balances(&[(1, 100)]),
            "{label}"
        );
        assert_eq!(
            table_at(&db, table, &Arc::new(db.snapshot_durable()), 1),
            balances(&[(1, 102)]),
            "{label}"
        );
    }
}

/// A transaction born in the last period writes a row for the second time
/// while the next period's opener is between clearing the store and adopting
/// it: what it would seed is its own uncommitted first write, so until it is
/// adopted it must not seed into the new period's chains at all.
#[test]
fn a_straggler_of_the_last_period_does_not_seed_into_the_next() {
    for kind in EngineKind::ALL {
        let label = kind.label();
        let (update_cc, _, _) = cc_modes(kind);
        let (db, table) = accounts_db(SystemConfig::for_tests(), 1);
        let last_period = db.snapshot();
        let straggler = db.begin();
        set_balance(&db, &straggler, table, 1, 11, update_cc);
        drop(last_period);
        let (hold, opener) = open_and_stall(&db, false);
        set_balance(&db, &straggler, table, 1, 12, update_cc);
        drop(hold);
        let snapshot = Arc::new(within_deadline(label, move || opener.join().unwrap()));
        assert_eq!(
            table_at(&db, table, &snapshot, 1),
            balances(&[(1, 100)]),
            "{label}: the straggler's own first write became the chain base"
        );
        db.commit(&straggler).unwrap();
        assert_eq!(table_at(&db, table, &snapshot, 1), balances(&[(1, 100)]));
        assert_eq!(
            table_at(&db, table, &Arc::new(db.snapshot()), 1),
            balances(&[(1, 12)]),
            "{label}"
        );
    }
}

/// The bug versions on demand makes likely: a snapshot point read that asks
/// the chain first and reads the heap second hands out the uncommitted bytes
/// of a writer that seeds and mutates between the two — and now that almost
/// every row is primordial, almost every read is exposed. Parked between its
/// two reads, the reader must still return the committed image.
#[test]
fn a_point_read_racing_a_writer_never_returns_uncommitted_bytes() {
    let (db, table) = accounts_db(SystemConfig::for_tests(), 1);
    let rid = {
        let txn = db.begin();
        let (rid, _) = db
            .probe_primary(&txn, table, &Key::int(1), false, CcMode::Full)
            .unwrap()
            .unwrap();
        db.commit(&txn).unwrap();
        rid
    };
    for by_rid in [false, true] {
        let snapshot = Arc::new(db.snapshot());
        let hold = db.faults().hold(FaultSite::SnapshotReadGap);
        let reader = {
            let db = Arc::clone(&db);
            let snapshot = Arc::clone(&snapshot);
            std::thread::spawn(move || {
                let txn = db.begin_snapshot(snapshot);
                let row = if by_rid {
                    db.read_rid(&txn, table, rid, false, CcMode::Full).unwrap()
                } else {
                    db.probe_primary(&txn, table, &Key::int(1), false, CcMode::Full)
                        .unwrap()
                        .unwrap()
                        .1
                };
                db.commit(&txn).unwrap();
                row[1].as_int().unwrap()
            })
        };
        wait_until("the reader reaches the gap", || {
            db.faults().parked(FaultSite::SnapshotReadGap) == 1
        });
        let writer = db.begin();
        set_balance(&db, &writer, table, 1, -1, CcMode::None);
        drop(hold);
        let seen = within_deadline("the parked reader", move || reader.join().unwrap());
        assert_eq!(
            seen, 100,
            "by_rid={by_rid}: the snapshot read bytes of a transaction in flight"
        );
        db.abort(&writer).unwrap();
    }
}

// ----- TPC-B through the engines ---------------------------------------------

const BRANCHES: i64 = 4;
const ACCOUNTS: i64 = 40;

fn tpcb_engine(kind: EngineKind, config: SystemConfig) -> Arc<dyn ExecutionEngine> {
    let db = Database::new(config);
    let workload: Arc<dyn Workload> = Arc::new(TpcB::with_accounts(BRANCHES, ACCOUNTS));
    workload.setup(&db).unwrap();
    let engine = build_engine_with(kind, db, DoraConfig::for_tests());
    engine.bind(workload, 2).unwrap();
    engine
}

/// What one snapshot shows of the TPC-B state.
struct View {
    branch: f64,
    teller: f64,
    account: f64,
    history: f64,
    history_tids: Vec<i64>,
}

fn view_at(db: &Database, snapshot: &Arc<Snapshot>) -> View {
    let reader = db.begin_snapshot(Arc::clone(snapshot));
    let total = |table: &str, column: usize| {
        let mut sum = 0.0;
        db.scan_table(
            &reader,
            db.table_id(table).unwrap(),
            CcMode::Full,
            |_, row| {
                sum += row[column].as_float().unwrap();
            },
        )
        .unwrap();
        sum
    };
    let mut history = 0.0;
    let mut history_tids = Vec::new();
    db.scan_table(
        &reader,
        db.table_id("history_b").unwrap(),
        CcMode::Full,
        |_, row| {
            history += row[3].as_float().unwrap();
            history_tids.push(row[4].as_int().unwrap());
        },
    )
    .unwrap();
    let view = View {
        branch: total("branch", 1),
        teller: total("teller", 2),
        account: total("account", 2),
        history,
        history_tids,
    };
    db.commit(&reader).unwrap();
    view
}

/// (b) Four TPC-B writers at full speed while one thread opens, checks and
/// drops a snapshot in a tight loop, so every open starts a versioning
/// period beside writers in every stage of a transaction. On every snapshot
/// the four totals agree and the visible history rows are *exactly* the
/// commits with a ticket at or below the horizon — the ticket prefix, not
/// merely some consistent cut. Published and durable horizons alternate.
/// With a log device that takes no time, commits are durable (and their
/// write lists gone) before an opener gets to them; with one that takes
/// `log_flush_micros`, they spend time published and not yet durable.
fn ticket_prefix_across_transitions(early_lock_release: bool, log_flush_micros: u64) {
    const TRANSITIONS: usize = 300;
    for kind in EngineKind::ALL {
        let label = format!(
            "{} elr={early_lock_release} flush={log_flush_micros}us",
            kind.label()
        );
        let engine = tpcb_engine(
            kind,
            SystemConfig {
                log_flush_micros,
                durability: DurabilityConfig {
                    early_lock_release,
                    ..DurabilityConfig::default()
                },
                ..SystemConfig::for_tests()
            },
        );
        let db = Arc::clone(engine.db());
        let tickets: Arc<Mutex<Vec<(i64, u64)>>> = Arc::default();
        db.observe_commits({
            let tickets = Arc::clone(&tickets);
            move |txn, ticket| tickets.lock().unwrap().push((txn.0 as i64, ticket))
        });

        // Full speed, but no further than 50 transactions per transition
        // ahead of the reader: every check scans the whole history.
        let stop = Arc::new(AtomicBool::new(false));
        let allowed = Arc::new(AtomicU64::new(200));
        let started = Arc::new(AtomicU64::new(0));
        let writers: Vec<_> = (0..4u64)
            .map(|seed| {
                let engine = Arc::clone(&engine);
                let (stop, allowed, started) = (
                    Arc::clone(&stop),
                    Arc::clone(&allowed),
                    Arc::clone(&started),
                );
                std::thread::spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(0xB0B ^ seed);
                    while !stop.load(Ordering::Relaxed) {
                        if started.load(Ordering::Relaxed) < allowed.load(Ordering::Relaxed) {
                            started.fetch_add(1, Ordering::Relaxed);
                            engine.execute_one(&mut rng);
                        } else {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();

        let start = Instant::now();
        let mut horizons = Vec::with_capacity(TRANSITIONS);
        for round in 0..TRANSITIONS {
            assert!(
                start.elapsed() < DEADLINE,
                "{label}: round {round} too late"
            );
            let snapshot = Arc::new(if round % 2 == 0 {
                db.snapshot()
            } else {
                db.snapshot_durable()
            });
            let view = view_at(&db, &snapshot);
            for (name, total) in [
                ("teller", view.teller),
                ("account", view.account),
                ("history", view.history),
            ] {
                assert!(
                    (view.branch - total).abs() < 1e-6,
                    "{label} round {round}: Σ branch {} ≠ Σ {name} {total} at horizon {}",
                    view.branch,
                    snapshot.horizon()
                );
            }
            let expected: HashSet<i64> = tickets
                .lock()
                .unwrap()
                .iter()
                .filter(|(_, ticket)| *ticket <= snapshot.horizon())
                .map(|(tid, _)| *tid)
                .collect();
            assert_eq!(
                expected.len() as u64,
                snapshot.horizon(),
                "{label} round {round}: every ticket up to the horizon belongs to one commit"
            );
            let visible: HashSet<i64> = view.history_tids.iter().copied().collect();
            assert_eq!(
                visible.len(),
                view.history_tids.len(),
                "{label} round {round}: a history row showed twice"
            );
            assert!(
                visible == expected,
                "{label} round {round}: horizon {} shows {} commits it must not \
                 and misses {} it must",
                snapshot.horizon(),
                visible.difference(&expected).count(),
                expected.difference(&visible).count()
            );
            horizons.push(snapshot.horizon());
            drop(snapshot);
            allowed.fetch_add(50, Ordering::Relaxed);
            // Let the transactions in flight at the next open be ones that
            // began beside no snapshot.
            let begun = started.load(Ordering::Relaxed);
            wait_until("writers begin beside no snapshot", || {
                started.load(Ordering::Relaxed) >= begun + 8
            });
            assert_eq!(db.mvcc_stats().oldest_snapshot, None);
        }
        stop.store(true, Ordering::Relaxed);
        for writer in writers {
            writer.join().unwrap();
        }
        engine.shutdown();
        assert!(
            horizons.last() > horizons.first(),
            "{label}: the writers never committed beside the snapshots"
        );
    }
}

#[test]
fn every_snapshot_is_a_ticket_prefix_across_on_off_transitions() {
    ticket_prefix_across_transitions(true, 0);
}

#[test]
fn every_snapshot_is_a_ticket_prefix_beside_undurable_commits() {
    ticket_prefix_across_transitions(true, 20);
}

#[test]
fn every_snapshot_is_a_ticket_prefix_across_on_off_transitions_without_elr() {
    ticket_prefix_across_transitions(false, 0);
}

/// (c) Three clients commit while the log device is held: published, their
/// locks released, none durable. A durable snapshot opened now — no snapshot
/// was open when they wrote, so not one of them left a version — shows none
/// of them, without waiting for the device; a plain one shows all three.
#[test]
fn a_durable_snapshot_excludes_undurable_commits_it_never_saw_versioned() {
    for kind in EngineKind::ALL {
        let label = kind.label();
        let engine = tpcb_engine(kind, SystemConfig::for_tests());
        let db = Arc::clone(engine.db());
        let hold = db.faults().hold(FaultSite::FlusherStall);
        let clients: Vec<_> = (0..3u64)
            .map(|seed| {
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(0xC ^ seed);
                    while engine.execute_one(&mut rng) != TxnOutcome::Committed {}
                })
            })
            .collect();
        wait_until("three commits published", || db.mvcc_stats().published == 3);
        assert_eq!(db.mvcc_stats().chains, 0, "{label}");

        let (durable, published) = within_deadline(label, {
            let db = Arc::clone(&db);
            move || {
                let durable = Arc::new(db.snapshot_durable());
                let published = Arc::new(db.snapshot());
                (view_at(&db, &durable), view_at(&db, &published))
            }
        });
        assert_eq!(
            durable.history_tids.len(),
            0,
            "{label}: undurable commits visible"
        );
        for total in [durable.branch, durable.teller, durable.account] {
            assert_eq!(total, 0.0, "{label}: an undurable balance is visible");
        }
        assert_eq!(published.history_tids.len(), 3, "{label}");
        assert!((published.branch - published.history).abs() < 1e-6);

        drop(hold);
        within_deadline(label, move || {
            for client in clients {
                client.join().unwrap();
            }
        });
        let hardened = view_at(&db, &Arc::new(db.snapshot_durable()));
        assert_eq!(hardened.history_tids.len(), 3, "{label}");
        engine.shutdown();
    }
}

/// (c), the log that has failed for good: its ghost commit is in the heap
/// for ever and durable never. Every durable snapshot, whenever it is opened,
/// must read around it and around everything committed on top of it.
#[test]
fn a_durable_snapshot_excludes_a_ghost_whose_stream_has_failed_for_good() {
    for kind in EngineKind::ALL {
        let label = kind.label();
        let (update_cc, _, _) = cc_modes(kind);
        let (db, table) = accounts_db(
            SystemConfig {
                faults: FaultConfig {
                    device_error_rate: 1.0,
                    max_write_retries: 0,
                    ..FaultConfig::default()
                },
                ..SystemConfig::for_tests()
            },
            2,
        );
        for (round, balance) in [7, 8].into_iter().enumerate() {
            let ghost = db.begin();
            set_balance(&db, &ghost, table, 1, balance, update_cc);
            assert!(
                matches!(db.commit(&ghost), Err(DbError::DurabilityLost)),
                "{label}: the device fails every write"
            );
            let (durable, published) = within_deadline(label, {
                let db = Arc::clone(&db);
                move || {
                    let durable = Arc::new(db.snapshot_durable());
                    let published = Arc::new(db.snapshot());
                    (
                        table_at(&db, table, &durable, 2),
                        table_at(&db, table, &published, 2),
                    )
                }
            });
            assert_eq!(
                durable,
                balances(&[(1, 100), (2, 100)]),
                "{label} round {round}: a ghost is visible at the durable horizon"
            );
            assert_eq!(published, balances(&[(1, balance), (2, 100)]), "{label}");
        }
    }
}
