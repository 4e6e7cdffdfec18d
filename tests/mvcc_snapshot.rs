//! Snapshot isolation properties of the multi-version storage layer, checked
//! end-to-end through the public API while real engines write concurrently:
//!
//! * **Consistency** — every snapshot shows a transaction-consistent state:
//!   branch, teller and account totals agree with each other *and* with the
//!   sum of the history deltas visible at the same horizon, so uncommitted
//!   or torn effects can never leak in (a half-applied transfer would break
//!   the equality; a visible effect without its history row, or vice versa,
//!   would break the tie to the commit records).
//! * **Repeatability** — re-reading through the same snapshot yields exactly
//!   the same rows no matter how much the writers committed in between.
//! * **Lock-freedom** — the reading thread performs zero lock-manager and
//!   zero DORA-local-lock acquisitions, verified through its thread-local
//!   counters.
//! * **No ELR ghosts** — with asynchronous group commit and early lock
//!   release, a *durable* snapshot never shows a transaction that a crash at
//!   the current flush horizon would lose: everything it shows survives a
//!   `recover_prefix_into` replay cut at that horizon.
//! * **Bounded history** — version chains are reclaimable once the snapshots
//!   pinning them are gone.
//! * **Keys outlive RIDs** — a snapshot pinned before a key was deleted and
//!   re-inserted (at a new RID) still probes the original row.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dora_repro::common::prelude::*;
use dora_repro::dora::DoraConfig;
use dora_repro::engine::{build_engine_with, ExecutionEngine};
use dora_repro::metrics::{current_thread_snapshot, CounterKind};
use dora_repro::storage::{ColumnDef, Database, Snapshot, TableSchema};
use dora_repro::workloads::{TpcB, Workload};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const BRANCHES: i64 = 4;
const ACCOUNTS: i64 = 40;

/// TPC-B system under concurrent load: the engine plus its writer threads,
/// which keep committing transfers until [`WriterPool::stop`].
struct WriterPool {
    engine: Arc<dyn ExecutionEngine>,
    stop: Arc<AtomicBool>,
    writers: Vec<std::thread::JoinHandle<()>>,
}

impl WriterPool {
    fn start(kind: EngineKind, db: Arc<Database>, threads: usize) -> Self {
        let workload: Arc<dyn Workload> = Arc::new(TpcB::with_accounts(BRANCHES, ACCOUNTS));
        workload.setup(&db).unwrap();
        let engine = build_engine_with(kind, db, DoraConfig::for_tests());
        engine.bind(workload, 2).unwrap();

        let stop = Arc::new(AtomicBool::new(false));
        let writers = (0..threads as u64)
            .map(|seed| {
                let engine = Arc::clone(&engine);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(0x5EED ^ seed);
                    while !stop.load(Ordering::Relaxed) {
                        engine.execute_one(&mut rng);
                    }
                })
            })
            .collect();
        Self {
            engine,
            stop,
            writers,
        }
    }

    fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        for writer in self.writers {
            writer.join().unwrap();
        }
        self.engine.shutdown();
    }
}

/// Everything one snapshot shows of the TPC-B state: the three balance
/// totals, plus the visible history rows' transaction ids and delta sum.
#[derive(Debug, PartialEq)]
struct View {
    branch: f64,
    teller: f64,
    account: f64,
    history_sum: f64,
    history_tids: Vec<i64>,
}

fn view_at(db: &Database, snapshot: &Arc<Snapshot>) -> View {
    let total = |table: &str, column: usize| {
        let id = db.table_id(table).unwrap();
        let txn = db.begin_snapshot(Arc::clone(snapshot));
        let mut sum = 0.0;
        db.scan_table(&txn, id, CcMode::Full, |_, row| {
            sum += row[column].as_float().unwrap_or(0.0);
        })
        .unwrap();
        db.commit(&txn).unwrap();
        sum
    };
    let history = db.table_id("history_b").unwrap();
    let txn = db.begin_snapshot(Arc::clone(snapshot));
    let mut history_sum = 0.0;
    let mut history_tids = Vec::new();
    db.scan_table(&txn, history, CcMode::Full, |_, row| {
        history_sum += row[3].as_float().unwrap_or(0.0);
        history_tids.push(row[4].as_int().unwrap());
    })
    .unwrap();
    db.commit(&txn).unwrap();
    history_tids.sort_unstable();
    View {
        branch: total("branch", 1),
        teller: total("teller", 2),
        account: total("account", 2),
        history_sum,
        history_tids,
    }
}

fn assert_consistent(label: &str, probe: usize, view: &View) {
    for (name, total) in [
        ("teller", view.teller),
        ("account", view.account),
        ("history", view.history_sum),
    ] {
        assert!(
            (view.branch - total).abs() < 1e-6,
            "{label} probe {probe}: branch total {} disagrees with {name} total {} — \
             the snapshot exposed an uncommitted or torn state",
            view.branch,
            total
        );
    }
    assert_eq!(
        view.history_tids.len(),
        view.history_tids.iter().collect::<HashSet<_>>().len(),
        "{label} probe {probe}: duplicate history rows visible"
    );
}

/// Snapshots taken while both engines commit transfers at full speed are
/// transaction-consistent, tie exactly to the visible commit records,
/// re-read identically, and cost the reader zero lock acquisitions.
#[test]
fn snapshots_stay_consistent_and_repeatable_under_concurrent_writers() {
    for kind in EngineKind::ALL {
        let db = Database::for_tests();
        let pool = WriterPool::start(kind, Arc::clone(&db), 4);
        let label = kind.label();

        let before = current_thread_snapshot();
        let mut last_history = 0usize;
        for probe in 0..25 {
            let snapshot = Arc::new(pool.engine.snapshot());
            let first = view_at(&db, &snapshot);
            assert_consistent(label, probe, &first);

            // Repeatability: the writers keep committing, the view must not.
            let again = view_at(&db, &snapshot);
            assert_eq!(
                first, again,
                "{label} probe {probe}: the same snapshot returned different rows"
            );

            // Snapshots pinned later never travel backwards.
            assert!(
                first.history_tids.len() >= last_history,
                "{label} probe {probe}: a newer snapshot saw fewer commits"
            );
            last_history = first.history_tids.len();
        }
        let delta = current_thread_snapshot().since(&before);
        for counter in [
            CounterKind::RowLevelLock,
            CounterKind::HigherLevelLock,
            CounterKind::DoraLocalLock,
        ] {
            assert_eq!(
                delta.counter(counter),
                0,
                "{label}: snapshot reader acquired {counter:?} locks"
            );
        }
        assert!(
            delta.counter(CounterKind::SnapshotReads) > 0,
            "{label}: reads did not go through the snapshot path"
        );

        pool.stop();

        // Quiesced, a fresh snapshot agrees with a classic locked read.
        let snapshot = Arc::new(db.snapshot());
        let quiesced = view_at(&db, &snapshot);
        assert_consistent(label, usize::MAX, &quiesced);
        let history = db.table_id("history_b").unwrap();
        assert_eq!(
            quiesced.history_tids.len(),
            db.row_count(history).unwrap(),
            "{label}: final snapshot must see every committed transaction"
        );
    }
}

/// With asynchronous group commit and early lock release, *durable*
/// snapshots never show ELR ghosts: every transaction visible through one
/// survives a crash cut at the flush horizon captured afterwards.
#[test]
fn durable_snapshots_never_observe_elr_ghosts() {
    let config = SystemConfig {
        // A simulated device latency so commits genuinely spend time in the
        // not-yet-durable window the ghosts would hide in.
        log_flush_micros: 50,
        durability: DurabilityConfig {
            early_lock_release: true,
            ..DurabilityConfig::default()
        },
        ..SystemConfig::for_tests()
    };
    for kind in EngineKind::ALL {
        let db = Database::new(config.clone());
        let pool = WriterPool::start(kind, Arc::clone(&db), 3);
        let label = kind.label();

        for probe in 0..8 {
            // Order matters: pin the durable horizon first, then capture the
            // flush horizon — the cut can only be *ahead* of whatever made
            // the snapshot's transactions durable, never behind.
            let snapshot = Arc::new(db.snapshot_durable());
            let view = view_at(&db, &snapshot);
            assert_consistent(label, probe, &view);
            let cut = db.log_manager().flushed_lsn();

            let replica = Database::new(config.clone());
            let workload = TpcB::with_accounts(BRANCHES, ACCOUNTS);
            workload.create_schema(&replica).unwrap();
            workload.load(&replica).unwrap();
            db.recover_prefix_into(&replica, cut).unwrap();

            let history = replica.table_id("history_b").unwrap();
            let mut recovered = HashSet::new();
            let txn = replica.begin();
            replica
                .scan_table(&txn, history, CcMode::Full, |_, row| {
                    recovered.insert(row[4].as_int().unwrap());
                })
                .unwrap();
            replica.commit(&txn).unwrap();

            for tid in &view.history_tids {
                assert!(
                    recovered.contains(tid),
                    "{label} probe {probe}: durable snapshot showed transaction {tid}, \
                     which a crash at cut {cut:?} loses — an ELR ghost"
                );
            }
        }
        pool.stop();
    }
}

/// Version history is bounded: chains accumulate while a snapshot pins them
/// and are reclaimed once it releases.
#[test]
fn version_chains_are_reclaimed_after_the_last_snapshot_releases() {
    let db = Database::for_tests();
    let pool = WriterPool::start(EngineKind::Dora, Arc::clone(&db), 2);

    // Pin an early horizon so every later update has to keep history.
    let pinned = Arc::new(db.snapshot());
    while db.mvcc_stats().versions < 200 {
        std::thread::yield_now();
    }
    pool.stop();

    let held = db.mvcc_stats().versions;
    assert!(held >= 200, "writers must have accumulated history");
    drop(pinned);

    // With no snapshot left alive, one collection pass prunes everything
    // behind the published horizon.
    db.version_store().gc_once();
    let after = db.mvcc_stats();
    assert!(
        after.versions < held,
        "GC reclaimed nothing ({held} -> {} versions)",
        after.versions
    );
    assert_eq!(
        after.oldest_snapshot, None,
        "no snapshot may remain registered"
    );
}

/// A primary-key probe through a snapshot pinned before the key was deleted
/// and re-inserted (new RID, new values) still finds the original row.
#[test]
fn snapshot_probe_survives_delete_then_reinsert() {
    let db = Database::for_tests();
    let table = db
        .create_table(TableSchema::new(
            "accounts",
            vec![
                ColumnDef::new("id", ValueType::Int),
                ColumnDef::new("owner", ValueType::Text),
                ColumnDef::new("balance", ValueType::Float),
            ],
            vec![0],
        ))
        .unwrap();
    let account = |owner: &str, balance: f64| -> Row {
        vec![
            Value::Int(1),
            Value::Text(owner.into()),
            Value::Float(balance),
        ]
    };
    let setup = db.begin();
    db.insert(&setup, table, account("alice", 100.0), CcMode::Full)
        .unwrap();
    db.commit(&setup).unwrap();

    let old = Arc::new(db.snapshot());

    let deleter = db.begin();
    db.delete_primary(&deleter, table, &Key::int(1), CcMode::Full)
        .unwrap();
    db.commit(&deleter).unwrap();
    let inserter = db.begin();
    db.insert(&inserter, table, account("alice-v2", 7.0), CcMode::Full)
        .unwrap();
    db.commit(&inserter).unwrap();

    let reader = db.begin_snapshot(Arc::clone(&old));
    let got = db
        .probe_primary(&reader, table, &Key::int(1), false, CcMode::Full)
        .unwrap();
    db.commit(&reader).unwrap();
    let (_, row) = got.expect("snapshot pinned before the delete must still see key 1");
    assert_eq!(row[1], Value::Text("alice".into()));
    assert_eq!(row[2], Value::Float(100.0));
}
