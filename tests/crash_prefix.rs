//! Crash consistency under asynchronous group commit with early lock
//! release: replaying the log behind any cut rebuilds, on top of the
//! checkpoint, exactly the transactions whose commit record lies inside the
//! cut — no torn transactions, no ELR ghosts, no commit lost.
//!
//! Four failure shapes must be impossible behind every cut:
//!
//! * **Torn transactions** — a replayed transaction missing some of its data
//!   records. Impossible because a transaction's commit record is its last
//!   record, so a cut that holds it holds all of its data.
//! * **ELR ghosts** — effects of a transaction whose locks were released
//!   early but whose commit record missed the cut. Impossible because
//!   recovery replays only transactions whose commit record survived.
//! * **Dependency inversions** — a dependent transaction surviving a crash
//!   that lost the transaction it read from (its after-images embed the
//!   writer's effects). Impossible because the commit record is appended
//!   while the locks are held, so a dependent always commits at a larger
//!   LSN.
//! * **Lost commits** — a transaction whose commit record (and so its
//!   acknowledged flush) lies inside the cut, yet is not recovered.
//!   Impossible because the commit sequence is drawn under the mutex that
//!   assigns the record's LSN, so every prefix of the log is
//!   sequence-dense.
//!
//! Exercised for both execution engines with group commit and ELR enabled,
//! on a log that was never checkpointed and on one whose checkpoint moved
//! the history below its low-water mark out of the log: there every cut at
//! or above that mark recovers the committed set, the whole log recovers the
//! live database, and a cut below it is refused.

use std::collections::HashMap;
use std::sync::Arc;

use dora_repro::common::prelude::*;
use dora_repro::dora::{DoraConfig, DoraEngine};
use dora_repro::engine::BaselineEngine;
use dora_repro::storage::{Database, LogRecordKind, Lsn};
use dora_repro::workloads::{TpcB, Workload};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const BRANCHES: i64 = 3;
const ACCOUNTS: i64 = 40;
const TXNS: usize = 120;
const TPCB_TABLES: [&str; 4] = ["branch", "teller", "account", "history_b"];

fn async_elr_config() -> SystemConfig {
    SystemConfig {
        // A small simulated device latency so groups actually form and
        // commits genuinely spend time in the not-yet-durable window.
        log_flush_micros: 20,
        durability: DurabilityConfig {
            early_lock_release: true,
            ..DurabilityConfig::default()
        },
        ..SystemConfig::for_tests()
    }
}

/// Runs `TXNS` TPC-B transactions on the given engine — taking a checkpoint
/// (which reclaims the prefix it folds) after `checkpoint_after` of them, if
/// set — and returns the quiesced database whose log the prefixes are cut
/// from. Every client waits for its commit, so every commit is durable.
fn run_workload(kind: EngineKind, seed: u64, checkpoint_after: Option<usize>) -> Arc<Database> {
    let db = Database::new(async_elr_config());
    let workload = TpcB::with_accounts(BRANCHES, ACCOUNTS);
    workload.setup(&db).unwrap();
    let mut rng = SmallRng::seed_from_u64(seed);
    let checkpoint = |ran: usize| {
        if checkpoint_after == Some(ran) {
            db.log_manager().take_checkpoint();
        }
    };
    match kind {
        EngineKind::Baseline => {
            let engine = BaselineEngine::new(Arc::clone(&db));
            for ran in 0..TXNS {
                checkpoint(ran);
                let program = workload.next_program(&db, &mut rng).unwrap();
                let _ = engine.execute(program.compile_baseline());
            }
        }
        EngineKind::Dora => {
            let engine = DoraEngine::new(Arc::clone(&db), DoraConfig::for_tests());
            workload.bind_dora(&engine, 2).unwrap();
            for ran in 0..TXNS {
                checkpoint(ran);
                let program = workload.next_program(&db, &mut rng).unwrap();
                let _ = engine.execute(program.compile_dora());
            }
            engine.shutdown();
        }
    }
    db
}

/// A fresh database with the TPC-B schema and initial rows, ready for
/// replay (loader rows are not logged, so replay reconstructs the delta).
fn fresh_replica() -> Arc<Database> {
    let fresh = Database::new(async_elr_config());
    let workload = TpcB::with_accounts(BRANCHES, ACCOUNTS);
    workload.create_schema(&fresh).unwrap();
    workload.load(&fresh).unwrap();
    fresh
}

fn balance_total(db: &Database, table: &str, column: usize) -> f64 {
    let id = db.table_id(table).unwrap();
    let txn = db.begin();
    let mut total = 0.0;
    db.scan_table(&txn, id, CcMode::Full, |_, row| {
        total += row[column].as_float().unwrap_or(0.0);
    })
    .unwrap();
    db.commit(&txn).unwrap();
    total
}

fn sorted_rows(db: &Database, table: &str) -> Vec<Vec<u8>> {
    let id = db.table_id(table).unwrap();
    let txn = db.begin();
    let mut rows = Vec::new();
    db.scan_table(&txn, id, CcMode::Full, |_, row| {
        rows.push(Value::encode_row(row).to_vec());
    })
    .unwrap();
    db.commit(&txn).unwrap();
    rows.sort_unstable();
    rows
}

fn assert_same_rows(live: &Database, recovered: &Database, context: &str) {
    for table in TPCB_TABLES {
        assert!(
            sorted_rows(live, table) == sorted_rows(recovered, table),
            "{context}: table {table} differs between the live and the recovered database"
        );
    }
}

/// The test's own account of what recovery behind `cut` must rebuild,
/// independent of the recovery code: the transactions the checkpoint folded
/// (every commit record at or below its low-water mark) plus every commit
/// record past the mark and inside the cut. Also checks that commit
/// sequences increase with LSN, which is what makes that set a dense run.
fn committed_within(db: &Database, cut: Lsn) -> u64 {
    let log = db.log_manager();
    let folded = log
        .checkpoint_snapshot()
        .map_or(0, |checkpoint| checkpoint.seq_horizon());
    let mut inside = 0;
    for record in log.records_snapshot() {
        if let LogRecordKind::Commit { seq } = record.kind {
            assert_eq!(
                seq,
                folded + inside + 1,
                "{}: commit record at {:?} out of sequence order",
                record.txn,
                record.lsn
            );
            if record.lsn > cut {
                break;
            }
            inside += 1;
        }
    }
    folded + inside
}

/// Replays the log up to `cut` into a fresh replica and checks the two
/// crash invariants: the replayed transaction set is the committed set
/// inside the cut (one history row per TPC-B transaction), and money is
/// conserved across branches/tellers/accounts.
fn check_cut(kind: EngineKind, db: &Database, cut: Lsn) {
    let fresh = fresh_replica();
    db.recover_prefix_into(&fresh, cut).unwrap();

    let history = fresh.table_id("history_b").unwrap();
    assert_eq!(
        fresh.row_count(history).unwrap() as u64,
        committed_within(db, cut),
        "{}: cut {cut:?} replayed a torn or ghost transaction, or lost a commit",
        kind.label()
    );

    // Money conservation behind every crash point: each committed
    // transaction applies the same delta to its branch, teller and account,
    // so the three totals always agree.
    let branches = balance_total(&fresh, "branch", 1);
    let tellers = balance_total(&fresh, "teller", 2);
    let accounts = balance_total(&fresh, "account", 2);
    assert!(
        (branches - tellers).abs() < 1e-6 && (tellers - accounts).abs() < 1e-6,
        "{}: cut {cut:?} broke balance consistency: {branches} {tellers} {accounts}",
        kind.label()
    );
}

#[test]
fn any_log_prefix_recovers_exactly_the_commits_inside_it() {
    for kind in EngineKind::ALL {
        let db = run_workload(kind, 0xC0FFEE + kind as u64, None);
        let log = db.log_manager();
        let records = log.records_snapshot();
        assert!(!records.is_empty(), "{}: workload must log", kind.label());
        let full = Lsn(log.len() as u64);

        // Structural no-torn-transactions invariant: a transaction's commit
        // record is its highest LSN, so cut membership of the commit record
        // implies cut membership of every data record.
        let commit_lsn: HashMap<TxnId, Lsn> = records
            .iter()
            .filter(|record| matches!(record.kind, LogRecordKind::Commit { .. }))
            .map(|record| (record.txn, record.lsn))
            .collect();
        for record in &records {
            if let Some(&commit) = commit_lsn.get(&record.txn) {
                assert!(
                    record.lsn <= commit,
                    "{}: record {:?} of {} past its commit record {commit:?}",
                    kind.label(),
                    record.lsn,
                    record.txn,
                );
            }
        }
        assert!(
            commit_lsn.len() >= TXNS / 2,
            "{}: too few commit records ({})",
            kind.label(),
            commit_lsn.len()
        );

        // Structured probes: nothing flushed, everything flushed, and a cut
        // right at and right below a sample of commit records — the record
        // decides its transaction.
        check_cut(kind, &db, Lsn(0));
        check_cut(kind, &db, full);
        let mut commits: Vec<Lsn> = commit_lsn.values().copied().collect();
        commits.sort_unstable();
        for &commit in commits.iter().step_by(10) {
            check_cut(kind, &db, commit);
            check_cut(kind, &db, Lsn(commit.0 - 1));
        }

        // Arbitrary crash points.
        let mut rng = SmallRng::seed_from_u64(0xBAD5EED ^ kind as u64);
        for _ in 0..24 {
            check_cut(kind, &db, Lsn(rng.random_range(0..=full.0)));
        }

        // Replaying the full log and `recover_into` both rebuild the live
        // database, which is quiesced and durable.
        let via_prefix = fresh_replica();
        db.recover_prefix_into(&via_prefix, full).unwrap();
        assert_same_rows(&db, &via_prefix, &format!("{}: full cut", kind.label()));
        let via_full = fresh_replica();
        db.recover_into(&via_full).unwrap();
        assert_same_rows(&db, &via_full, &format!("{}: recover_into", kind.label()));
    }
}

/// A checkpoint taken halfway reclaims the prefix it folds, so the first
/// half of the history exists only inside the checkpoint: recovery behind
/// any cut at or above the low-water mark must start from it, and a cut
/// below it asks for records that are gone — an error, not an empty
/// database.
#[test]
fn a_checkpointed_log_recovers_the_fenced_set_behind_every_cut_above_low_water() {
    for kind in EngineKind::ALL {
        let db = run_workload(kind, 0xFEED + kind as u64, Some(TXNS / 2));
        let log = db.log_manager();
        let checkpoint = log.checkpoint_snapshot().expect("a checkpoint was taken");
        assert!(
            checkpoint.row_count() > 0 && log.reclaimed_records() > 0,
            "{}: the checkpoint folded and reclaimed the first half",
            kind.label()
        );
        let low = checkpoint.low_water();
        let full = Lsn(log.len() as u64);

        let via_prefix = fresh_replica();
        db.recover_prefix_into(&via_prefix, full).unwrap();
        assert_same_rows(&db, &via_prefix, &format!("{}: full cut", kind.label()));
        let via_full = fresh_replica();
        db.recover_into(&via_full).unwrap();
        assert_same_rows(&db, &via_full, &format!("{}: recover_into", kind.label()));

        check_cut(kind, &db, low);
        check_cut(kind, &db, Lsn((low.0 + full.0) / 2));
        check_cut(kind, &db, full);
        let mut rng = SmallRng::seed_from_u64(0x10_3A7E ^ kind as u64);
        for _ in 0..16 {
            check_cut(kind, &db, Lsn(rng.random_range(low.0..=full.0)));
        }

        assert!(low.0 > 0, "{}: nothing was reclaimed", kind.label());
        let below = Lsn(low.0 - 1);
        let result = db.recover_prefix_into(&fresh_replica(), below);
        assert!(
            matches!(result, Err(DbError::InvalidOperation(_))),
            "{}: cut {below:?} below the low-water mark {low:?} gave {result:?}",
            kind.label()
        );
    }
}
