//! Crash consistency under asynchronous group commit with early lock
//! release on a *partitioned* log: replaying any combination of per-stream
//! torn prefixes yields exactly the maximal commit-sequence-dense prefix of
//! fully fenced transactions — no torn transactions, no ELR ghosts.
//!
//! Three failure shapes must be impossible behind every set of per-stream
//! flush horizons:
//!
//! * **Torn transactions** — a replayed transaction missing some of its data
//!   records. Impossible because a commit fence is appended to a stream only
//!   after all of the transaction's data records on that stream, and a
//!   transaction replays only when *every* touched stream holds its fence.
//! * **ELR ghosts** — effects of a transaction whose locks were released
//!   early but whose fences missed the prefixes. Impossible because recovery
//!   replays only fully fenced transactions.
//! * **Dependency inversions** — a dependent transaction surviving a crash
//!   that tore the transaction it read from (its after-images embed the
//!   writer's effects). Impossible because the commit sequence is assigned
//!   while locks are held, so a dependent always carries a higher sequence
//!   number, and recovery stops at the first gap in the fenced sequence.
//!
//! Exercised for both execution engines with group commit, ELR and multiple
//! log streams enabled, on a log that was never checkpointed and on one whose
//! checkpoint moved the history below its low-water marks out of the log:
//! there every cut at or above those marks recovers the fenced set, the
//! whole log recovers the live database, and a cut below them is refused.

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
const STREAMS: usize = 3;
const TPCB_TABLES: [&str; 4] = ["branch", "teller", "account", "history_b"];

fn async_elr_config() -> SystemConfig {
    SystemConfig {
        // A small simulated device latency so groups actually form and
        // commits genuinely spend time in the not-yet-durable window.
        log_flush_micros: 20,
        durability: DurabilityConfig {
            early_lock_release: true,
            ..DurabilityConfig::default()
        }
        .with_log_streams(STREAMS),
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

/// The test's own account of what recovery behind `cuts` must rebuild,
/// independent of the recovery code: commit sequences `1..=horizon`, the
/// horizon starting at the checkpoint's and extended over every sequence
/// whose fences all lie in the checkpoint's carried records or inside the
/// cuts, up to the first gap.
fn fenced_horizon(db: &Database, cuts: &[Lsn]) -> u64 {
    let log = db.log_manager();
    let checkpoint = log.checkpoint_snapshot();
    let mut records = checkpoint
        .as_ref()
        .map_or_else(Vec::new, |checkpoint| checkpoint.pending().to_vec());
    for (retained, &cut) in log.records_snapshot().into_iter().zip(cuts) {
        records.extend(retained.into_iter().filter(|record| record.lsn <= cut));
    }
    let mut fences: HashMap<TxnId, (u64, usize, usize)> = HashMap::new();
    for record in &records {
        if let LogRecordKind::Commit { seq, streams } = &record.kind {
            fences
                .entry(record.txn)
                .or_insert((*seq, streams.len(), 0))
                .2 += 1;
        }
    }
    let mut fenced: Vec<u64> = fences
        .values()
        .filter(|(_, required, seen)| seen >= required)
        .map(|&(seq, _, _)| seq)
        .collect();
    fenced.sort_unstable();
    let mut horizon = checkpoint.map_or(0, |checkpoint| checkpoint.seq_horizon());
    for seq in fenced {
        if seq == horizon + 1 {
            horizon = seq;
        } else if seq > horizon + 1 {
            break;
        }
    }
    horizon
}

/// Replays the log up to the per-stream cuts into a fresh replica and checks
/// the two crash invariants: the replayed transaction set is the fenced set
/// inside the cuts (one history row per TPC-B transaction), and money is
/// conserved across branches/tellers/accounts.
fn check_cuts(kind: EngineKind, db: &Database, cuts: &[Lsn]) {
    let fresh = fresh_replica();
    db.recover_prefixes_into(&fresh, cuts).unwrap();

    let history = fresh.table_id("history_b").unwrap();
    assert_eq!(
        fresh.row_count(history).unwrap() as u64,
        fenced_horizon(db, cuts),
        "{}: cuts {cuts:?} replayed a torn or ghost transaction",
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
        "{}: cuts {cuts:?} broke balance consistency: {branches} {tellers} {accounts}",
        kind.label()
    );
}

#[test]
fn any_torn_multi_stream_prefix_recovers_exactly_the_fenced_set() {
    for kind in EngineKind::ALL {
        let db = run_workload(kind, 0xC0FFEE + kind as u64, None);
        let log = db.log_manager();
        let streams = log.records_snapshot();
        assert_eq!(streams.len(), STREAMS);
        assert!(!log.is_empty(), "{}: workload must log", kind.label());
        let lens: Vec<u64> = streams.iter().map(|s| s.len() as u64).collect();
        if kind == EngineKind::Dora {
            assert!(
                streams.iter().filter(|s| !s.is_empty()).count() > 1,
                "{}: executors must spread appends over several streams, got {lens:?}",
                kind.label()
            );
        }

        // Structural no-torn-transactions invariant, per stream: a
        // transaction's commit fence on a stream is its highest LSN there,
        // so cut membership of the fence implies cut membership of every
        // data record on that stream.
        let mut fences = 0usize;
        for records in &streams {
            let fence_lsn: HashMap<TxnId, Lsn> = records
                .iter()
                .filter(|r| matches!(r.kind, LogRecordKind::Commit { .. }))
                .map(|r| (r.txn, r.lsn))
                .collect();
            fences += fence_lsn.len();
            for record in records {
                if let Some(&fence) = fence_lsn.get(&record.txn) {
                    assert!(
                        record.lsn <= fence,
                        "{}: record {:?} of {} past its fence {:?}",
                        kind.label(),
                        record.lsn,
                        record.txn,
                        fence
                    );
                }
            }
        }
        assert!(
            fences >= TXNS / 2,
            "{}: too few commit fences recorded ({fences})",
            kind.label()
        );

        // Structured probes: nothing flushed, everything flushed, and every
        // single-stream-torn shape (one stream cut to zero / to half, the
        // rest intact) — the crashes that expose cross-stream tearing.
        let full: Vec<Lsn> = lens.iter().map(|&n| Lsn(n)).collect();
        check_cuts(kind, &db, &[Lsn(0); STREAMS]);
        check_cuts(kind, &db, &full);
        for victim in 0..STREAMS {
            for fraction in [0u64, 2, 3] {
                let mut cuts = full.clone();
                cuts[victim] = Lsn(lens[victim].checked_div(fraction).unwrap_or(0));
                check_cuts(kind, &db, &cuts);
            }
        }

        // Arbitrary torn prefixes: every stream cut independently at random.
        let mut rng = SmallRng::seed_from_u64(0xBAD5EED ^ kind as u64);
        for _ in 0..24 {
            let cuts: Vec<Lsn> = lens.iter().map(|&n| Lsn(rng.random_range(0..=n))).collect();
            check_cuts(kind, &db, &cuts);
        }

        // Replaying the full cuts and `recover_into` both rebuild the live
        // database, which is quiesced and durable.
        let via_prefix = fresh_replica();
        db.recover_prefixes_into(&via_prefix, &full).unwrap();
        assert_same_rows(&db, &via_prefix, &format!("{}: full cuts", kind.label()));
        let via_full = fresh_replica();
        db.recover_into(&via_full).unwrap();
        assert_same_rows(&db, &via_full, &format!("{}: recover_into", kind.label()));
    }
}

/// A checkpoint taken halfway reclaims the prefix it folds, so the first
/// half of the history exists only inside the checkpoint: recovery behind
/// any cut at or above the low-water marks must start from it, and a cut
/// below them asks for records that are gone — an error, not an empty
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
        let low = checkpoint.low_water().to_vec();
        let full = log.stream_lens();

        let via_prefix = fresh_replica();
        db.recover_prefixes_into(&via_prefix, &full).unwrap();
        assert_same_rows(&db, &via_prefix, &format!("{}: full cuts", kind.label()));
        let via_full = fresh_replica();
        db.recover_into(&via_full).unwrap();
        assert_same_rows(&db, &via_full, &format!("{}: recover_into", kind.label()));

        check_cuts(kind, &db, &low);
        check_cuts(kind, &db, &full);
        for victim in 0..STREAMS {
            for cut in [low[victim], Lsn((low[victim].0 + full[victim].0) / 2)] {
                let mut cuts = full.clone();
                cuts[victim] = cut;
                check_cuts(kind, &db, &cuts);
            }
        }
        let mut rng = SmallRng::seed_from_u64(0x10_3A7E ^ kind as u64);
        for _ in 0..16 {
            let cuts: Vec<Lsn> = low
                .iter()
                .zip(&full)
                .map(|(low, full)| Lsn(rng.random_range(low.0..=full.0)))
                .collect();
            check_cuts(kind, &db, &cuts);
        }

        let mut refused = 0;
        for victim in (0..STREAMS).filter(|&stream| low[stream].0 > 0) {
            let mut cuts = full.clone();
            cuts[victim] = Lsn(low[victim].0 - 1);
            let result = db.recover_prefixes_into(&fresh_replica(), &cuts);
            assert!(
                matches!(result, Err(DbError::InvalidOperation(_))),
                "{}: cuts {cuts:?} below the low-water marks {low:?} gave {result:?}",
                kind.label()
            );
            refused += 1;
        }
        assert!(refused > 0, "{}: no stream was reclaimed", kind.label());
    }
}
