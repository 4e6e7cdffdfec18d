//! Chaos property test: a seeded deterministic fault schedule — transient
//! log-device write errors, latency spikes, flusher stalls, injected
//! executor panics — drives both execution engines under concurrent load,
//! and the self-healing paths must keep every promise the clean system
//! makes:
//!
//! * **Exact accounting** — every submission resolves to exactly one
//!   [`SubmitOutcome`]; nothing hangs, nothing double-reports.
//! * **No torn transactions after a crash mid-chaos** — cutting the log at
//!   arbitrary points (a crash at any instant of the chaotic run) and
//!   replaying yields exactly the transactions whose commit record lies
//!   inside the cut, and money is conserved behind every cut.
//! * **Cross-engine convergence** — the same submission list, retried only
//!   through outcomes that are safe to resubmit, leaves Baseline and DORA
//!   with identical balance tables.
//!
//! The fault rates are chosen so that with the healing paths on (flusher
//! write retries, supervision, server-side abort retries) the log never
//! fails permanently — the schedule is a pure function of the seed,
//! so this holds on every run, not just probably.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

use dora_repro::common::prelude::*;
use dora_repro::dora::Params;
use dora_repro::server::{AdmissionConfig, RetryPolicy, Server, ServerConfig, SubmitOutcome};
use dora_repro::storage::{Database, LogRecordKind, Lsn};
use dora_repro::workloads::{TpcB, Workload};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const BRANCHES: i64 = 3;
const ACCOUNTS: i64 = 40;
const CLIENTS: usize = 4;
const TXNS_PER_CLIENT: usize = 60;

/// Moderate chaos with every self-healing path on. `max_write_retries` is
/// set high enough that the log surviving needs no luck: at a 5% error
/// rate, seventeen consecutive failing draws never appear in this seed's
/// schedule (and the schedule is deterministic).
fn chaos_config(seed: u64) -> SystemConfig {
    SystemConfig {
        log_flush_micros: 10,
        faults: FaultConfig {
            seed,
            device_error_rate: 0.05,
            device_spike_rate: 0.05,
            device_spike_micros: 200,
            flusher_stall_rate: 0.01,
            flusher_stall_micros: 500,
            executor_panic_rate: 0.02,
            max_write_retries: 16,
            retry_backoff_micros: 20,
        },
        ..SystemConfig::for_tests()
    }
}

fn open_server(db: &Arc<Database>, workload: &Arc<TpcB>, kind: EngineKind) -> Server {
    Server::open(
        Arc::clone(db),
        Arc::clone(workload) as Arc<dyn Workload>,
        ServerConfig::for_tests(kind)
            .with_admission(Some(AdmissionConfig {
                max_active: 4,
                max_queued: 8,
            }))
            .with_retry(RetryPolicy::retries(2)),
    )
    .expect("open server")
}

/// The TPC-B transfer, prepared once; each submission binds its own
/// `[branch, account, teller]` and amount.
fn account_update_statement(
    server: &Server,
    db: &Database,
    workload: &TpcB,
) -> dora_repro::server::Statement {
    let program = workload.account_update_program(db, 1, 1, 1, 0.0).unwrap();
    server.prepare(program).expect("prepare transfer")
}

fn transfer(branch: i64, account: i64, teller: i64, amount: f64) -> Params {
    Params::of([branch, account, teller]).with_float(amount)
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

fn assert_money_conserved(db: &Database, context: &str) {
    let branches = balance_total(db, "branch", 1);
    let tellers = balance_total(db, "teller", 2);
    let accounts = balance_total(db, "account", 2);
    assert!(
        (branches - tellers).abs() < 1e-6 && (tellers - accounts).abs() < 1e-6,
        "{context}: money not conserved: {branches} {tellers} {accounts}"
    );
}

/// A fresh database with the TPC-B schema and seed rows, ready for replay.
fn fresh_replica() -> Arc<Database> {
    // Faults off in the replica: recovery itself is not under test for
    // device errors here, only the surviving log's integrity.
    let fresh = Database::new(SystemConfig {
        faults: FaultConfig::default(),
        ..chaos_config(0)
    });
    let workload = TpcB::with_accounts(BRANCHES, ACCOUNTS);
    workload.create_schema(&fresh).unwrap();
    workload.load(&fresh).unwrap();
    fresh
}

/// Replays the log up to `cut` and checks the two crash invariants: the
/// replayed set equals the set of commit records inside the cut (one history
/// row per TPC-B transaction) and money is conserved.
fn check_cut(kind: EngineKind, db: &Database, cut: Lsn) {
    let fresh = fresh_replica();
    db.recover_prefix_into(&fresh, cut).unwrap();
    let history = fresh.table_id("history_b").unwrap();
    let committed = db
        .log_manager()
        .records_snapshot()
        .iter()
        .filter(|record| record.lsn <= cut && matches!(record.kind, LogRecordKind::Commit { .. }))
        .count();
    assert_eq!(
        fresh.row_count(history).unwrap(),
        committed,
        "{}: cut {cut:?} replayed a torn or ghost transaction, or lost a commit",
        kind.label()
    );
    assert_money_conserved(&fresh, &format!("{} cut {cut:?}", kind.label()));
}

#[test]
fn chaos_flood_accounts_exactly_and_any_crash_recovers_consistently() {
    silence_injected_panics();
    for kind in EngineKind::ALL {
        let db = Database::new(chaos_config(0xC4A0 + kind as u64));
        let workload = Arc::new(TpcB::with_accounts(BRANCHES, ACCOUNTS));
        workload.setup(&db).unwrap();
        let server = Arc::new(open_server(&db, &workload, kind));
        let statement = account_update_statement(&server, &db, &workload);

        // submitted, committed, aborted, gave-up, shed, timed-out, failed.
        let tally: Arc<[AtomicU64; 7]> = Arc::new(std::array::from_fn(|_| AtomicU64::new(0)));
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let server = Arc::clone(&server);
                let statement = statement.clone();
                let workload = Arc::clone(&workload);
                let tally = Arc::clone(&tally);
                thread::spawn(move || {
                    let session = server.session_with_window(1);
                    let mut rng = SmallRng::seed_from_u64(0x0DDB411 + client as u64);
                    for _ in 0..TXNS_PER_CLIENT {
                        let (branch, _, account, teller, amount) = workload.inputs(&mut rng);
                        let params = transfer(branch, account, teller, amount);
                        let outcome = session.execute_with(&statement, params);
                        tally[0].fetch_add(1, Ordering::Relaxed);
                        let bucket = match outcome {
                            SubmitOutcome::Committed => 1,
                            SubmitOutcome::Aborted => 2,
                            SubmitOutcome::GaveUp => 3,
                            SubmitOutcome::Shed => 4,
                            SubmitOutcome::TimedOut => 5,
                            SubmitOutcome::Failed => 6,
                        };
                        tally[bucket].fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        server.close();

        // Every submission accounted exactly once.
        let counts: Vec<u64> = tally.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        assert_eq!(
            counts[0],
            (CLIENTS * TXNS_PER_CLIENT) as u64,
            "{}: lost submissions",
            kind.label()
        );
        assert_eq!(
            counts[0],
            counts[1..].iter().sum::<u64>(),
            "{}: submitted != sum of outcomes ({counts:?})",
            kind.label()
        );
        assert!(counts[1] > 0, "{}: chaos drowned all commits", kind.label());
        // The healing config must never fail the log for good: no ghost
        // commits, ever (deterministic given the seed).
        assert_eq!(counts[6], 0, "{}: durability lost for good", kind.label());

        // The plan actually fired: the device error site drew and the
        // executor panic site drew (per-database plan, so no cross-test
        // interference).
        let faults = db.faults();
        assert!(
            faults.draws(FaultSite::DeviceWriteError) > 0,
            "{}: no device writes drew a fault decision",
            kind.label()
        );
        assert!(
            faults.draws(FaultSite::ExecutorPanic) > 0,
            "{}: no action drew a panic decision",
            kind.label()
        );

        // Live state is consistent despite aborts, panics and retries.
        assert_money_conserved(&db, kind.label());

        // Crash at any instant of the chaotic run: nothing flushed,
        // everything flushed, and a dozen random torn tails.
        let len = db.log_manager().len() as u64;
        check_cut(kind, &db, Lsn(0));
        check_cut(kind, &db, Lsn(len));
        let mut rng = SmallRng::seed_from_u64(0x70 + kind as u64);
        for _ in 0..12 {
            check_cut(kind, &db, Lsn(rng.random_range(0..=len)));
        }
    }
}

/// Balance column of every row of a TPC-B table, keyed by id.
fn balances_by_key(db: &Database, table: &str, column: usize) -> BTreeMap<i64, f64> {
    let id = db.table_id(table).unwrap();
    let txn = db.begin();
    let mut rows = BTreeMap::new();
    db.scan_table(&txn, id, CcMode::Full, |_, row| {
        rows.insert(row[0].as_int().unwrap(), row[column].as_float().unwrap());
    })
    .unwrap();
    db.commit(&txn).unwrap();
    rows
}

#[test]
fn both_engines_converge_to_identical_tables_under_the_same_fault_schedule() {
    silence_injected_panics();

    // One fixed submission list, drawn once.
    let spec = TpcB::with_accounts(BRANCHES, ACCOUNTS);
    let mut rng = SmallRng::seed_from_u64(0x5EED);
    let bindings: Vec<(i64, i64, i64, f64)> = (0..150)
        .map(|_| {
            let (branch, _, account, teller, amount) = spec.inputs(&mut rng);
            (branch, account, teller, amount)
        })
        .collect();

    // (account balances, teller balances, history row count) per engine.
    type EngineTables = (BTreeMap<i64, f64>, BTreeMap<i64, f64>, u64);
    let mut per_engine: Vec<EngineTables> = Vec::new();
    for kind in EngineKind::ALL {
        // Identical fault seed for both engines: same per-site schedules.
        let db = Database::new(chaos_config(0xD1CE));
        let workload = Arc::new(TpcB::with_accounts(BRANCHES, ACCOUNTS));
        workload.setup(&db).unwrap();
        let server = open_server(&db, &workload, kind);
        let statement = account_update_statement(&server, &db, &workload);
        let session = server.session();

        for &(branch, account, teller, amount) in &bindings {
            let params = transfer(branch, account, teller, amount);
            // Resubmit only through outcomes that never executed or rolled
            // back fully; a Failed (ghost commit) must never be re-run, and
            // must never occur under the healing config.
            let mut outcome = session.execute_with(&statement, params.clone());
            let mut attempts = 0;
            while !outcome.is_committed() {
                assert!(
                    outcome.is_safe_to_resubmit(),
                    "{}: unsafe outcome {outcome:?} for {params:?}",
                    kind.label()
                );
                attempts += 1;
                assert!(
                    attempts < 50,
                    "{}: {params:?} refuses to commit",
                    kind.label()
                );
                outcome = session.execute_with(&statement, params.clone());
            }
        }
        server.close();

        assert_money_conserved(&db, kind.label());
        let history = db.table_id("history_b").unwrap();
        per_engine.push((
            balances_by_key(&db, "account", 2),
            balances_by_key(&db, "teller", 2),
            db.row_count(history).unwrap() as u64,
        ));
    }

    let (baseline_accounts, baseline_tellers, baseline_history) = &per_engine[0];
    let (dora_accounts, dora_tellers, dora_history) = &per_engine[1];
    // Each binding committed exactly once on each engine, so the engines
    // must agree on every single balance (floating-point sums of the same
    // multiset of amounts; orders differ, magnitudes keep error below 1e-6).
    assert_eq!(baseline_history, dora_history, "history row counts differ");
    assert_eq!(*baseline_history, bindings.len() as u64);
    for (ours, theirs, table) in [
        (baseline_accounts, dora_accounts, "account"),
        (baseline_tellers, dora_tellers, "teller"),
    ] {
        assert_eq!(ours.len(), theirs.len(), "{table}: row sets differ");
        for (key, balance) in ours {
            let other = theirs.get(key).unwrap_or_else(|| {
                panic!("{table} row {key} missing under DORA");
            });
            assert!(
                (balance - other).abs() < 1e-6,
                "{table} row {key} diverged: {balance} vs {other}"
            );
        }
    }
}
