//! Cross-engine equivalence: every registered execution engine must produce
//! identical database states when fed the same deterministic transaction
//! stream — DORA (and any future architecture) changes *where* code runs,
//! never *what* it computes.
//!
//! The tests are table-driven over `EngineKind::ALL` through the unified
//! `ExecutionEngine` seam: registering a third engine automatically enrolls
//! it in both tests with no changes here.

use std::sync::Arc;

use dora_repro::common::prelude::*;
use dora_repro::dora::DoraConfig;
use dora_repro::engine::{build_engine_with, ExecutionEngine};
use dora_repro::storage::Database;
use dora_repro::workloads::{AnalyticalScan, TpcB, Tpcc, Workload, WorkloadStats};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn table_totals(db: &Database, table_name: &str, column: usize) -> f64 {
    let table = db.table_id(table_name).unwrap();
    let txn = db.begin();
    let mut total = 0.0;
    db.scan_table(&txn, table, CcMode::Full, |_, row| {
        total += row[column].as_float().unwrap_or(0.0);
    })
    .unwrap();
    db.commit(&txn).unwrap();
    total
}

/// Builds a fresh TPC-B database bound to the given engine kind.
fn prepared_tpcb(kind: EngineKind, branches: i64, accounts: i64) -> Arc<dyn ExecutionEngine> {
    let db = Database::for_tests();
    let workload: Arc<dyn Workload> = Arc::new(TpcB::with_accounts(branches, accounts));
    workload.setup(&db).unwrap();
    let engine = build_engine_with(kind, db, DoraConfig::for_tests());
    engine.bind(workload, 2).unwrap();
    engine
}

#[test]
fn tpcb_same_seed_same_state_across_all_engines() {
    // Run the identical deterministic stream through every registered engine
    // and compare each state against the first engine's.
    let mut reference: Option<(EngineKind, f64, f64, f64, usize)> = None;
    for kind in EngineKind::ALL {
        let engine = prepared_tpcb(kind, 4, 50);
        let mut rng = SmallRng::seed_from_u64(2024);
        for _ in 0..200 {
            engine.execute_one(&mut rng);
        }
        engine.shutdown();

        let db = engine.db();
        let branch = table_totals(db, "branch", 1);
        let teller = table_totals(db, "teller", 2);
        let account = table_totals(db, "account", 2);
        let history = db.row_count(db.table_id("history_b").unwrap()).unwrap();

        match &reference {
            None => reference = Some((kind, branch, teller, account, history)),
            Some((ref_kind, ref_branch, ref_teller, ref_account, ref_history)) => {
                let base = ref_kind.label();
                let this = kind.label();
                assert!(
                    (branch - ref_branch).abs() < 1e-6,
                    "branch totals diverged: {base} {ref_branch} vs {this} {branch}"
                );
                assert!(
                    (teller - ref_teller).abs() < 1e-6,
                    "teller totals diverged: {base} {ref_teller} vs {this} {teller}"
                );
                assert!(
                    (account - ref_account).abs() < 1e-6,
                    "account totals diverged: {base} {ref_account} vs {this} {account}"
                );
                assert_eq!(
                    history, *ref_history,
                    "{base} and {this} appended different history row counts"
                );
            }
        }
    }
}

/// Every row of `table_name`, sorted (heap order differs between engines).
fn sorted_rows(db: &Database, table_name: &str) -> Vec<Row> {
    let table = db.table_id(table_name).unwrap();
    let txn = db.begin();
    let mut rows = Vec::new();
    db.scan_table(&txn, table, CcMode::Full, |_, row| rows.push(row.clone()))
        .unwrap();
    db.commit(&txn).unwrap();
    rows.sort();
    rows
}

/// TPC-C consistency conditions 1 (W_YTD = Σ D_YTD) and 2 (D_NEXT_O_ID − 1
/// = max O_ID = max NO_O_ID of the district, the latter while it has any).
fn assert_tpcc_consistent(db: &Database, label: &str) {
    use std::collections::BTreeMap;
    let int = |value: &Value| value.as_int().unwrap();
    let mut district_ytd: BTreeMap<i64, f64> = BTreeMap::new();
    for row in sorted_rows(db, "district") {
        *district_ytd.entry(int(&row[0])).or_default() += row[3].as_float().unwrap();
    }
    for row in sorted_rows(db, "warehouse") {
        let (w, ytd) = (int(&row[0]), row[2].as_float().unwrap());
        assert!(
            (ytd - district_ytd[&w]).abs() < 1e-3,
            "{label}: condition 1 fails for warehouse {w}: {ytd} vs {}",
            district_ytd[&w]
        );
    }
    let max_per_district = |table: &str, column: usize| {
        let mut max: BTreeMap<(i64, i64), i64> = BTreeMap::new();
        for row in sorted_rows(db, table) {
            let slot = max.entry((int(&row[0]), int(&row[1]))).or_default();
            *slot = (*slot).max(int(&row[column]));
        }
        max
    };
    let max_order = max_per_district("orders", 2);
    let max_new_order = max_per_district("new_order", 2);
    for row in sorted_rows(db, "district") {
        let district = (int(&row[0]), int(&row[1]));
        let last = int(&row[4]) - 1;
        assert_eq!(
            max_order.get(&district),
            Some(&last),
            "{label}: condition 2 (orders) fails for {district:?}"
        );
        if let Some(max) = max_new_order.get(&district) {
            assert_eq!(
                *max, last,
                "{label}: condition 2 (new_order) fails for {district:?}"
            );
        }
    }
}

/// Delivery, OrderStatus and StockLevel find their rows with primary-key
/// range reads: under table `S` locks on the conventional engine, under an
/// executor's local lock on DORA. How rows are found must not change which
/// rows: the same seeded single-client mix leaves identical tables behind on
/// every engine (`history_c` aside — its key holds the engine's txn id).
#[test]
fn tpcc_same_seed_same_state_across_all_engines() {
    const TABLES: [&str; 6] = [
        "new_order",
        "orders",
        "order_line",
        "customer",
        "district",
        "stock",
    ];
    let mut reference: Option<(EngineKind, Vec<Vec<Row>>)> = None;
    for kind in EngineKind::ALL {
        let db = Database::for_tests();
        let workload: Arc<dyn Workload> = Arc::new(Tpcc::with_scale(2, 30, 100));
        workload.setup(&db).unwrap();
        let stats = WorkloadStats::for_workload(workload.as_ref());
        let engine = build_engine_with(kind, db, DoraConfig::for_tests());
        engine.bind(workload, 2).unwrap();
        let mut rng = SmallRng::seed_from_u64(2026);
        for _ in 0..2_000 {
            engine.execute_one_timed(&mut rng, &stats);
        }
        engine.shutdown();
        let label = kind.label();
        for txn_type in [Tpcc::DELIVERY, Tpcc::STOCK_LEVEL, Tpcc::ORDER_STATUS] {
            let counts = stats.outcome_counts(txn_type);
            assert!(
                counts.committed > 20 && counts.gave_up == 0,
                "{label}: {txn_type} {counts:?}"
            );
        }

        let db = engine.db();
        assert_tpcc_consistent(db, label);
        let state: Vec<Vec<Row>> = TABLES.iter().map(|table| sorted_rows(db, table)).collect();
        let delivered = state[1]
            .iter()
            .filter(|order| order[2].as_int().unwrap() > 30 && order[4] != Value::Int(0))
            .count();
        assert!(delivered > 0, "{label}: no new order was delivered");
        match &reference {
            None => reference = Some((kind, state)),
            Some((ref_kind, ref_state)) => {
                for ((table, rows), ref_rows) in TABLES.iter().zip(&state).zip(ref_state) {
                    assert!(
                        rows == ref_rows,
                        "{table} diverged: {} has {} rows, {label} {}",
                        ref_kind.label(),
                        ref_rows.len(),
                        rows.len()
                    );
                }
            }
        }
    }
}

/// The MVCC snapshot read path is an *execution* alternative, not a
/// semantic one: the same read-only program, over the same seeded state,
/// returns identical results whether it runs through the locked path or
/// against a snapshot — on every registered engine, and identically across
/// engines.
#[test]
fn snapshot_and_locked_paths_agree_on_read_only_programs() {
    fn assert_groups_match(
        context: &str,
        left: &std::collections::BTreeMap<i64, f64>,
        right: &std::collections::BTreeMap<i64, f64>,
    ) {
        assert_eq!(
            left.keys().collect::<Vec<_>>(),
            right.keys().collect::<Vec<_>>(),
            "{context}: different branch sets"
        );
        for (branch, total) in left {
            assert!(
                (total - right[branch]).abs() < 1e-6,
                "{context}: branch {branch} totals diverged: {total} vs {}",
                right[branch]
            );
        }
    }

    let mut reference: Option<(EngineKind, u64, std::collections::BTreeMap<i64, f64>)> = None;
    for kind in EngineKind::ALL {
        let engine = prepared_tpcb(kind, 4, 50);
        let mut rng = SmallRng::seed_from_u64(77);
        for _ in 0..150 {
            engine.execute_one(&mut rng);
        }
        let db = engine.db();
        let label = kind.label();

        let run = |snapshot_path: bool| {
            let sink = AnalyticalScan::sink();
            let program = AnalyticalScan::tpcb_branch_balances(db, Arc::clone(&sink)).unwrap();
            let prepared = engine.prepare(program).unwrap();
            assert!(prepared.is_read_only(), "{label}: scan must be read-only");
            let outcome = if snapshot_path {
                let snapshot = Arc::new(engine.snapshot());
                engine.execute_on_snapshot(&prepared, &snapshot).unwrap()
            } else {
                engine.execute_prepared_checked(&prepared).unwrap()
            };
            assert!(!outcome.is_failure(), "{label}: scan did not commit");
            let summary = sink.lock();
            (summary.rows_scanned, summary.group_totals.clone())
        };

        let (locked_rows, locked_groups) = run(false);
        let (snap_rows, snap_groups) = run(true);
        assert_eq!(
            locked_rows, snap_rows,
            "{label}: the two paths scanned different row counts"
        );
        assert_groups_match(
            &format!("{label}: locked vs snapshot path"),
            &locked_groups,
            &snap_groups,
        );

        engine.shutdown();
        match &reference {
            None => reference = Some((kind, snap_rows, snap_groups)),
            Some((ref_kind, ref_rows, ref_groups)) => {
                assert_eq!(
                    snap_rows,
                    *ref_rows,
                    "{} and {label} scanned different row counts",
                    ref_kind.label()
                );
                assert_groups_match(
                    &format!("{} vs {label}", ref_kind.label()),
                    ref_groups,
                    &snap_groups,
                );
            }
        }
    }
}

#[test]
fn concurrent_clients_keep_tpcb_consistent_on_every_engine() {
    // The shape the paper cares about: many concurrent clients, transactions
    // decomposed across executors (for DORA), no centralized locking for
    // probes and updates — yet the money invariant holds on every engine.
    for kind in EngineKind::ALL {
        let engine = prepared_tpcb(kind, 6, 40);
        let handles: Vec<_> = (0..6u64)
            .map(|seed| {
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(seed);
                    for _ in 0..80 {
                        engine.execute_one(&mut rng);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        engine.shutdown();

        let db = engine.db();
        let branch = table_totals(db, "branch", 1);
        let teller = table_totals(db, "teller", 2);
        let account = table_totals(db, "account", 2);
        let label = kind.label();
        assert!(
            (branch - teller).abs() < 1e-6,
            "{label}: branch {branch} != teller {teller}"
        );
        assert!(
            (branch - account).abs() < 1e-6,
            "{label}: branch {branch} != account {account}"
        );
    }
}
