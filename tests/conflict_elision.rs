//! Soundness tests for the bind-time conflict analysis and the lock-probe
//! elision it drives:
//!
//! 1. the solver's route-disjointness verdict is checked against brute
//!    force — randomized route templates that the solver declares disjoint
//!    must never instantiate to overlapping keys, under any parameter
//!    assignment;
//! 2. the matrices derived from the real workloads' plans prove exactly the
//!    steps the analysis should prove (TM1's read mix, TPC-C's item/customer
//!    reads), and never a writer;
//! 3. a full run under contention with elision off and on leaves identical
//!    table contents, while the elided run demonstrably skips probes
//!    (`LockProbesElided` > 0, fewer `DoraLocalLock` acquisitions).

use std::collections::HashMap;
use std::sync::Arc;

use dora_repro::common::prelude::*;
use dora_repro::dora::{
    routes_may_overlap, ConflictMatrix, DoraConfig, DoraEngine, KeyAtom, OnMissing, Param, Params,
    Step, TxnProgram,
};
use dora_repro::metrics::{global, CounterKind};
use dora_repro::storage::{ColumnDef, Database, TableSchema};
use dora_repro::workloads::{Tm1, Tpcc, Workload};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Builds a random route template: constants from a tiny domain (collisions
/// likely), parameters from a small shared name pool, and the occasional
/// `Unique` atom (an inserted key containing a fresh txn-unique component).
fn random_route(rng: &mut SmallRng) -> Vec<KeyAtom> {
    let len = rng.random_range(1..=3usize);
    (0..len)
        .map(|_| match rng.random_range(0..100u32) {
            0..=49 => KeyAtom::Const(Value::Int(rng.random_range(0..4u32) as i64)),
            50..=84 => KeyAtom::Param(["p0", "p1", "p2"][rng.random_range(0..3u32) as usize]),
            _ => KeyAtom::Unique,
        })
        .collect()
}

/// Instantiates a route template to a concrete key. Each parameter binds
/// once per instantiation (a program binds each input once); `Unique` atoms
/// draw from a monotonically increasing counter no other instantiation can
/// ever produce.
fn instantiate(route: &[KeyAtom], rng: &mut SmallRng, unique: &mut i64) -> Key {
    let mut params: HashMap<&'static str, i64> = HashMap::new();
    Key::from_values(route.iter().map(|atom| match atom {
        KeyAtom::Const(value) => value.clone(),
        KeyAtom::Param(name) => {
            let v = *params
                .entry(name)
                .or_insert_with(|| rng.random_range(0..4u32) as i64);
            Value::Int(v)
        }
        KeyAtom::Unique => {
            *unique += 1;
            Value::Int(1_000_000 + *unique)
        }
    }))
}

#[test]
fn disjoint_route_verdicts_survive_brute_force() {
    let mut rng = SmallRng::seed_from_u64(0xC0F1);
    let mut unique = 0i64;
    let mut disjoint_pairs = 0u32;
    for _ in 0..500 {
        let a = random_route(&mut rng);
        let b = random_route(&mut rng);
        if routes_may_overlap(&a, &b) {
            continue; // "may overlap" is allowed to be conservative
        }
        disjoint_pairs += 1;
        // The solver says these can never cover the same records: no
        // parameter assignment may produce prefix-overlapping keys.
        for _ in 0..50 {
            let ka = instantiate(&a, &mut rng, &mut unique);
            let kb = instantiate(&b, &mut rng, &mut unique);
            assert!(
                !ka.overlaps(&kb),
                "solver called {a:?} and {b:?} disjoint, but {ka:?} overlaps {kb:?}"
            );
        }
    }
    assert!(
        disjoint_pairs > 20,
        "only {disjoint_pairs} disjoint pairs generated — the check is vacuous"
    );
}

#[test]
fn tm1_matrix_proves_the_read_mix_safe_and_only_it() {
    let db = Database::for_tests();
    let tm1 = Tm1::new(200);
    tm1.setup(&db).unwrap();
    let plans = tm1.plans(&db).unwrap();
    let matrix =
        ConflictMatrix::analyze(&plans, DoraConfig::default().serialize_abort_threshold).unwrap();

    // The read-dominated bulk of the mix is provably safe: GetSubscriberData
    // and GetAccessData touch tables nothing writes in conflict with them,
    // and the facility probes read columns the updater does not write.
    for (program, label) in [
        (Tm1::GET_SUBSCRIBER_DATA, "get-subscriber"),
        (Tm1::GET_NEW_DESTINATION, "probe-facility"),
        (Tm1::GET_ACCESS_DATA, "get-access-data"),
        (Tm1::INSERT_CALL_FORWARDING, "probe-facility"),
    ] {
        assert!(
            matrix.is_probe_free(program, label),
            "{program}/{label} should be probe-free"
        );
    }
    // Writers and anything racing the forwarding inserts/deletes keep their
    // probes.
    for (program, label) in [
        (Tm1::UPDATE_SUBSCRIBER_DATA, "update-subscriber"),
        (Tm1::UPDATE_SUBSCRIBER_DATA, "update-facility"),
        (Tm1::UPDATE_LOCATION, "update-location"),
        (Tm1::GET_NEW_DESTINATION, "probe-forwarding"),
        (Tm1::INSERT_CALL_FORWARDING, "insert-forwarding"),
        (Tm1::DELETE_CALL_FORWARDING, "delete-forwarding"),
    ] {
        assert!(
            !matrix.is_probe_free(program, label),
            "{program}/{label} must keep its probe"
        );
    }
    // UpdateSubscriberData (two conflicted writes, high abort rate) is the
    // Figure 11 candidate the analysis auto-derives as a serialized plan.
    // Other programs may or may not cross the threshold — what matters is
    // that pure reads never do.
    assert!(matrix.should_serialize(Tm1::UPDATE_SUBSCRIBER_DATA));
    assert!(!matrix.should_serialize(Tm1::GET_SUBSCRIBER_DATA));
    assert!(!matrix.should_serialize(Tm1::GET_ACCESS_DATA));
    // An infinite threshold keeps every plan as authored, which is how
    // Figure 11 runs its hand-picked parallel DORA-P plan.
    let hand_picked = ConflictMatrix::analyze(&plans, f64::INFINITY).unwrap();
    assert!(!hand_picked.should_serialize(Tm1::UPDATE_SUBSCRIBER_DATA));
    // UpdateLocation's sub_nbr resolution is a declared secondary: the
    // coverage report must name it instead of warning at runtime.
    assert!(
        matrix
            .coverage_gaps()
            .iter()
            .any(|gap| gap.program == Tm1::UPDATE_LOCATION && gap.declared),
        "declared secondary missing from the coverage report: {:?}",
        matrix.coverage_gaps()
    );
}

#[test]
fn tpcc_matrix_dismisses_reads_but_not_stock() {
    let db = Database::for_tests();
    let tpcc = Tpcc::new(2);
    tpcc.setup(&db).unwrap();
    let plans = tpcc.plans(&db).unwrap();
    let matrix =
        ConflictMatrix::analyze(&plans, DoraConfig::default().serialize_abort_threshold).unwrap();

    for (program, label) in [
        (Tpcc::NEW_ORDER, "neworder-customer"),
        (Tpcc::NEW_ORDER, "neworder-item"),
        (Tpcc::PAYMENT, "payment-history"),
        (Tpcc::ORDER_STATUS, "orderstatus-customer"),
    ] {
        assert!(
            matrix.is_probe_free(program, label),
            "{program}/{label} should be probe-free"
        );
    }
    // StockLevel reads s_quantity, which NewOrder writes — the solver must
    // NOT dismiss it. Same for the customer/district/warehouse writers.
    for (program, label) in [
        (Tpcc::STOCK_LEVEL, "stocklevel-stock"),
        (Tpcc::NEW_ORDER, "neworder-stock"),
        (Tpcc::PAYMENT, "payment-customer"),
        (Tpcc::PAYMENT, "payment-warehouse"),
        (Tpcc::DELIVERY, "delivery-customer"),
    ] {
        assert!(
            !matrix.is_probe_free(program, label),
            "{program}/{label} must keep its probe"
        );
    }
    // TPC-C abort rates are tiny; no program crosses the serialization
    // threshold.
    for program in [
        Tpcc::NEW_ORDER,
        Tpcc::PAYMENT,
        Tpcc::ORDER_STATUS,
        Tpcc::DELIVERY,
        Tpcc::STOCK_LEVEL,
    ] {
        assert!(
            !matrix.should_serialize(program),
            "{program} should stay parallel"
        );
    }
}

const KEYS: i64 = 16;
const THREADS: usize = 4;
const TXNS_PER_THREAD: i64 = 60;

fn mini_db() -> (Arc<Database>, TableId) {
    let db = Database::for_tests();
    let table = db
        .create_table(TableSchema::new(
            "counters",
            vec![
                ColumnDef::new("id", ValueType::Int),
                ColumnDef::new("a", ValueType::Int),
                ColumnDef::new("b", ValueType::Int),
            ],
            vec![0],
        ))
        .unwrap();
    for id in 1..=KEYS {
        db.load_row(table, vec![Value::Int(id), Value::Int(0), Value::Int(id)])
            .unwrap();
    }
    (db, table)
}

const ID: Param = Param::new(0, "id");

/// Bumps column `a` of one counter.
fn writer_plan(table: TableId) -> TxnProgram {
    TxnProgram::new("mini-writer").step(
        Step::update(
            "bump-a",
            table,
            ID,
            ID,
            OnMissing::Abort("missing"),
            |_ctx, row| {
                let n = row[1].as_int()?;
                row[1] = Value::Int(n + 1);
                Ok(())
            },
        )
        .writes([1]),
    )
}

/// Reads column `b` of one counter.
fn reader_plan(table: TableId) -> TxnProgram {
    TxnProgram::new("mini-reader").step(
        Step::read(
            "read-b",
            table,
            ID,
            ID,
            OnMissing::Abort("missing"),
            |_ctx, row| {
                let _ = row[2].as_int()?;
                Ok(())
            },
        )
        .reads([2]),
    )
}

fn writer_program(table: TableId, key: i64) -> TxnProgram {
    writer_plan(table).bind(Params::of([key]))
}

fn reader_program(table: TableId, key: i64) -> TxnProgram {
    reader_plan(table).bind(Params::of([key]))
}

fn mini_matrix(table: TableId) -> ConflictMatrix {
    ConflictMatrix::analyze(&[writer_plan(table), reader_plan(table)], 0.1).unwrap()
}

fn table_contents(db: &Database, table: TableId) -> Vec<(i64, i64, i64)> {
    let txn = db.begin();
    let mut rows = Vec::new();
    db.scan_table(&txn, table, CcMode::Full, |_, row| {
        rows.push((
            row[0].as_int().unwrap(),
            row[1].as_int().unwrap(),
            row[2].as_int().unwrap(),
        ));
    })
    .unwrap();
    db.commit(&txn).unwrap();
    rows.sort_unstable();
    rows
}

/// Runs the contended mini-workload and returns the final table plus the
/// measured (local-lock acquisitions, elided probes) deltas.
fn run_contended(elide: bool) -> (Vec<(i64, i64, i64)>, u64, u64) {
    let (db, table) = mini_db();
    let engine = Arc::new(DoraEngine::new(Arc::clone(&db), DoraConfig::for_tests()));
    engine.bind_table(table, 2, 1, KEYS).unwrap();
    let matrix = Arc::new(mini_matrix(table));
    assert!(matrix.is_probe_free("mini-reader", "read-b"));
    assert!(!matrix.is_probe_free("mini-writer", "bump-a"));

    let before = global().snapshot();
    let handles: Vec<_> = (0..THREADS)
        .map(|thread| {
            let engine = Arc::clone(&engine);
            let matrix = Arc::clone(&matrix);
            std::thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0x5EED + thread as u64);
                for i in 0..TXNS_PER_THREAD {
                    // Deliberately overlapping keys across threads: readers
                    // race writers on the same records.
                    let key = rng.random_range(1..=KEYS as u64) as i64;
                    let program = if i % 2 == 0 {
                        writer_program(table, key)
                    } else {
                        reader_program(table, key)
                    };
                    let program = if elide {
                        program.with_conflicts(&matrix)
                    } else {
                        program
                    };
                    engine.execute(program.compile_dora()).unwrap();
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    let delta = global().snapshot().since(&before);
    engine.shutdown();
    (
        table_contents(&db, table),
        delta.counter(CounterKind::DoraLocalLock),
        delta.counter(CounterKind::LockProbesElided),
    )
}

/// The off and on runs happen sequentially inside ONE test so the
/// process-global counter deltas are attributable; this file's other tests
/// never execute an engine, so they cannot pollute the two windows.
#[test]
fn elision_preserves_results_under_contention() {
    let (rows_off, locks_off, elided_off) = run_contended(false);
    let (rows_on, locks_on, elided_on) = run_contended(true);

    assert_eq!(
        rows_off, rows_on,
        "elision changed the outcome of a contended run"
    );
    assert_eq!(elided_off, 0, "nothing may be elided with the matrix off");
    assert!(elided_on > 0, "the probe-free reader never skipped a probe");
    assert!(
        locks_on < locks_off,
        "elision must reduce local-lock acquisitions ({locks_on} vs {locks_off})"
    );
    // Half the transactions are probe-free readers: the elided run must
    // skip roughly that share (every reader, none of the writers).
    let total = (THREADS as i64 * TXNS_PER_THREAD) as u64;
    assert_eq!(
        elided_on,
        total / 2,
        "exactly the readers should skip probes"
    );
}
