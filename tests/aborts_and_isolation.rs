//! Abort handling and isolation across engines: high-abort-rate workloads
//! must leave consistent state, conflicting transactions must serialize, and
//! deadlock-prone access patterns must resolve without hanging.

use std::sync::Arc;

use dora_repro::common::prelude::*;
use dora_repro::dora::{DoraConfig, DoraEngine};
use dora_repro::engine::BaselineEngine;
use dora_repro::storage::Database;
use dora_repro::workloads::{Tm1, Tm1Mix, Workload};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Under the parallel UpdateSubscriberData plan, ~37.5% of transactions abort
/// after the Subscriber update has already been dispatched; every such abort
/// must be rolled back completely (bit_1 stays 0 unless the whole transaction
/// committed, in which case the facility update is present too).
#[test]
fn high_abort_rate_parallel_plan_keeps_tables_consistent() {
    let subscribers = 100;
    let db = Database::for_tests();
    let workload = Arc::new(
        Tm1::new(subscribers)
            .with_mix(Tm1Mix::UpdateSubscriberDataOnly)
            .with_serial_update_plan(false),
    );
    workload.setup(&db).unwrap();
    let engine = Arc::new(DoraEngine::new(Arc::clone(&db), DoraConfig::for_tests()));
    workload.bind_dora(&engine, 2).unwrap();

    let handles: Vec<_> = (0..4u64)
        .map(|seed| {
            let workload = Arc::clone(&workload);
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut committed = 0u64;
                let mut aborted = 0u64;
                for _ in 0..100 {
                    let program = workload.next_program(engine.db(), &mut rng).unwrap();
                    match engine.execute(program.compile_dora()) {
                        Ok(()) => committed += 1,
                        Err(_) => aborted += 1,
                    }
                }
                (committed, aborted)
            })
        })
        .collect();
    let (mut committed, mut aborted) = (0, 0);
    for handle in handles {
        let (c, a) = handle.join().unwrap();
        committed += c;
        aborted += a;
    }
    engine.shutdown();
    assert!(
        committed > 0,
        "some UpdateSubscriberData transactions must commit"
    );
    assert!(
        aborted > 0,
        "the workload is defined to abort for a large input fraction"
    );

    // Consistency: a subscriber whose bit_1 was flipped must belong to a
    // committed transaction, which also updated one of its facilities. We
    // can't know which facility, but updated subscribers must at least have
    // one facility (the abort case for missing facilities must have rolled
    // the bit flip back for subscribers without the chosen sf_type).
    let subscriber = db.table_id("subscriber").unwrap();
    let special_facility = db.table_id("special_facility").unwrap();
    let check = db.begin();
    let mut inconsistent = 0;
    for s_id in 1..=subscribers {
        let (_, sub) = db
            .probe_primary(&check, subscriber, &Key::int(s_id), false, CcMode::Full)
            .unwrap()
            .unwrap();
        if sub[2].as_int().unwrap() != 0 {
            // Subscriber was updated by some committed transaction: verify it
            // has at least one facility (otherwise every transaction on it
            // would have aborted).
            let mut facilities = 0;
            for sf_type in 1..=4 {
                if db
                    .probe_primary(
                        &check,
                        special_facility,
                        &Key::int2(s_id, sf_type),
                        false,
                        CcMode::Full,
                    )
                    .unwrap()
                    .is_some()
                {
                    facilities += 1;
                }
            }
            if facilities == 0 {
                inconsistent += 1;
            }
        }
    }
    db.commit(&check).unwrap();
    assert_eq!(
        inconsistent, 0,
        "bit flips must only survive for committable subscribers"
    );
}

/// The classic deadlock-prone pattern (two transactions updating the same two
/// records in opposite orders) must resolve via deadlock detection and
/// retries under the baseline engine, never hang, and preserve the final
/// invariant.
#[test]
fn baseline_deadlocks_are_detected_and_retried() {
    use dora_repro::storage::{ColumnDef, TableSchema};
    let db = Database::for_tests();
    let table = db
        .create_table(TableSchema::new(
            "pairs",
            vec![
                ColumnDef::new("id", ValueType::Int),
                ColumnDef::new("n", ValueType::Int),
            ],
            vec![0],
        ))
        .unwrap();
    db.load_row(table, vec![Value::Int(1), Value::Int(0)])
        .unwrap();
    db.load_row(table, vec![Value::Int(2), Value::Int(0)])
        .unwrap();
    let engine = BaselineEngine::new(Arc::clone(&db));

    let iterations = 60i64;
    let handles: Vec<_> = (0..2)
        .map(|direction| {
            let engine = engine.clone();
            std::thread::spawn(move || {
                for _ in 0..iterations {
                    let (first, second) = if direction == 0 { (1, 2) } else { (2, 1) };
                    let outcome = engine
                        .execute(|db, txn| {
                            db.update_primary(txn, table, &Key::int(first), CcMode::Full, |row| {
                                row[1] = Value::Int(row[1].as_int()? + 1);
                                Ok(())
                            })?;
                            db.update_primary(txn, table, &Key::int(second), CcMode::Full, |row| {
                                row[1] = Value::Int(row[1].as_int()? + 1);
                                Ok(())
                            })
                        })
                        .unwrap();
                    assert_ne!(
                        outcome,
                        TxnOutcome::Aborted,
                        "deadlock victims are retried, not surfaced as workload aborts"
                    );
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }

    let check = db.begin();
    let (_, a) = db
        .probe_primary(&check, table, &Key::int(1), false, CcMode::Full)
        .unwrap()
        .unwrap();
    let (_, b) = db
        .probe_primary(&check, table, &Key::int(2), false, CcMode::Full)
        .unwrap()
        .unwrap();
    db.commit(&check).unwrap();
    // Every committed transaction increments both rows once. Deadlock victims
    // are retried until they commit, so both counters equal 2 * iterations.
    assert_eq!(a[1], Value::Int(2 * iterations));
    assert_eq!(b[1], Value::Int(2 * iterations));
}
