//! The resource manager's dataset-resize protocol (Appendix A.2.1) exercised
//! while transactions keep flowing: routing-rule changes must never lose or
//! double-apply work.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

use dora_repro::common::prelude::*;
use dora_repro::dora::adaptive::balanced_rule;
use dora_repro::dora::{ActionSpec, FlowGraph, LocalMode};
use dora_repro::dora::{DoraConfig, DoraEngine, ResourceManager, RoutingRule};
use dora_repro::storage::{ColumnDef, Database, TableSchema};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn counters_db(rows: i64) -> (Arc<Database>, TableId) {
    let db = Database::for_tests();
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

fn bump(table: TableId, id: i64) -> FlowGraph {
    let mut graph = FlowGraph::new();
    graph.push(ActionSpec::new(
        "bump",
        table,
        Key::int(id),
        LocalMode::Exclusive,
        move |ctx| {
            ctx.db
                .update_primary(ctx.txn, table, &Key::int(id), CcMode::None, |row| {
                    let n = row[1].as_int()?;
                    row[1] = Value::Int(n + 1);
                    Ok(())
                })
        },
    ));
    graph
}

#[test]
fn rebalances_while_transactions_keep_running() {
    let rows = 200i64;
    let (db, table) = counters_db(rows);
    let engine = Arc::new(DoraEngine::new(Arc::clone(&db), DoraConfig::for_tests()));
    engine.bind_table(table, 4, 1, rows).unwrap();
    let manager = ResourceManager::new(DoraConfig::for_tests());

    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..4u64)
        .map(|seed| {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut count = 0u64;
                let mut value = seed;
                while !stop.load(Ordering::Relaxed) {
                    value = value.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let id = 1 + (value % rows as u64) as i64;
                    engine.execute(bump(table, id)).unwrap();
                    count += 1;
                }
                count
            })
        })
        .collect();

    // Swap the routing rule several times while the workers hammer the table.
    for boundaries in [
        vec![20, 40, 60],
        vec![50, 100, 150],
        vec![120, 160, 190],
        vec![50, 100, 150],
    ] {
        std::thread::sleep(std::time::Duration::from_millis(30));
        manager
            .rebalance(&engine, table, RoutingRule::Range { boundaries })
            .unwrap();
    }
    std::thread::sleep(std::time::Duration::from_millis(30));
    stop.store(true, Ordering::Relaxed);
    let total_executed: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
    assert!(total_executed > 0);

    // Every committed increment must be present exactly once: the sum of all
    // counters equals the number of executed transactions.
    let check = db.begin();
    let mut sum = 0i64;
    db.scan_table(&check, table, CcMode::Full, |_, row| {
        sum += row[1].as_int().unwrap();
    })
    .unwrap();
    db.commit(&check).unwrap();
    assert_eq!(
        sum as u64, total_executed,
        "no increment may be lost or applied twice across resizes"
    );
    engine.shutdown();
}

/// A resize started while dispatchers hold the executors' claims: the
/// `StartResize` messages land behind the claims, the dispatchers leave them
/// to the resident threads (they never consume a control message), and the
/// drain completes once the transactions the dispatchers were running are
/// done.
#[test]
fn resize_started_while_dispatchers_hold_claims_drains_and_finishes() {
    let rows = 100i64;
    let (db, table) = counters_db(rows);
    let engine = Arc::new(DoraEngine::new(Arc::clone(&db), DoraConfig::for_tests()));
    // Keys 1..=50 on executor 0, 51..=100 on executor 1.
    engine.bind_table(table, 2, 1, rows).unwrap();

    // Two dispatchers, each inside an action on its own executor, on its own
    // thread: both claims are held until the barrier opens.
    let inside = Arc::new(Barrier::new(3));
    let proceed = Arc::new(Barrier::new(3));
    let dispatchers: Vec<_> = [1i64, 60]
        .into_iter()
        .map(|id| {
            let engine = Arc::clone(&engine);
            let inside = Arc::clone(&inside);
            let proceed = Arc::clone(&proceed);
            std::thread::spawn(move || {
                let mut graph = FlowGraph::new();
                graph.push(ActionSpec::new(
                    "held",
                    table,
                    Key::int(id),
                    LocalMode::Exclusive,
                    move |ctx| {
                        inside.wait();
                        proceed.wait();
                        ctx.db
                            .update_primary(ctx.txn, table, &Key::int(id), CcMode::None, |row| {
                                row[1] = Value::Int(1);
                                Ok(())
                            })
                    },
                ));
                engine.execute(graph)
            })
        })
        .collect();
    inside.wait();

    let (done_tx, done_rx) = mpsc::channel();
    let resizer = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            let manager = ResourceManager::new(DoraConfig::for_tests());
            let result = manager.rebalance(
                &engine,
                table,
                RoutingRule::Range {
                    boundaries: vec![20],
                },
            );
            done_tx.send(result).unwrap();
        })
    };
    // Both `StartResize` messages are queued behind the claims.
    while engine.executor_queue_depths(table).unwrap() != [1, 1] {
        std::thread::yield_now();
    }
    assert!(
        done_rx.try_recv().is_err(),
        "the drain waits for the transactions in flight"
    );

    proceed.wait();
    done_rx
        .recv_timeout(Duration::from_secs(20))
        .expect("the resize finished")
        .unwrap();
    resizer.join().unwrap();
    for dispatcher in dispatchers {
        dispatcher.join().unwrap().unwrap();
    }
    // Key 30 moved to executor 1 with the new rule.
    engine.execute(bump(table, 30)).unwrap();
    assert_eq!(
        engine.routing().route(table, &Key::int(30)).unwrap(),
        Some(1)
    );
    engine.shutdown();
}

/// Resize control messages arriving *inside* a drained batch: the inboxes
/// are flooded with asynchronously submitted transactions so the executors
/// drain large batches, and several rebalances are issued back-to-back with
/// no settling time — each executor then finds `StartResize`/`FinishResize`
/// interleaved between actions of the same drain. The protocol must keep
/// the control messages' FIFO position relative to the actions: every
/// deferred action must be re-dispatched through the new rule exactly once.
#[test]
fn resize_messages_interleaved_inside_batches_stay_exact() {
    let rows = 120i64;
    let (db, table) = counters_db(rows);
    let engine = Arc::new(DoraEngine::new(Arc::clone(&db), DoraConfig::for_tests()));
    engine.bind_table(table, 4, 1, rows).unwrap();
    let manager = ResourceManager::new(DoraConfig::for_tests());

    let mut submitted = 0u64;
    let mut pending = Vec::new();
    let mut value = 0x7EA5u64;
    let mut flood = |engine: &DoraEngine, pending: &mut Vec<_>, submitted: &mut u64| {
        for _ in 0..150 {
            value = value.wrapping_mul(6364136223846793005).wrapping_add(1);
            let id = 1 + (value % rows as u64) as i64;
            pending.push(engine.submit(bump(table, id)).unwrap());
            *submitted += 1;
        }
    };

    // Flood, resize, flood, resize... with no sleeps: the StartResize /
    // FinishResize pairs land while hundreds of actions are still queued.
    for boundaries in [
        vec![10, 20, 30],
        vec![40, 80, 110],
        vec![30, 60, 90],
        vec![15, 95, 100],
    ] {
        flood(&engine, &mut pending, &mut submitted);
        manager
            .rebalance(&engine, table, RoutingRule::Range { boundaries })
            .unwrap();
    }
    flood(&engine, &mut pending, &mut submitted);
    for txn in pending {
        txn.wait().unwrap();
    }

    let check = db.begin();
    let mut sum = 0i64;
    db.scan_table(&check, table, CcMode::Full, |_, row| {
        sum += row[1].as_int().unwrap();
    })
    .unwrap();
    db.commit(&check).unwrap();
    assert_eq!(
        sum as u64, submitted,
        "a resize inside a drained batch lost or double-applied actions"
    );
    engine.shutdown();
}

/// The same exactly-once invariant, but with every new rule *synthesized by
/// the skew detector's rebalancer* from random load vectors — the split and
/// merge sequences the adaptive controller actually produces — instead of a
/// hand-picked boundary list.
#[test]
fn detector_synthesized_resizes_never_lose_or_double_apply() {
    let rows = 240i64;
    let executors = 4usize;
    let (db, table) = counters_db(rows);
    let engine = Arc::new(DoraEngine::new(Arc::clone(&db), DoraConfig::for_tests()));
    engine.bind_table(table, executors, 1, rows).unwrap();
    let manager = ResourceManager::new(DoraConfig::for_tests());

    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..4u64)
        .map(|seed| {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut count = 0u64;
                let mut value = 0x5EED ^ seed;
                while !stop.load(Ordering::Relaxed) {
                    value = value.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let id = 1 + (value % rows as u64) as i64;
                    engine.execute(bump(table, id)).unwrap();
                    count += 1;
                }
                count
            })
        })
        .collect();

    let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
    let mut applied = 0usize;
    for _ in 0..12 {
        std::thread::sleep(std::time::Duration::from_millis(15));
        let current = engine.routing().rule(table).unwrap();
        // Random skewed load vector: what a drifting hot spot would report.
        let hot = rng.random_range(0usize..executors);
        let loads: Vec<u64> = (0..executors)
            .map(|i| {
                if i == hot {
                    rng.random_range(2_000u64..20_000)
                } else {
                    rng.random_range(0u64..300)
                }
            })
            .collect();
        if let Some(rule) = balanced_rule(&current, &loads, (1, rows), 2) {
            manager.rebalance(&engine, table, rule).unwrap();
            applied += 1;
        }
    }
    assert!(
        applied >= 4,
        "expected several synthesized resizes to apply"
    );

    std::thread::sleep(std::time::Duration::from_millis(15));
    stop.store(true, Ordering::Relaxed);
    let total_executed: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();

    let check = db.begin();
    let mut sum = 0i64;
    db.scan_table(&check, table, CcMode::Full, |_, row| {
        sum += row[1].as_int().unwrap();
    })
    .unwrap();
    db.commit(&check).unwrap();
    assert_eq!(
        sum as u64, total_executed,
        "synthesized resize sequence lost or double-applied work"
    );
    engine.shutdown();
}
