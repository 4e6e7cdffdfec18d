//! Claimable executors: an executor is a role, held by whichever thread took
//! the claim — a dispatcher that found the inbox idle, or the executor's
//! resident thread. Whoever runs a batch must preserve per-source FIFO order
//! and exactly-once application; a claim must be released on every exit; the
//! resident thread must be woken exactly when nobody else will read a
//! message; control messages stay the resident thread's.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dora_repro::common::prelude::*;
use dora_repro::dora::{ActionSpec, DoraConfig, DoraEngine, DoraTxn, FlowGraph, LocalMode};
use dora_repro::metrics::{current_thread_snapshot, CounterKind};
use dora_repro::storage::{ColumnDef, Database, TableSchema};

fn counters_table(db: &Database, rows: i64) -> TableId {
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
    table
}

fn counters_db(rows: i64) -> (Arc<Database>, TableId) {
    let db = Database::for_tests();
    let table = counters_table(&db, rows);
    (db, table)
}

/// One action applying `f` to the counter at `id` after running `before`.
fn apply_spec(
    table: TableId,
    id: i64,
    before: impl FnOnce() + Send + 'static,
    f: impl Fn(i64) -> i64 + Send + 'static,
) -> ActionSpec {
    ActionSpec::new(
        "apply",
        table,
        Key::int(id),
        LocalMode::Exclusive,
        move |ctx| {
            before();
            ctx.db
                .update_primary(ctx.txn, table, &Key::int(id), CcMode::None, |row| {
                    let n = row[1].as_int()?;
                    row[1] = Value::Int(f(n));
                    Ok(())
                })
        },
    )
}

/// A single-action transaction applying `f` to the counter at `id`.
fn apply_graph(table: TableId, id: i64, f: impl Fn(i64) -> i64 + Send + 'static) -> FlowGraph {
    let mut graph = FlowGraph::new();
    graph.push(apply_spec(table, id, || {}, f));
    graph
}

fn counter_value(db: &Database, table: TableId, id: i64) -> i64 {
    let check = db.begin();
    let (_, row) = db
        .probe_primary(&check, table, &Key::int(id), false, CcMode::Full)
        .unwrap()
        .unwrap();
    let n = row[1].as_int().unwrap();
    db.commit(&check).unwrap();
    n
}

const DEADLINE: Duration = Duration::from_secs(20);

/// Waits for `txn` like [`DoraTxn::wait`], but fails instead of hanging when
/// the message that would finish it was never read.
fn wait_within_deadline(txn: &DoraTxn, what: &str) -> DbResult<()> {
    let start = Instant::now();
    while !txn.is_done() {
        assert!(start.elapsed() < DEADLINE, "{what}: never finished");
        std::thread::sleep(Duration::from_millis(1));
    }
    txn.wait()
}

/// Actions the calling thread executed / executed under a claim of its own,
/// since `mark`. Counters are per thread, so concurrently running tests do
/// not disturb these.
fn own_actions_since(mark: &dora_repro::metrics::Snapshot) -> (u64, u64) {
    let delta = current_thread_snapshot().since(mark);
    (
        delta.counter(CounterKind::ActionsExecuted),
        delta.counter(CounterKind::ActionsInlined),
    )
}

/// Exactly-once and per-source FIFO whoever runs the batch. Every client
/// folds non-commutative updates (`n -> 3n+c`, `n -> n+7`) into a counter of
/// its own, submitted without waiting, so the final value pins the exact
/// order its actions ran in; and every client bumps counters all clients
/// share, so the same keys are served under dispatcher-held and
/// resident-held claims alike and their sum pins exactly-once. One client
/// finds its executors idle every time; sixteen on a small host mostly find
/// them claimed.
#[test]
fn every_runner_preserves_fifo_and_exactly_once() {
    for clients in [1i64, 2, 16] {
        let shared_keys = 8i64;
        let rows = clients + shared_keys;
        let (db, table) = counters_db(rows);
        let engine = Arc::new(DoraEngine::new(Arc::clone(&db), DoraConfig::default()));
        engine.bind_table(table, 2, 1, rows).unwrap();

        let rounds = 120i64;
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || {
                    let mark = current_thread_snapshot();
                    let own = 1 + client;
                    let mut expected = 0i64;
                    let mut pending = Vec::new();
                    for round in 0..rounds {
                        let graph = if (round + client) % 2 == 0 {
                            expected = expected.wrapping_mul(3).wrapping_add(own);
                            apply_graph(table, own, move |n| n.wrapping_mul(3).wrapping_add(own))
                        } else {
                            expected = expected.wrapping_add(7);
                            apply_graph(table, own, |n| n.wrapping_add(7))
                        };
                        pending.push(engine.submit(graph).unwrap());
                        // A bounded window of folds in flight: each one parks
                        // behind its predecessor when the executor is busy,
                        // and every `Completed` retries all parked actions.
                        if pending.len() == 8 {
                            for txn in pending.drain(..) {
                                wait_within_deadline(&txn, "fold").unwrap();
                            }
                        }
                        let shared = clients + 1 + (round * 5 + client) % shared_keys;
                        engine
                            .execute(apply_graph(table, shared, |n| n + 1))
                            .expect("single-action txns cannot deadlock");
                    }
                    for txn in pending {
                        wait_within_deadline(&txn, "fold").unwrap();
                    }
                    (expected, own_actions_since(&mark))
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

        for (client, (expected, _)) in results.iter().enumerate() {
            assert_eq!(
                counter_value(&db, table, 1 + client as i64),
                *expected,
                "{clients} clients: a reordered batch would produce a different fold"
            );
        }
        let bumped: i64 = (clients + 1..=rows)
            .map(|id| counter_value(&db, table, id))
            .sum();
        assert_eq!(
            bumped,
            clients * rounds,
            "{clients} clients: work was lost or duplicated"
        );
        if clients == 1 {
            let (executed, inlined) = results[0].1;
            assert_eq!(executed, 2 * rounds as u64);
            assert_eq!(
                inlined, executed,
                "a lone client finds every executor idle and runs its own actions"
            );
        }
        engine.shutdown();
    }
}

/// An action pushed to a claimed inbox is run by the claim's holder, behind
/// what the holder already had: the pusher wakes nobody and runs nothing.
#[test]
fn a_claimed_executor_is_pushed_to_and_its_holder_runs_the_action() {
    let (db, table) = counters_db(4);
    let engine = Arc::new(DoraEngine::new(Arc::clone(&db), DoraConfig::default()));
    engine.bind_table(table, 1, 1, 4).unwrap();

    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let holder = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            let mark = current_thread_snapshot();
            let mut graph = FlowGraph::new();
            graph.push(apply_spec(
                table,
                1,
                move || {
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                },
                |n| n + 1,
            ));
            engine.execute(graph).unwrap();
            own_actions_since(&mark)
        })
    };
    entered_rx
        .recv_timeout(DEADLINE)
        .expect("holder runs inline");

    // The holder is inside its action, on its own thread, holding the claim.
    let mark = current_thread_snapshot();
    let queued = engine
        .submit(apply_graph(table, 2, |n| n + 10))
        .expect("submit only pushes");
    assert_eq!(own_actions_since(&mark), (0, 0), "the pusher runs nothing");
    assert!(!queued.is_done());

    release_tx.send(()).unwrap();
    wait_within_deadline(&queued, "queued action").unwrap();
    assert_eq!(
        holder.join().unwrap(),
        (2, 2),
        "the holder ran both actions under its claim"
    );
    assert_eq!(counter_value(&db, table, 1), 1);
    assert_eq!(counter_value(&db, table, 2), 10);
    engine.shutdown();
}

/// A panic in an action run by its dispatcher aborts that transaction only:
/// the claim is released, and the next transaction on the executor commits.
#[test]
fn a_panicking_inline_action_aborts_its_txn_and_releases_the_claim() {
    silence_injected_panics();
    let (db, table) = counters_db(4);
    let engine = DoraEngine::new(Arc::clone(&db), DoraConfig::default());
    engine.bind_table(table, 1, 1, 4).unwrap();

    let mark = current_thread_snapshot();
    let mut graph = FlowGraph::new();
    graph.push(apply_spec(
        table,
        1,
        || std::panic::panic_any(InjectedPanic),
        |n| n + 1,
    ));
    let panicked = engine.submit(graph).unwrap();
    assert!(wait_within_deadline(&panicked, "panicked txn").is_err());
    assert_eq!(
        own_actions_since(&mark),
        (1, 1),
        "the panic unwound through this thread"
    );

    let next = engine.submit(apply_graph(table, 1, |n| n + 1)).unwrap();
    wait_within_deadline(&next, "txn after the panic").unwrap();
    assert_eq!(
        counter_value(&db, table, 1),
        1,
        "rolled back, then one bump"
    );
    engine.shutdown();
}

/// A `Completed` normally wakes nobody (it is read at the executor's next
/// claim), but it must when an action is parked behind the finished
/// transaction's local lock: transaction T holds the lock on key 1 at an
/// executor nobody is running (T is busy at another one), W parks behind it,
/// and T's `Completed` then has to wake the resident thread, which retries W.
#[test]
fn a_lazy_completed_wakes_the_resident_thread_for_a_parked_waiter() {
    let (db, table) = counters_db(100);
    let engine = Arc::new(DoraEngine::new(Arc::clone(&db), DoraConfig::default()));
    // Keys 1..=50 on executor 0, 51..=100 on executor 1.
    engine.bind_table(table, 2, 1, 100).unwrap();

    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let holder = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            let mut graph = FlowGraph::new();
            // One phase, two executors: the dispatcher claims both, runs and
            // releases executor 0, then blocks inside executor 1's action.
            graph.push(apply_spec(
                table,
                1,
                || {},
                |n| n.wrapping_mul(3).wrapping_add(1),
            ));
            graph.push(apply_spec(
                table,
                90,
                move || {
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                },
                |n| n + 1,
            ));
            engine.execute(graph)
        })
    };
    entered_rx
        .recv_timeout(DEADLINE)
        .expect("T reaches its second action");

    // T holds key 1 at executor 0, whose claim it released. W's dispatcher
    // claims executor 0, parks W's action behind T and releases.
    let runner = Arc::new(Mutex::new(None));
    let mut graph = FlowGraph::new();
    {
        let runner = Arc::clone(&runner);
        graph.push(apply_spec(
            table,
            1,
            move || *runner.lock().unwrap() = std::thread::current().name().map(String::from),
            |n| n + 7,
        ));
    }
    let waiter = engine.submit(graph).unwrap();
    assert!(!waiter.is_done(), "W is parked behind T's local lock");
    assert!(runner.lock().unwrap().is_none());

    release_tx.send(()).unwrap();
    holder.join().unwrap().unwrap();
    wait_within_deadline(&waiter, "parked waiter").unwrap();
    assert_eq!(
        counter_value(&db, table, 1),
        8,
        "T's fold (0*3+1), then W's (+7)"
    );
    let runner = runner.lock().unwrap().clone().expect("W's action ran");
    assert!(
        runner.starts_with("dora-exec-"),
        "W was retried by the woken resident thread, not by `{runner}`"
    );
    engine.shutdown();
}

/// `shutdown()` while a dispatcher holds a claim: the `Shutdown` message is
/// pushed behind the claim, the dispatcher leaves it to the resident thread
/// (handing the inbox over with a wake), and every thread is joined.
#[test]
fn shutdown_with_a_claim_in_flight_joins_every_thread() {
    let (db, table) = counters_db(4);
    let engine = Arc::new(DoraEngine::new(Arc::clone(&db), DoraConfig::default()));
    engine.bind_table(table, 2, 1, 4).unwrap();

    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let holder = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            let mut graph = FlowGraph::new();
            graph.push(apply_spec(
                table,
                1,
                move || {
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                },
                |n| n + 1,
            ));
            engine.execute(graph)
        })
    };
    entered_rx
        .recv_timeout(DEADLINE)
        .expect("holder runs inline");

    let (joined_tx, joined_rx) = mpsc::channel();
    let stopper = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            engine.shutdown();
            joined_tx.send(()).unwrap();
        })
    };
    while !engine.is_shutting_down() {
        std::thread::yield_now();
    }
    assert!(
        joined_rx.recv_timeout(Duration::from_millis(50)).is_err(),
        "shutdown waits for the claim in flight"
    );
    release_tx.send(()).unwrap();
    joined_rx
        .recv_timeout(DEADLINE)
        .expect("shutdown joined every executor thread");
    stopper.join().unwrap();
    holder
        .join()
        .unwrap()
        .expect("the in-flight transaction commits");
    assert_eq!(counter_value(&db, table, 1), 1);
}

/// The batching counters stay consistent with the message counts: every
/// batch carries at least one message on both the producer and the consumer
/// side, so neither counter may outrun `DoraMessages`, whoever ran the
/// batch. (Exact deltas cannot be asserted here — the global metrics registry
/// is shared by concurrently running tests — but these inequalities hold
/// monotonically across every increment site.)
#[test]
fn batching_counters_never_outrun_messages() {
    let before = dora_repro::metrics::global().snapshot();
    let (db, table) = counters_db(16);
    let engine = DoraEngine::new(Arc::clone(&db), DoraConfig::default());
    engine.bind_table(table, 2, 1, 16).unwrap();
    let mut pending = Vec::new();
    for round in 0..64i64 {
        let id = 1 + (round % 16);
        pending.push(engine.submit(apply_graph(table, id, |n| n + 1)).unwrap());
    }
    for txn in pending {
        txn.wait().unwrap();
    }
    engine.shutdown();
    let delta = dora_repro::metrics::global().snapshot().since(&before);
    let messages = delta.counter(CounterKind::DoraMessages);
    let batches = delta.counter(CounterKind::DispatchBatches);
    let drains = delta.counter(CounterKind::InboxDrains);
    assert!(batches > 0, "dispatches must be counted as batches");
    assert!(drains > 0, "consumer drains must be counted");
    assert!(
        batches <= messages,
        "every producer batch carries >= 1 message ({batches} batches, {messages} messages)"
    );
}
