//! Probe-free actions skip the executor: a step the bind-time conflict
//! matrix proved conflict-free is never routed, queued or claimed, and its
//! body runs on the thread that dispatches its phase, like a secondary
//! action. Every body — executor, secondary or probe-free — runs under the
//! same supervision, so a panic anywhere aborts only its transaction.
//!
//! Counters are read from the calling thread's own slot, so concurrently
//! running tests do not disturb them; every wait has a deadline, so a lost
//! wake-up fails instead of hanging.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use dora_repro::common::prelude::*;
use dora_repro::dora::{
    ActionSpec, DoraConfig, DoraEngine, DoraTxn, FlowGraph, LocalMode, ResourceManager, RoutingRule,
};
use dora_repro::metrics::{current_thread_snapshot, CounterKind, Snapshot};
use dora_repro::storage::{ColumnDef, Database, TableSchema};

const DEADLINE: Duration = Duration::from_secs(20);

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

/// A database of 100 counters on an engine with two executors: keys 1..=50
/// on executor 0, 51..=100 on executor 1.
fn two_executor_engine(config: SystemConfig) -> (Arc<Database>, TableId, Arc<DoraEngine>) {
    let db = Database::new(config);
    let table = counters_table(&db, 100);
    let engine = Arc::new(DoraEngine::new(Arc::clone(&db), DoraConfig::default()));
    engine.bind_table(table, 2, 1, 100).unwrap();
    (db, table, engine)
}

/// A probe-free read of the counter at `id`, as `TxnProgram::with_conflicts`
/// marks a step the matrix proved conflict-free. `on_run` runs first, on
/// whichever thread runs the body.
fn probe_free_read(table: TableId, id: i64, on_run: impl FnOnce() + Send + 'static) -> ActionSpec {
    let mut spec = ActionSpec::new("peek", table, Key::int(id), LocalMode::Shared, move |ctx| {
        on_run();
        ctx.db
            .probe_primary(ctx.txn, table, &Key::int(id), false, CcMode::None)?
            .map(|_| ())
            .ok_or(DbError::NotFound {
                table,
                detail: id.to_string(),
            })
    });
    spec.elide_probe = true;
    spec
}

/// A probing, exclusive `n += 1` of the counter at `id`; `before` runs
/// first.
fn bump_spec(table: TableId, id: i64, before: impl FnOnce() + Send + 'static) -> ActionSpec {
    ActionSpec::new(
        "bump",
        table,
        Key::int(id),
        LocalMode::Exclusive,
        move |ctx| {
            before();
            ctx.db
                .update_primary(ctx.txn, table, &Key::int(id), CcMode::None, |row| {
                    let n = row[1].as_int()?;
                    row[1] = Value::Int(n + 1);
                    Ok(())
                })
        },
    )
}

fn graph_of(actions: Vec<ActionSpec>) -> FlowGraph {
    FlowGraph::new().phase_with(actions)
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

/// Runs `client` on a thread of its own and returns its result, failing if
/// it does not return within the deadline (or panicked).
fn on_client<T: Send + 'static>(what: &str, client: impl FnOnce() -> T + Send + 'static) -> T {
    let (done_tx, done_rx) = mpsc::channel();
    let handle = std::thread::spawn(move || done_tx.send(client()).unwrap());
    let result = done_rx
        .recv_timeout(DEADLINE)
        .unwrap_or_else(|error| panic!("{what}: returned nothing in time ({error})"));
    handle.join().unwrap();
    result
}

fn wait_within_deadline(txn: &DoraTxn, what: &str) -> DbResult<()> {
    let start = Instant::now();
    while !txn.is_done() {
        assert!(start.elapsed() < DEADLINE, "{what}: never finished");
        std::thread::sleep(Duration::from_millis(1));
    }
    txn.wait()
}

fn own_counter_since(mark: &Snapshot, kind: CounterKind) -> u64 {
    current_thread_snapshot().since(mark).counter(kind)
}

/// A secondary body that panics is supervised like an executor's: the
/// phase's RVP still converges, so the transaction aborts (instead of the
/// panic unwinding into the client) and its routed sibling's local lock on
/// key 1 is released for the next transaction.
#[test]
fn a_panicking_secondary_body_aborts_its_txn_and_frees_its_siblings_lock() {
    silence_injected_panics();
    let (db, table, engine) = two_executor_engine(SystemConfig::for_tests());

    let first = {
        let engine = Arc::clone(&engine);
        on_client("the panicking transaction", move || {
            let mark = current_thread_snapshot();
            let outcome = engine.execute(graph_of(vec![
                bump_spec(table, 1, || {}),
                ActionSpec::secondary("boom", table, |_| std::panic::panic_any(InjectedPanic)),
            ]));
            (
                outcome,
                own_counter_since(&mark, CounterKind::ExecutorPanicsRecovered),
            )
        })
    };
    assert!(
        matches!(first.0, Err(DbError::TxnAborted { .. })),
        "{:?}",
        first.0
    );
    assert_eq!(first.1, 1, "the panic was caught once, on the dispatcher");

    let engine2 = Arc::clone(&engine);
    on_client("the next update of key 1", move || {
        engine2.execute(graph_of(vec![bump_spec(table, 1, || {})]))
    })
    .expect("key 1's local lock was released");
    assert_eq!(
        counter_value(&db, table, 1),
        1,
        "rolled back, then one bump"
    );
    engine.shutdown();
}

/// A probe-free body runs on the thread that dispatched its phase; no
/// executor serves it and nothing is sent for it.
#[test]
fn a_probe_free_body_runs_on_its_dispatcher_and_no_executor_serves_it() {
    let (_db, table, engine) = two_executor_engine(SystemConfig::for_tests());
    let before = engine.executor_loads(table).unwrap();

    let engine2 = Arc::clone(&engine);
    let (client, ran_on, counts) = on_client("probe-free transaction", move || {
        let ran_on = Arc::new(Mutex::new(Vec::<ThreadId>::new()));
        let record = |ran_on: &Arc<Mutex<Vec<ThreadId>>>| {
            let ran_on = Arc::clone(ran_on);
            move || ran_on.lock().unwrap().push(std::thread::current().id())
        };
        let mark = current_thread_snapshot();
        engine2
            .execute(graph_of(vec![
                probe_free_read(table, 10, record(&ran_on)),
                probe_free_read(table, 90, record(&ran_on)),
            ]))
            .unwrap();
        let counts = [
            CounterKind::ActionsExecuted,
            CounterKind::LockProbesElided,
            CounterKind::ActionsInlined,
            CounterKind::DoraMessages,
            CounterKind::DoraLocalLock,
        ]
        .map(|kind| own_counter_since(&mark, kind));
        let ran_on = ran_on.lock().unwrap().clone();
        (std::thread::current().id(), ran_on, counts)
    });
    assert_eq!(
        ran_on,
        vec![client, client],
        "both bodies ran on the client"
    );
    assert_eq!(
        counts,
        [2, 2, 0, 0, 0],
        "executed, elided, inlined under a claim, messages, local locks"
    );
    assert_eq!(
        engine.executor_loads(table).unwrap(),
        before,
        "no executor served a probe-free action"
    );
    engine.shutdown();
}

/// A phase of N probe-free reads and one probing update sends exactly two
/// messages: the update's action and its executor's `Completed`.
#[test]
fn probe_free_reads_beside_one_probing_update_send_two_messages() {
    const READS: i64 = 6;
    let (db, table, engine) = two_executor_engine(SystemConfig::for_tests());

    let engine2 = Arc::clone(&engine);
    let counts = on_client("one-phase transaction", move || {
        let mark = current_thread_snapshot();
        let mut actions: Vec<ActionSpec> = (0..READS)
            .map(|i| probe_free_read(table, 1 + i * 15, || {}))
            .collect();
        actions.push(bump_spec(table, 42, || {}));
        engine2.execute(graph_of(actions)).unwrap();
        [
            CounterKind::DoraMessages,
            CounterKind::ActionsExecuted,
            CounterKind::LockProbesElided,
            CounterKind::DoraLocalLock,
        ]
        .map(|kind| own_counter_since(&mark, kind))
    });
    assert_eq!(
        counts,
        [2, READS as u64 + 1, READS as u64, 1],
        "messages, actions, elided probes, local locks"
    );
    assert_eq!(counter_value(&db, table, 42), 1);
    engine.shutdown();
}

/// Two clients share executor 0 through a probe-free read of key 10 and
/// each update a key of its own on executor 1. Whoever holds an executor's
/// claim runs the actions pushed to it — but a probe-free body is never
/// pushed, so it never runs on the other client's thread.
#[test]
fn two_clients_never_run_each_others_probe_free_bodies() {
    const ROUNDS: i64 = 300;
    let (db, table, engine) = two_executor_engine(SystemConfig::for_tests());
    let foreign = Arc::new(AtomicU64::new(0));

    let (done_tx, done_rx) = mpsc::channel();
    let clients: Vec<_> = [60i64, 70]
        .into_iter()
        .map(|own_key| {
            let engine = Arc::clone(&engine);
            let foreign = Arc::clone(&foreign);
            let done_tx = done_tx.clone();
            std::thread::spawn(move || {
                let me = std::thread::current().id();
                for _ in 0..ROUNDS {
                    let foreign = Arc::clone(&foreign);
                    engine
                        .execute(graph_of(vec![
                            probe_free_read(table, 10, move || {
                                if std::thread::current().id() != me {
                                    foreign.fetch_add(1, Ordering::Relaxed);
                                }
                            }),
                            bump_spec(table, own_key, || {}),
                        ]))
                        .unwrap();
                }
                done_tx.send(()).unwrap();
            })
        })
        .collect();
    for _ in &clients {
        done_rx
            .recv_timeout(DEADLINE)
            .expect("both clients finish their rounds");
    }
    for client in clients {
        client.join().unwrap();
    }
    assert_eq!(
        foreign.load(Ordering::Relaxed),
        0,
        "a probe-free body ran on the other client's thread"
    );
    assert_eq!(counter_value(&db, table, 60), ROUNDS);
    assert_eq!(counter_value(&db, table, 70), ROUNDS);
    engine.shutdown();
}

/// While executor 0 drains for a resize, an action of a new transaction
/// that probes is deferred until the new rule is installed — but a
/// probe-free read of the same key runs at once, and the drain completes.
#[test]
fn a_probe_free_read_is_not_deferred_by_a_resize_drain() {
    let (db, table, engine) = two_executor_engine(SystemConfig::for_tests());

    // T holds key 1 at executor 0, whose claim its dispatcher released, and
    // blocks inside its action at executor 1.
    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let holder = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            engine.execute(graph_of(vec![
                bump_spec(table, 1, || {}),
                bump_spec(table, 60, move || {
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                }),
            ]))
        })
    };
    entered_rx
        .recv_timeout(DEADLINE)
        .expect("T reaches its second action");

    let (resized_tx, resized_rx) = mpsc::channel();
    let resizer = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            let result = ResourceManager::new(DoraConfig::default()).rebalance(
                &engine,
                table,
                RoutingRule::Range {
                    boundaries: vec![20],
                },
            );
            resized_tx.send(result).unwrap();
        })
    };
    // Executor 0's resident thread has read its `StartResize` (T's lock keeps
    // it draining); executor 1's waits behind T's claim.
    let start = Instant::now();
    while engine.executor_queue_depths(table).unwrap() != [0, 1] {
        assert!(start.elapsed() < DEADLINE, "the resize never started");
        std::thread::yield_now();
    }

    let deferred = engine
        .submit(graph_of(vec![bump_spec(table, 10, || {})]))
        .unwrap();
    let engine2 = Arc::clone(&engine);
    on_client("probe-free read during the drain", move || {
        engine2.execute(graph_of(vec![probe_free_read(table, 10, || {})]))
    })
    .expect("the probe-free read commits during the drain");
    assert!(!deferred.is_done(), "the probing update is deferred");
    assert!(
        resized_rx.try_recv().is_err(),
        "the drain is still waiting for T"
    );

    release_tx.send(()).unwrap();
    holder.join().unwrap().unwrap();
    resized_rx
        .recv_timeout(DEADLINE)
        .expect("the drain completed")
        .unwrap();
    resizer.join().unwrap();
    wait_within_deadline(&deferred, "the deferred update").unwrap();
    assert_eq!(counter_value(&db, table, 10), 1);
    engine.shutdown();
}

/// Injected panics land in probe-free bodies too: each aborts and
/// quarantines its transaction only, and every transaction ends exactly
/// once — committed updates are applied once, aborted ones not at all.
#[test]
fn panics_injected_into_probe_free_bodies_are_quarantined() {
    silence_injected_panics();
    const ROUNDS: i64 = 150;
    let (db, table, engine) = two_executor_engine(SystemConfig {
        faults: FaultConfig {
            seed: 0x1A1E,
            executor_panic_rate: 0.2,
            ..FaultConfig::default()
        },
        ..SystemConfig::for_tests()
    });

    let (done_tx, done_rx) = mpsc::channel();
    let clients: Vec<_> = [60i64, 70]
        .into_iter()
        .map(|own_key| {
            let engine = Arc::clone(&engine);
            let done_tx = done_tx.clone();
            std::thread::spawn(move || {
                // (committed updates, outcomes, aborted probe-free-only txns)
                let mut tally = (0i64, 0i64, 0u64);
                for round in 0..ROUNDS {
                    let mut actions: Vec<ActionSpec> = [10, 30, 90]
                        .into_iter()
                        .map(|id| probe_free_read(table, id, || {}))
                        .collect();
                    let updates = round % 2 == 0;
                    if updates {
                        actions.push(bump_spec(table, own_key, || {}));
                    }
                    match engine.execute(graph_of(actions)) {
                        Ok(()) => tally.0 += i64::from(updates),
                        Err(DbError::TxnAborted { .. }) => tally.2 += u64::from(!updates),
                        Err(other) => panic!("unexpected outcome {other:?}"),
                    }
                    tally.1 += 1;
                }
                done_tx.send((own_key, tally)).unwrap();
            })
        })
        .collect();
    let mut quarantined_probe_free = 0;
    for _ in &clients {
        let (own_key, (committed, outcomes, probe_free_aborts)) = done_rx
            .recv_timeout(DEADLINE)
            .expect("every transaction ends");
        assert_eq!(outcomes, ROUNDS, "one outcome per transaction");
        assert_eq!(
            counter_value(&db, table, own_key),
            committed,
            "each committed update applied exactly once, aborted ones never"
        );
        quarantined_probe_free += probe_free_aborts;
    }
    for client in clients {
        client.join().unwrap();
    }
    assert!(
        quarantined_probe_free > 0,
        "no panic landed in a probe-free-only transaction"
    );
    assert!(db.faults().draws(FaultSite::ExecutorPanic) > 0);
    engine.shutdown();
}
