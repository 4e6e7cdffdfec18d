//! Flood the serving front-end far past saturation and check that
//! admission control keeps its promises: the queue stays bounded, every
//! submission is accounted for exactly once (submitted = committed +
//! aborted + gave-up + shed), and `close` drains gracefully under fire.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use dora_common::prelude::*;
use dora_core::Step;
use dora_server::{AdmissionConfig, RetryPolicy, Server, ServerConfig, SubmitOutcome};
use dora_storage::Database;
use dora_workloads::{TpcB, Workload};

const MAX_ACTIVE: usize = 2;
const MAX_QUEUED: usize = 3;

fn flood_server(engine: EngineKind) -> (Server, dora_server::Statement) {
    let tpcb = TpcB::with_accounts(4, 64);
    let db = Database::for_tests();
    tpcb.setup(&db).unwrap();
    let workload = Arc::new(tpcb);
    let server = Server::open(
        Arc::clone(&db),
        workload.clone(),
        ServerConfig::for_tests(engine).with_admission(Some(AdmissionConfig {
            max_active: MAX_ACTIVE,
            max_queued: MAX_QUEUED,
        })),
    )
    .unwrap();
    let program = workload.account_update_program(&db, 1, 1, 1, 2.5).unwrap();
    let statement = server.prepare(program).unwrap();
    (server, statement)
}

#[derive(Default)]
struct Tally {
    submitted: AtomicUsize,
    committed: AtomicUsize,
    aborted: AtomicUsize,
    gave_up: AtomicUsize,
    shed: AtomicUsize,
    timed_out: AtomicUsize,
    failed: AtomicUsize,
}

impl Tally {
    fn record(&self, outcome: SubmitOutcome) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        let bucket = match outcome {
            SubmitOutcome::Committed => &self.committed,
            SubmitOutcome::Aborted => &self.aborted,
            SubmitOutcome::GaveUp => &self.gave_up,
            SubmitOutcome::Shed => &self.shed,
            SubmitOutcome::TimedOut => &self.timed_out,
            SubmitOutcome::Failed => &self.failed,
        };
        bucket.fetch_add(1, Ordering::Relaxed);
    }

    fn resolved(&self) -> usize {
        self.committed.load(Ordering::Relaxed)
            + self.aborted.load(Ordering::Relaxed)
            + self.gave_up.load(Ordering::Relaxed)
            + self.shed.load(Ordering::Relaxed)
            + self.timed_out.load(Ordering::Relaxed)
            + self.failed.load(Ordering::Relaxed)
    }
}

#[test]
fn flood_respects_queue_bound_and_accounts_for_every_submission() {
    for engine in [EngineKind::Baseline, EngineKind::Dora] {
        let (server, statement) = flood_server(engine);
        let server = Arc::new(server);
        let tally = Arc::new(Tally::default());
        let stop = Arc::new(AtomicBool::new(false));

        // A monitor samples the gate while the flood runs: the admission
        // bounds are invariants, so no sample may ever exceed them.
        let monitor = {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut max_active = 0;
                let mut max_queued = 0;
                while !stop.load(Ordering::Relaxed) {
                    max_active = max_active.max(server.in_flight());
                    max_queued = max_queued.max(server.queue_depth());
                    thread::yield_now();
                }
                (max_active, max_queued)
            })
        };

        // 4x more flooders than execution+queue slots: shedding must kick in.
        let flooders: Vec<_> = (0..(MAX_ACTIVE + MAX_QUEUED) * 4)
            .map(|_| {
                let session = server.session_with_window(2);
                let statement = statement.clone();
                let tally = Arc::clone(&tally);
                thread::spawn(move || {
                    for _ in 0..50 {
                        tally.record(session.execute(&statement));
                    }
                })
            })
            .collect();
        for flooder in flooders {
            flooder.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let (max_active, max_queued) = monitor.join().unwrap();

        assert!(
            max_active <= MAX_ACTIVE,
            "{engine:?}: observed {max_active} active > bound {MAX_ACTIVE}"
        );
        assert!(
            max_queued <= MAX_QUEUED,
            "{engine:?}: observed {max_queued} queued > bound {MAX_QUEUED}"
        );

        // Exactness: every submission resolved to exactly one outcome.
        let submitted = tally.submitted.load(Ordering::Relaxed);
        let resolved = tally.resolved();
        assert_eq!(submitted, (MAX_ACTIVE + MAX_QUEUED) * 4 * 50);
        assert_eq!(
            submitted, resolved,
            "{engine:?}: submitted != committed+aborted+gave_up+shed"
        );
        assert!(
            tally.committed.load(Ordering::Relaxed) > 0,
            "{engine:?}: the flood should still commit work"
        );

        server.close();
        assert_eq!(server.in_flight(), 0);
        assert_eq!(server.queue_depth(), 0);
    }
}

#[test]
fn close_drains_gracefully_under_fire() {
    let (server, statement) = flood_server(EngineKind::Dora);
    let server = Arc::new(server);
    let tally = Arc::new(Tally::default());

    // Flooders submit until they see the drain (their first shed).
    let flooders: Vec<_> = (0..8)
        .map(|_| {
            let server = Arc::clone(&server);
            let statement = statement.clone();
            let tally = Arc::clone(&tally);
            thread::spawn(move || {
                let session = server.session();
                loop {
                    let outcome = session.execute(&statement);
                    tally.record(outcome);
                    if outcome.is_shed() {
                        return;
                    }
                }
            })
        })
        .collect();

    // Let the flood reach a steady state, then close underneath it.
    while tally.committed.load(Ordering::Relaxed) < 20 {
        thread::sleep(Duration::from_millis(1));
    }
    server.close();

    // close() returned, so the drain is complete: nothing may still hold
    // an execution slot or a queue slot even while flooders are alive.
    assert_eq!(server.in_flight(), 0);
    assert_eq!(server.queue_depth(), 0);
    assert!(server.is_closed());

    for flooder in flooders {
        flooder.join().unwrap();
    }

    let submitted = tally.submitted.load(Ordering::Relaxed);
    assert_eq!(submitted, tally.resolved());
    assert!(
        tally.shed.load(Ordering::Relaxed) >= 8,
        "every flooder ends on a shed"
    );

    // The drained server sheds everything, forever, without blocking.
    let session = server.session();
    for _ in 0..4 {
        assert_eq!(session.execute(&statement), SubmitOutcome::Shed);
    }
}

/// Opens a server whose single execution slot can be pinned by a "slow"
/// statement (a transfer with one more step that sleeps for `hold`), so
/// tests can force later submissions into the condvar-FIFO admission queue.
fn pinned_server(
    config: ServerConfig,
    hold: Duration,
) -> (Server, dora_server::Statement, dora_server::Statement) {
    let tpcb = TpcB::with_accounts(4, 64);
    let db = Database::for_tests();
    tpcb.setup(&db).unwrap();
    let workload = Arc::new(tpcb);
    let server = Server::open(Arc::clone(&db), workload.clone(), config).unwrap();
    let history = db.table_id("history_b").unwrap();
    let program = workload
        .account_update_program(&db, 1, 1, 1, 1.0)
        .unwrap()
        .step(Step::secondary("hold", history, move |_| {
            thread::sleep(hold);
            Ok(())
        }));
    let slow = server.prepare(program).unwrap();
    let program = workload
        .account_update_program(&db, 2, 65, 11, 2.0)
        .unwrap();
    let fast = server.prepare(program).unwrap();
    (server, slow, fast)
}

/// The satellite race from the issue: a client parked in the admission
/// queue while `Server::close` fires must observe `Shed` — never hang on
/// the condvar, never lose its queue slot silently.
#[test]
fn queued_waiter_racing_close_observes_shed_not_a_hang() {
    let config =
        ServerConfig::for_tests(EngineKind::Baseline).with_admission(Some(AdmissionConfig {
            max_active: 1,
            max_queued: 4,
        }));
    let (server, slow, fast) = pinned_server(config, Duration::from_millis(100));
    let server = Arc::new(server);

    // Pin the single execution slot.
    let pin = {
        let session = server.session();
        thread::spawn(move || session.execute(&slow))
    };
    while server.in_flight() == 0 {
        thread::yield_now();
    }

    // Park two clients in the queue behind it.
    let queued: Vec<_> = (0..2)
        .map(|_| {
            let session = server.session();
            let fast = fast.clone();
            thread::spawn(move || session.execute(&fast))
        })
        .collect();
    while server.queue_depth() < 2 {
        thread::yield_now();
    }

    // Close under them. close() blocks until the drain completes, so by
    // the time it returns every queued waiter must have resolved.
    server.close();
    assert_eq!(server.queue_depth(), 0);
    assert_eq!(server.in_flight(), 0);

    // The pinned transaction was already admitted: it runs to completion.
    assert!(pin.join().unwrap().is_committed());
    // The queued waiters must observe Shed (close never promotes them).
    for waiter in queued {
        assert_eq!(waiter.join().unwrap(), SubmitOutcome::Shed);
    }
}

#[test]
fn submit_deadline_times_out_queued_work() {
    let config = ServerConfig::for_tests(EngineKind::Baseline)
        .with_admission(Some(AdmissionConfig {
            max_active: 1,
            max_queued: 4,
        }))
        .with_submit_deadline(Duration::from_millis(5));
    let (server, slow, fast) = pinned_server(config, Duration::from_millis(80));
    let server = Arc::new(server);

    let pin = {
        let session = server.session();
        thread::spawn(move || session.execute(&slow))
    };
    while server.in_flight() == 0 {
        thread::yield_now();
    }

    // This submission queues behind the pinned slot and must give up at
    // its deadline — long before the 80ms hold ends.
    let session = server.session();
    let outcome = session.execute(&fast);
    assert_eq!(outcome, SubmitOutcome::TimedOut);
    assert!(outcome.is_timed_out() && outcome.is_safe_to_resubmit());
    assert_eq!(server.queue_depth(), 0, "the timed-out slot was returned");

    assert!(pin.join().unwrap().is_committed());
    server.close();
}

#[test]
fn retry_policy_reruns_aborted_submissions() {
    let tpcb = TpcB::with_accounts(4, 64);
    let db = Database::for_tests();
    tpcb.setup(&db).unwrap();
    let workload = Arc::new(tpcb);
    let server = Server::open(
        Arc::clone(&db),
        workload.clone(),
        ServerConfig::for_tests(EngineKind::Dora).with_retry(RetryPolicy::retries(3)),
    )
    .unwrap();

    // A transfer whose extra step aborts its first two attempts; with three
    // retries the session's final answer must be the commit.
    let attempts = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&attempts);
    let history = db.table_id("history_b").unwrap();
    let program = workload
        .account_update_program(&db, 1, 1, 1, 3.0)
        .unwrap()
        .step(Step::secondary("flaky", history, move |ctx| {
            if seen.fetch_add(1, Ordering::Relaxed) < 2 {
                return Err(ctx.abort("transient"));
            }
            Ok(())
        }));
    let flaky = server.prepare(program).unwrap();

    let session = server.session();
    assert_eq!(session.execute(&flaky), SubmitOutcome::Committed);
    assert_eq!(
        attempts.load(Ordering::Relaxed),
        3,
        "two aborts, one commit"
    );
    server.close();
}
