//! The serving front-end for the DORA reproduction: the boundary a client
//! programs against, productionized.
//!
//! The lifecycle is the classical one:
//!
//! 1. [`Server::open`] a database with either execution architecture
//!    behind it (conventional baseline or data-oriented).
//! 2. [`Server::prepare`] a transaction program once into a [`Statement`]
//!    handle — prepare once, execute many, each execution with the
//!    statement's own parameters or a new binding of them.
//! 3. Open [`Session`]s and execute statements concurrently. Each
//!    session has a bounded in-flight window (client backpressure and
//!    per-session fairness); every submit then passes the server's
//!    admission gate, which queues at saturation and sheds past the
//!    configured threshold instead of letting throughput collapse — the
//!    paper's admission-control premise (Figures 6 and 8) as a real API.
//! 4. [`Server::close`] drains gracefully: late arrivals are shed,
//!    admitted and queued work finishes, then the engine stops.
//!
//! Shed, queue, and session counts surface through `dora-metrics`
//! ([`CounterKind::TxnShed`], [`CounterKind::TxnQueued`],
//! [`CounterKind::SessionsOpened`]); the `repro saturation` experiment in
//! `dora-bench` drives this API across offered-load sweeps.
//!
//! ```
//! use std::sync::Arc;
//! use dora_common::prelude::*;
//! use dora_core::Params;
//! use dora_server::{Server, ServerConfig};
//! use dora_workloads::{TpcB, Workload};
//!
//! let tpcb = TpcB::with_accounts(4, 64);
//! let db = dora_storage::Database::for_tests();
//! tpcb.setup(&db).unwrap();
//! let workload: Arc<TpcB> = Arc::new(tpcb);
//!
//! let server = Server::open(
//!     Arc::clone(&db),
//!     workload.clone(),
//!     ServerConfig::for_tests(EngineKind::Dora),
//! )
//! .unwrap();
//!
//! // Prepare once...
//! let program = workload.account_update_program(&db, 1, 1, 1, 7.5).unwrap();
//! let transfer = server.prepare(program).unwrap();
//!
//! // ...execute many, as prepared or with other parameters bound in:
//! // [branch, account, teller] and the amount.
//! let session = server.session();
//! for account in 1..=4 {
//!     assert!(session.execute(&transfer).is_committed());
//!     let params = Params::of([1, account, 1]).with_float(2.5);
//!     assert!(session.execute_with(&transfer, params).is_committed());
//! }
//!
//! server.close();
//! assert!(session.execute(&transfer).is_shed());
//! ```
//!
//! [`CounterKind::TxnShed`]: dora_metrics::CounterKind::TxnShed
//! [`CounterKind::TxnQueued`]: dora_metrics::CounterKind::TxnQueued
//! [`CounterKind::SessionsOpened`]: dora_metrics::CounterKind::SessionsOpened

mod gate;
mod server;
mod session;
mod statement;

pub use gate::AdmissionConfig;
pub use server::{RetryPolicy, Server, ServerConfig, SubmitOutcome};
pub use session::Session;
pub use statement::Statement;

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use dora_common::prelude::*;
    use dora_core::Params;
    use dora_storage::Database;
    use dora_workloads::{TpcB, Workload};

    use super::*;

    fn served(engine: EngineKind, admission: Option<AdmissionConfig>) -> (Server, Statement) {
        let tpcb = TpcB::with_accounts(4, 64);
        let db = Database::for_tests();
        tpcb.setup(&db).unwrap();
        let workload = Arc::new(tpcb);
        let server = Server::open(
            Arc::clone(&db),
            workload.clone(),
            ServerConfig::for_tests(engine).with_admission(admission),
        )
        .unwrap();
        let program = workload.account_update_program(&db, 1, 1, 1, 7.5).unwrap();
        let statement = server.prepare(program).unwrap();
        (server, statement)
    }

    #[test]
    fn prepared_statement_executes_many_times_on_both_engines() {
        for kind in [EngineKind::Baseline, EngineKind::Dora] {
            let (server, statement) = served(kind, None);
            let session = server.session();
            for _ in 0..8 {
                assert_eq!(session.execute(&statement), SubmitOutcome::Committed);
            }
            server.close();
        }
    }

    #[test]
    fn template_statement_builds_per_binding() {
        for kind in [EngineKind::Baseline, EngineKind::Dora] {
            let (server, transfer) = served(kind, None);
            let session = server.session();
            for i in 0..4i64 {
                let branch = i % 4 + 1;
                let params = Params::of([branch, (branch - 1) * 64 + 1 + i, (branch - 1) * 10 + 1])
                    .with_float(10.0 + i as f64);
                assert!(session.execute_with(&transfer, params).is_committed());
            }

            // A binding that misses a slot aborts rather than panicking or
            // wedging.
            assert_eq!(
                session.execute_with(&transfer, Params::of([1])),
                SubmitOutcome::Aborted
            );
            server.close();
        }
    }

    #[test]
    fn close_is_idempotent_and_sheds_later_submits() {
        let (server, statement) = served(EngineKind::Baseline, None);
        let session = server.session();
        assert!(session.execute(&statement).is_committed());
        server.close();
        server.close();
        assert!(server.is_closed());
        assert!(session.execute(&statement).is_shed());
        assert_eq!(server.in_flight(), 0);
        assert_eq!(server.queue_depth(), 0);
    }

    #[test]
    fn read_only_statements_are_served_from_snapshots() {
        use dora_metrics::{current_thread_snapshot, CounterKind};
        use dora_workloads::AnalyticalScan;

        for kind in [EngineKind::Baseline, EngineKind::Dora] {
            let tpcb = TpcB::with_accounts(4, 64);
            let db = Database::for_tests();
            tpcb.setup(&db).unwrap();
            let workload = Arc::new(tpcb);
            let server = Server::open(
                Arc::clone(&db),
                workload.clone(),
                ServerConfig::for_tests(kind),
            )
            .unwrap();

            let sink = AnalyticalScan::sink();
            let scan = server
                .prepare(AnalyticalScan::tpcb_branch_balances(&db, Arc::clone(&sink)).unwrap())
                .unwrap();
            let transfer = server
                .prepare(workload.account_update_program(&db, 1, 1, 1, 7.5).unwrap())
                .unwrap();

            let session = server.session();
            let before = current_thread_snapshot();
            assert_eq!(session.execute(&transfer), SubmitOutcome::Committed);
            let after = current_thread_snapshot();
            assert_eq!(
                after.since(&before).counter(CounterKind::SnapshotsTaken),
                0,
                "{kind:?}: a writing statement takes the locked path"
            );
            let before = current_thread_snapshot();
            assert_eq!(session.execute(&scan), SubmitOutcome::Committed);
            let after = current_thread_snapshot();
            assert!(
                after.since(&before).counter(CounterKind::SnapshotsTaken) >= 1,
                "{kind:?}: a read-only statement must pin a snapshot"
            );
            assert_eq!(sink.lock().rows_scanned, 4 * 64);
            server.close();
        }
    }

    #[test]
    fn session_window_caps_concurrent_submitters() {
        let (server, statement) = served(EngineKind::Baseline, None);
        let session = server.session_with_window(2);
        assert_eq!(session.window(), 2);

        let mut handles = Vec::new();
        for _ in 0..6 {
            let session = session.clone();
            let statement = statement.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..16 {
                    assert!(session.execute(&statement).is_committed());
                    // The window is honored at every instant the caller
                    // can observe it.
                    assert!(session.in_flight() <= 2);
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(session.in_flight(), 0);
        server.close();
    }
}
