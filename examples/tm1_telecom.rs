//! TM1 (TATP) telecom workload: drive every registered execution engine with
//! a multi-client load and compare throughput and the lock classes they
//! acquire — a miniature of the paper's Figures 5 and 6.
//!
//! All engines are driven through the unified `ExecutionEngine` seam, so a
//! newly registered architecture shows up here with no code changes.
//!
//! ```text
//! cargo run --release --example tm1_telecom
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dora_repro::common::config::num_cpus;
use dora_repro::common::{EngineKind, SystemConfig, TxnOutcome};
use dora_repro::engine::{build_engine, ExecutionEngine};
use dora_repro::metrics::{global, CounterKind, TimeBreakdown};
use dora_repro::storage::Database;
use dora_repro::workloads::{Tm1, Workload};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Runs `clients` threads that execute transactions from the engine's
/// bound mix until `duration` has passed. Returns the commit, abort and
/// give-up counts.
fn run_clients(engine: &dyn ExecutionEngine, clients: usize, duration: Duration) -> [u64; 3] {
    let stop = AtomicBool::new(false);
    let counts = [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];
    std::thread::scope(|scope| {
        for client in 0..clients {
            let (stop, counts) = (&stop, &counts);
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(client as u64);
                while !stop.load(Ordering::Relaxed) {
                    let slot = match engine.execute_one(&mut rng) {
                        TxnOutcome::Committed => 0,
                        TxnOutcome::Aborted => 1,
                        TxnOutcome::GaveUp => 2,
                    };
                    counts[slot].fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
    });
    counts.map(|count| count.into_inner())
}

fn main() {
    let clients = num_cpus();
    let subscribers = 20_000;

    for kind in EngineKind::ALL {
        let db = Database::new(SystemConfig::default());
        let workload: Arc<dyn Workload> = Arc::new(Tm1::new(subscribers));
        workload.setup(db.as_ref()).expect("load TM1");
        let engine = build_engine(kind, db);
        engine
            .bind(workload, (num_cpus() / 4).max(1))
            .expect("bind");

        let before = global().snapshot();
        let started = Instant::now();
        let [committed, aborted, gave_up] =
            run_clients(engine.as_ref(), clients, Duration::from_secs(1));
        let wall = started.elapsed();
        let delta = global().snapshot().since(&before);
        assert!(committed > 0, "{kind:?} committed nothing");

        let per_100 = |kind| 100.0 * delta.counter(kind) as f64 / committed as f64;
        let attempted = committed + aborted + gave_up;
        println!(
            "{:<9} {:>8.0} tps | aborts {:>5.1}% (gave up {}) | locks/100txn: row {:.0} higher {:.0} local {:.0}",
            format!("{}:", engine.kind().label()),
            committed as f64 / wall.as_secs_f64(),
            100.0 * (aborted + gave_up) as f64 / attempted as f64,
            gave_up,
            per_100(CounterKind::RowLevelLock),
            per_100(CounterKind::HigherLevelLock),
            per_100(CounterKind::DoraLocalLock)
        );
        println!(
            "          breakdown: {}",
            TimeBreakdown::from_snapshot(&delta)
        );
        engine.shutdown();
    }
}
