//! TPC-B banking workload under DORA, with a consistency audit at the end:
//! after any number of concurrent account updates the branch, teller and
//! account balance totals must agree — the ACID property the paper insists
//! DORA preserves while bypassing the centralized lock manager.
//!
//! ```text
//! cargo run --release --example banking_tpcb
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dora_repro::common::config::num_cpus;
use dora_repro::common::prelude::*;
use dora_repro::engine::{build_engine, ExecutionEngine};
use dora_repro::storage::Database;
use dora_repro::workloads::{TpcB, Workload};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Runs `clients` threads that execute transactions from the engine's
/// bound mix until `duration` has passed. Returns the commit count.
fn run_clients(engine: &dyn ExecutionEngine, clients: usize, duration: Duration) -> u64 {
    let stop = AtomicBool::new(false);
    let committed = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for client in 0..clients {
            let (stop, committed) = (&stop, &committed);
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(client as u64);
                while !stop.load(Ordering::Relaxed) {
                    if engine.execute_one(&mut rng) == TxnOutcome::Committed {
                        committed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
    });
    committed.into_inner()
}

fn main() {
    let branches = 50;
    let db = Database::new(SystemConfig::default());
    let workload: Arc<dyn Workload> = Arc::new(TpcB::new(branches));
    workload.setup(&db).expect("load TPC-B");
    println!("loaded TPC-B with {branches} branches");

    // The engine is built and bound through the unified ExecutionEngine
    // seam; swap EngineKind::Dora for any registered architecture and the
    // rest of the example is unchanged.
    let engine = build_engine(EngineKind::Dora, Arc::clone(&db));
    engine
        .bind(Arc::clone(&workload), (num_cpus() / 4).max(2))
        .expect("bind");

    let started = Instant::now();
    let committed = run_clients(engine.as_ref(), num_cpus(), Duration::from_secs(1));
    println!(
        "{} executed {} account updates ({:.0} tps)",
        engine.kind().label(),
        committed,
        committed as f64 / started.elapsed().as_secs_f64()
    );
    assert!(committed > 0, "no account update committed");

    // Consistency audit.
    let check = db.begin();
    let mut branch_total = 0.0;
    let mut teller_total = 0.0;
    let mut account_total = 0.0;
    db.scan_table(
        &check,
        db.table_id("branch").unwrap(),
        CcMode::Full,
        |_, row| {
            branch_total += row[1].as_float().unwrap();
        },
    )
    .unwrap();
    db.scan_table(
        &check,
        db.table_id("teller").unwrap(),
        CcMode::Full,
        |_, row| {
            teller_total += row[2].as_float().unwrap();
        },
    )
    .unwrap();
    db.scan_table(
        &check,
        db.table_id("account").unwrap(),
        CcMode::Full,
        |_, row| {
            account_total += row[2].as_float().unwrap();
        },
    )
    .unwrap();
    db.commit(&check).unwrap();
    println!("audit: branches {branch_total:.2} | tellers {teller_total:.2} | accounts {account_total:.2}");
    assert!(
        (branch_total - teller_total).abs() < 1e-3,
        "teller totals diverged"
    );
    assert!(
        (branch_total - account_total).abs() < 1e-3,
        "account totals diverged"
    );
    println!("ACID audit passed: all three totals agree");
    engine.shutdown();
}
