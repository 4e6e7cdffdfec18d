//! TPC-B banking workload under DORA, with a consistency audit at the end:
//! after any number of concurrent account updates the branch, teller and
//! account balance totals must agree — the ACID property the paper insists
//! DORA preserves while bypassing the centralized lock manager.
//!
//! ```text
//! cargo run --release --example banking_tpcb
//! ```

use std::sync::Arc;
use std::time::Duration;

use dora_repro::common::config::num_cpus;
use dora_repro::common::prelude::*;
use dora_repro::engine::{build_engine, ClientDriver, DriverConfig};
use dora_repro::storage::Database;
use dora_repro::workloads::{TpcB, Workload};

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

    let driver = ClientDriver::new(DriverConfig {
        clients: num_cpus(),
        duration: Duration::from_secs(1),
        warmup: Duration::from_millis(100),
        hardware_contexts: num_cpus(),
    });
    let result = driver.run_engine(Arc::clone(&engine));
    println!(
        "{} executed {} account updates ({:.0} tps)",
        engine.kind().label(),
        result.committed,
        result.throughput_tps
    );

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
