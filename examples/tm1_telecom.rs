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

use std::sync::Arc;
use std::time::Duration;

use dora_repro::common::config::num_cpus;
use dora_repro::common::{EngineKind, SystemConfig};
use dora_repro::engine::{build_engine, ClientDriver, DriverConfig};
use dora_repro::storage::Database;
use dora_repro::workloads::{Tm1, Workload};

fn main() {
    let clients = num_cpus();
    let subscribers = 20_000;
    let driver = ClientDriver::new(DriverConfig {
        clients,
        duration: Duration::from_secs(1),
        warmup: Duration::from_millis(200),
        hardware_contexts: num_cpus(),
    });

    for kind in EngineKind::ALL {
        let db = Database::new(SystemConfig::default());
        let workload: Arc<dyn Workload> = Arc::new(Tm1::new(subscribers));
        workload.setup(db.as_ref()).expect("load TM1");
        let engine = build_engine(kind, db);
        engine
            .bind(workload, (num_cpus() / 4).max(1))
            .expect("bind");

        let result = driver.run_engine(Arc::clone(&engine));
        let (row, higher, local) = result.locks_per_100_txns();
        println!(
            "{:<9} {:>8.0} tps | aborts {:>5.1}% (gave up {}) | locks/100txn: row {:.0} higher {:.0} local {:.0}",
            format!("{}:", engine.kind().label()),
            result.throughput_tps,
            100.0 * result.abort_rate(),
            result.gave_up,
            row,
            higher,
            local
        );
        println!("          breakdown: {}", result.breakdown);
        engine.shutdown();
    }
}
