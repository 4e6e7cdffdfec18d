//! The paper's running example: the TPC-C Payment transaction, defined once
//! as a declarative `TxnProgram` and compiled to the DORA transaction flow
//! graph of Figure 4 (executed step by step, Figure 9) as well as to the
//! sequential body the conventional engine runs.
//!
//! ```text
//! cargo run --release --example payment_flow
//! ```

use std::sync::Arc;

use dora_repro::common::prelude::*;
use dora_repro::dora::{DoraConfig, DoraEngine};
use dora_repro::engine::BaselineEngine;
use dora_repro::storage::Database;
use dora_repro::workloads::tpcc::CustomerSelector;
use dora_repro::workloads::{Tpcc, Workload};

fn main() {
    let warehouses = 10;
    let workload = Tpcc::with_scale(warehouses, 60, 200);
    let db = Database::new(SystemConfig::default());
    workload.setup(&db).expect("load TPC-C");
    println!("loaded TPC-C with {warehouses} warehouses");

    // One declarative definition of Payment, compiled for DORA: the flow
    // graph the paper draws in Figure 4.
    let graph = workload
        .payment_program(&db, 1, 4, 1, 4, CustomerSelector::ByLastNumber(0), 42.0)
        .expect("build program")
        .compile_dora();
    println!("\nPayment transaction flow graph:");
    for (index, phase) in graph.describe().iter().enumerate() {
        println!("  phase {}: {}", index + 1, phase.join(", "));
        println!("  --- RVP{} ---", index + 1);
    }

    // Execute payments under DORA: warehouse/district/customer updates are
    // routed to the executors owning those datasets, the History insert runs
    // in the second phase, and the terminal RVP commits.
    let dora = DoraEngine::new(Arc::clone(&db), DoraConfig::default());
    workload.bind_dora(&dora, 4).expect("bind");
    for w_id in 1..=warehouses {
        let graph = workload
            .payment_program(&db, w_id, 1, w_id, 1, CustomerSelector::ById(1), 10.0)
            .expect("program")
            .compile_dora();
        dora.execute(graph).expect("payment");
    }
    println!("\nexecuted {warehouses} Payment transactions under DORA");

    // 15% of payments touch a customer of a *remote* warehouse. A
    // shared-nothing system would need a distributed transaction; DORA simply
    // routes the customer action to the remote warehouse's executor.
    let graph = workload
        .payment_program(&db, 1, 1, 7, 3, CustomerSelector::ById(2), 99.0)
        .expect("program")
        .compile_dora();
    dora.execute(graph).expect("remote payment");
    println!("executed a remote-customer Payment (home warehouse 1, customer warehouse 7)");

    // The *same definition* under the conventional engine: compile_baseline
    // lowers the steps to a sequential body with full centralized locking.
    let baseline = BaselineEngine::new(Arc::clone(&db));
    let program = workload
        .payment_program(&db, 2, 2, 2, 2, CustomerSelector::ById(3), 15.0)
        .expect("program");
    baseline
        .execute(program.compile_baseline())
        .expect("baseline payment");
    println!("executed one Payment under the conventional engine");

    let check = db.begin();
    let warehouse_table = db.table_id("warehouse").unwrap();
    let (_, row) = db
        .probe_primary(&check, warehouse_table, &Key::int(1), false, CcMode::Full)
        .unwrap()
        .unwrap();
    println!("\nwarehouse 1 year-to-date total is now {}", row[2]);
    db.commit(&check).unwrap();
    dora.shutdown();
}
