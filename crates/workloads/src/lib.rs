//! The OLTP workloads the paper evaluates with: Nokia's TM1 (Network
//! Database Benchmark), transactions from TPC-C, and TPC-B.
//!
//! Each workload provides the schema, a scaled data loader and a transaction
//! mix in which every transaction is defined **exactly once** as a
//! declarative `dora_core::TxnProgram` — an ordered list of typed steps with
//! explicit rendezvous points. The execution engines compile that single
//! definition for their architecture: `compile_baseline` produces the
//! sequential body a conventional engine runs under full centralized
//! concurrency control, `compile_dora` produces the transaction flow graph
//! of Section 4.1.2 (actions with routing-field identifiers, phases split at
//! the RVPs).
//!
//! All workloads route on the leading primary-key column (subscriber id,
//! warehouse id, branch id, counter id), the choice the paper recommends.
//!
//! Beyond the paper's three benchmarks, `skewed` adds a zipfian
//! counter workload (backed by the `zipf` generators) whose hot range can
//! drift over time — the adversarial distribution the adaptive
//! repartitioning subsystem is exercised with — and `analytics` adds the
//! read-only scan that sweeps TPC-B's accounts on a snapshot beside the
//! OLTP load.

mod analytics;
mod skewed;
mod spec;
mod tm1;
mod tpcb;
pub mod tpcc;
mod zipf;

pub use analytics::{AnalyticalScan, ScanSink};
pub use skewed::SkewedCounters;
pub use spec::{Workload, WorkloadStats};
pub use tm1::{Tm1, Tm1Mix};
pub use tpcb::TpcB;
pub use tpcc::{Tpcc, TpccMix};
pub use zipf::Zipfian;
