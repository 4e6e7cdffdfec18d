//! The conventional, thread-to-transaction execution engine (the paper's
//! "Baseline"), the unified [`ExecutionEngine`] abstraction over every
//! execution architecture, and the load-generation machinery shared by every
//! experiment.
//!
//! * `exec` — the [`ExecutionEngine`] trait and the engine registry:
//!   bind a workload, prepare a program, execute it, shut down. The
//!   baseline implements it directly; [`exec::DoraExecution`] adapts the
//!   DORA engine from `dora-core`. Both retry deadlock victims inside the
//!   call through `dora_core::retry_deadlocks`, so a client sees one
//!   contract whichever engine it drives.
//! * `baseline` — executes whole transactions on the calling thread with
//!   full centralized concurrency control, exactly like a worker thread of
//!   Shore-MT would.
//! * `driver` — a closed-loop multi-client load driver that runs any
//!   [`ExecutionEngine`] (or raw job closure) for a fixed duration on a
//!   configurable number of client threads and reports throughput, latency,
//!   the time-breakdown categories of Figures 1–3 and the lock counts of
//!   Figure 5.
//! * `admission` — the "perfect admission control" sweep used by the
//!   peak-throughput comparison of Figure 8.

mod admission;
mod baseline;
mod driver;
mod exec;

pub use admission::{find_peak, AdmissionController, AdmissionDecision, PeakResult};
pub use baseline::BaselineEngine;
pub use driver::{ClientDriver, DriverConfig, RunResult, TxnOutcome};
pub use exec::{build_engine, build_engine_with, DoraExecution, ExecutionEngine};
