//! The benchmark harness.
//!
//! [`experiments`] contains one function per figure of the paper's
//! evaluation; each sets up the workload, drives both engines with the
//! closed-loop [`dora_engine::ClientDriver`], and renders a plain-text report
//! with the same rows/series the figure plots. The `repro` binary exposes
//! them as subcommands (`cargo run -p dora-bench --release --bin repro --
//! fig1`), and `EXPERIMENTS.md` records paper-vs-measured for each.
//!
//! `setup` holds the shared scaffolding (database construction, workload
//! scaling, run helpers) and `trace` the access-pattern tracing used for
//! Figure 10.

pub mod experiments;
mod report;
mod setup;
mod trace;

pub use setup::{Scale, SystemUnderTest};
