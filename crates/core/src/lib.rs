//! DORA: Data-Oriented Transaction Execution.
//!
//! This crate implements the paper's contribution — the *thread-to-data*
//! execution architecture of Section 4 — on top of the `dora-storage`
//! substrate:
//!
//! * [`routing`] — routing rules bind executors to disjoint *datasets* of
//!   each table (Section 4.1.1); the [`resource`] manager adjusts them at
//!   run time (Appendix A.2.1).
//! * [`flow`] / [`action`] — transactions are decomposed into *actions*
//!   organized in a *transaction flow graph* whose phases are separated by
//!   *rendezvous points* (Section 4.1.2).
//! * [`program`] — declarative transaction programs ([`TxnProgram`]): one
//!   definition per transaction, compiled to a DORA flow graph
//!   (`compile_dora`) or to a sequential baseline closure
//!   (`compile_baseline`), so workloads never write a transaction twice.
//! * [`locallock`] — each executor's thread-local lock table with
//!   shared/exclusive modes and key-prefix conflict semantics
//!   (Section 4.1.3).
//! * [`conflict`] — static, DIBS-style conflict analysis over program
//!   templates, run once per workload at bind time: steps whose template
//!   conflicts with nothing skip the local-lock-table probe entirely, and
//!   high-abort programs are auto-derived as DORA-S serialized plans.
//! * [`executor`] — executors with incoming and completed queues, serving
//!   actions in FIFO order; a role held by whichever thread claimed the
//!   inbox (the dispatcher that found it idle, or the resident thread).
//! * [`engine`] — the [`DoraEngine`]: dispatching, atomic phase submission
//!   (the deadlock-avoidance rule of Section 4.2.3), the terminal-RVP commit
//!   protocol (steps 9–12 of Figure 9) and secondary-action handling
//!   (Section 4.2.2).
//! * [`retry`] — the deadlock-retry policy both engines run their attempts
//!   through: victims are re-run, workload aborts and retry exhaustion
//!   become outcomes, every other error is returned.
//! * [`adaptive`] — adaptive skew-aware repartitioning: a skew detector over
//!   sampled executor load and a background controller that synthesizes
//!   rebalanced routing rules and drives the dataset-resize drain protocol
//!   while transactions stay in flight (Appendix A.2.1 made reactive).
//!
//! The engine keeps the ACID properties of the underlying storage manager:
//! probes and updates run without centralized concurrency control only
//! because their executor serializes conflicting actions through its local
//! lock table, while record inserts and deletes still take row locks through
//! the centralized lock manager (Section 4.2.1).

pub mod action;
pub mod adaptive;
pub mod config;
pub mod conflict;
pub mod engine;
pub mod executor;
pub mod flow;
pub mod locallock;
pub mod program;
pub mod resource;
pub mod retry;
pub mod routing;
pub mod txn;

pub use action::{ActionContext, ActionSpec, LocalMode};
pub use adaptive::{balanced_rule, AdaptiveController, SkewDetector};
pub use config::DoraConfig;
pub use conflict::{
    routes_may_overlap, templates_conflict, ConflictMatrix, CoverageGap, KeyAtom, ProgramTemplate,
    StepTemplate,
};
pub use engine::DoraEngine;
pub use flow::FlowGraph;
pub use locallock::LocalLockTable;
pub use program::{OnDuplicate, OnMissing, PreparedProgram, Step, StepCtx, TxnProgram};
pub use resource::ResourceManager;
pub use retry::retry_deadlocks;
pub use routing::{RoutingRule, RoutingTable};
pub use txn::DoraTxn;
