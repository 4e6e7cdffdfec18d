//! A Shore-MT-like storage manager substrate, built from scratch.
//!
//! The DORA paper is an execution architecture layered *on top of* a
//! conventional storage engine (Shore-MT). To reproduce the paper we need
//! that substrate, with the specific properties the paper's analysis relies
//! on:
//!
//! * a **centralized, hierarchical lock manager** ([`lock`]) whose lock heads
//!   carry latched request lists — the component whose latch contention the
//!   paper measures and eliminates;
//! * **spin latches with contention accounting** (`latch`) so the harness
//!   can reproduce the time breakdowns of Figures 1–3;
//! * **slotted-page heap files** (`page`, [`heap`]) addressed by RIDs,
//!   behind a **buffer pool** ([`buffer`]);
//! * **B-Tree indexes** ([`btree`]) including secondary indexes that store
//!   the routing fields and a `deleted` flag in their leaves, as DORA's
//!   secondary-action handling requires (Section 4.2.2);
//! * **ARIES-style write-ahead logging** (`log`) with per-transaction
//!   rollback and simulated flush-at-commit;
//! * a **transaction manager** (`txn`) doing strict two-phase locking for
//!   the conventional engine, with per-operation [`CcMode`] flags that let
//!   DORA bypass or reduce centralized concurrency control exactly as the
//!   paper's prototype modifies Shore-MT (Section 4.3).
//!
//! The [`Database`] facade in `db` ties these together behind the API both
//! execution engines (the baseline in `dora-engine` and DORA in `dora-core`)
//! program against.
//!
//! [`CcMode`]: dora_common::CcMode
//! [`Database`]: crate::db::Database

pub mod btree;
pub mod buffer;
mod catalog;
mod db;
pub mod heap;
mod latch;
pub mod lock;
mod log;
mod mvcc;
mod page;
mod txn;

pub use catalog::{Catalog, ColumnDef, IndexSpec, TableSchema};
pub use db::{CommitHandle, Database, TxnHandle};
pub use latch::Latch;
pub use lock::{LockId, LockManager, LockMode};
pub use log::{CheckpointStats, LogManager, LogRecordKind, Lsn, StreamId, CHECKPOINTER_THREAD};
pub use mvcc::Snapshot;
