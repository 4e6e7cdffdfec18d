//! Shared building blocks for the DORA reproduction.
//!
//! This crate holds the vocabulary types used by every other crate in the
//! workspace: identifiers for transactions, tables, pages and records,
//! the [`Value`]/[`Key`] data model, error types and the run-time
//! configuration knobs shared by the baseline and DORA engines.
//!
//! Nothing in here is specific to either execution architecture; the goal is
//! that `dora-storage`, `dora-engine` (the conventional thread-to-transaction
//! engine) and `dora-core` (the thread-to-data engine from the paper) can all
//! speak the same language.

pub mod config;
mod error;
pub mod fault;
mod ids;
mod inline;
pub mod key;
pub mod outcome;
pub mod sync;
mod value;

pub use config::{AdaptiveConfig, CcMode, DurabilityConfig, EngineKind, SystemConfig};
pub use error::{DbError, DbResult};
pub use fault::{silence_injected_panics, FaultConfig, FaultPlan, FaultSite, InjectedPanic};
pub use ids::{IndexId, PageId, Rid, SlotId, TableId, TxnId};
pub use inline::InlineVec;
pub use key::{Key, KeyRange};
pub use outcome::TxnOutcome;
pub use value::{Row, Value, ValueType};

/// Convenience prelude re-exporting the types almost every module needs.
pub mod prelude {
    pub use crate::config::{AdaptiveConfig, CcMode, DurabilityConfig, EngineKind, SystemConfig};
    pub use crate::error::{DbError, DbResult};
    pub use crate::fault::{
        silence_injected_panics, FaultConfig, FaultPlan, FaultSite, InjectedPanic,
    };
    pub use crate::ids::{IndexId, PageId, Rid, SlotId, TableId, TxnId};
    pub use crate::key::{Key, KeyRange};
    pub use crate::outcome::TxnOutcome;
    pub use crate::value::{Row, Value, ValueType};
}
