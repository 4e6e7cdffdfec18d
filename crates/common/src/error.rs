//! Error types shared by every layer of the system.

use std::fmt;

use crate::ids::{Rid, TableId, TxnId};
use crate::value::ValueType;

/// Result alias used across the workspace.
pub type DbResult<T> = Result<T, DbError>;

/// Errors surfaced by the storage manager, the execution engines and the
/// workloads.
#[derive(Debug, Clone, PartialEq)]
pub enum DbError {
    /// A logical lock could not be granted because granting it would create a
    /// deadlock; the transaction holding `victim` must abort.
    Deadlock { victim: TxnId },
    /// The transaction was aborted (explicitly, by deadlock resolution, or by
    /// workload logic such as TM1's invalid-input aborts).
    TxnAborted { txn: TxnId, reason: String },
    /// A record that was expected to exist was not found.
    NotFound { table: TableId, detail: String },
    /// A uniqueness constraint (primary key) was violated.
    DuplicateKey { table: TableId, detail: String },
    /// The requested table or index does not exist in the catalog.
    NoSuchObject(String),
    /// A value had the wrong type for the requested operation.
    TypeMismatch {
        expected: ValueType,
        found: ValueType,
    },
    /// A page, slot or log record failed validation.
    Corruption(String),
    /// The referenced RID does not point at a live record.
    InvalidRid { table: TableId, rid: Rid },
    /// A page had no room for the record and the heap could not extend.
    PageFull { table: TableId },
    /// Misuse of the API (e.g. operating on a finished transaction).
    InvalidOperation(String),
    /// The engine is shutting down and no longer accepts work.
    ShuttingDown,
    /// The transaction's commit record can never become durable: the log
    /// device's writes failed past the retry budget. With early lock
    /// release the transaction's effects may already be applied in memory
    /// (a "ghost commit"), so this is **not** retryable — re-running it
    /// could apply it twice.
    DurabilityLost,
}

impl DbError {
    /// `true` for errors that the engines treat as "abort and retry the
    /// transaction" rather than as bugs: deadlocks and explicit aborts.
    pub fn is_retryable(&self) -> bool {
        matches!(self, DbError::Deadlock { .. } | DbError::TxnAborted { .. })
    }
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Deadlock { victim } => write!(f, "deadlock detected; victim {victim}"),
            DbError::TxnAborted { txn, reason } => write!(f, "{txn} aborted: {reason}"),
            DbError::NotFound { table, detail } => write!(f, "not found in {table}: {detail}"),
            DbError::DuplicateKey { table, detail } => {
                write!(f, "duplicate key in {table}: {detail}")
            }
            DbError::NoSuchObject(name) => write!(f, "no such table or index: {name}"),
            DbError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected:?}, found {found:?}")
            }
            DbError::Corruption(msg) => write!(f, "corruption: {msg}"),
            DbError::InvalidRid { table, rid } => write!(f, "invalid {rid} in {table}"),
            DbError::PageFull { table } => write!(f, "no space left in heap of {table}"),
            DbError::InvalidOperation(msg) => write!(f, "invalid operation: {msg}"),
            DbError::ShuttingDown => write!(f, "engine is shutting down"),
            DbError::DurabilityLost => {
                write!(f, "durability lost: log failed past retry budget")
            }
        }
    }
}

impl std::error::Error for DbError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryable_classification() {
        assert!(DbError::Deadlock { victim: TxnId(1) }.is_retryable());
        assert!(DbError::TxnAborted {
            txn: TxnId(2),
            reason: "bad input".into()
        }
        .is_retryable());
        assert!(!DbError::Corruption("x".into()).is_retryable());
        assert!(!DbError::ShuttingDown.is_retryable());
        assert!(
            !DbError::DurabilityLost.is_retryable(),
            "a ghost commit must never be re-run"
        );
    }

    #[test]
    fn display_is_informative() {
        let err = DbError::NotFound {
            table: TableId(2),
            detail: "key (1)".into(),
        };
        let text = err.to_string();
        assert!(text.contains("table#2"));
        assert!(text.contains("key (1)"));
    }
}
