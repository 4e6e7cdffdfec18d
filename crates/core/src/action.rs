//! Actions: the unit of work DORA distributes across executors.
//!
//! An action is "a subset of a transaction's code which involves access to a
//! single or a small set of records from the same table" (Section 4.1.2). Its
//! *identifier* is the set of routing-field values of the records it intends
//! to touch; an action whose identifier is empty is a *secondary action*
//! (Section 4.2.2) and is executed by the thread submitting the phase rather
//! than by an executor — as is a *probe-free* action
//! ([`ActionSpec::elide_probe`]), which no executor needs to serialize.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use dora_common::prelude::*;
use dora_storage::{Database, TxnHandle};

/// Mode of a DORA thread-local lock. The local lock tables only know shared
/// and exclusive (Section 4.1.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LocalMode {
    /// Shared: concurrent readers of the same dataset region may interleave
    /// across transactions.
    Shared,
    /// Exclusive: the action intends to modify records in the region.
    Exclusive,
}

impl LocalMode {
    /// Compatibility of two local modes.
    pub fn compatible(self, other: LocalMode) -> bool {
        matches!((self, other), (LocalMode::Shared, LocalMode::Shared))
    }
}

/// Per-transaction scratchpad used to pass data between actions of different
/// phases (the "shared objects across actions of the same transaction used to
/// transfer data between actions with data dependencies").
#[derive(Debug, Default)]
pub struct Scratch {
    values: Mutex<HashMap<String, Value>>,
}

impl Scratch {
    /// Creates an empty scratchpad.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `value` under `name`, replacing any previous value.
    pub fn put(&self, name: &str, value: impl Into<Value>) {
        self.values.lock().insert(name.to_string(), value.into());
    }

    /// Reads the value stored under `name`.
    pub fn get(&self, name: &str) -> Option<Value> {
        self.values.lock().get(name).cloned()
    }

    /// Reads an integer stored under `name`, failing if absent or non-int.
    pub fn get_int(&self, name: &str) -> DbResult<i64> {
        self.get(name)
            .ok_or_else(|| DbError::InvalidOperation(format!("scratch value {name} missing")))?
            .as_int()
    }

    /// Reads a float stored under `name`, failing if absent or non-numeric.
    pub fn get_float(&self, name: &str) -> DbResult<f64> {
        self.get(name)
            .ok_or_else(|| DbError::InvalidOperation(format!("scratch value {name} missing")))?
            .as_float()
    }
}

/// Everything an action body may touch while it runs on an executor.
pub struct ActionContext<'a> {
    /// The storage manager.
    pub db: &'a Database,
    /// The storage-level transaction the action belongs to.
    pub txn: &'a TxnHandle,
    /// The per-transaction scratchpad (data hand-off between phases).
    pub scratch: &'a Scratch,
}

/// The closure type of an action body.
pub type ActionBody = Box<dyn FnOnce(&ActionContext<'_>) -> DbResult<()> + Send + 'static>;

/// A declarative description of one action inside a transaction flow graph.
///
/// `ActionSpec`s are cheap to build per transaction instance; the engine
/// turns them into runnable actions when the owning phase is dispatched.
pub struct ActionSpec {
    /// Table whose records the action touches.
    pub table: TableId,
    /// Action identifier: routing-field values of the records it will access.
    /// Empty for secondary actions.
    pub identifier: Key,
    /// Local lock mode the action needs on its identifier.
    pub mode: LocalMode,
    /// The code to run.
    pub body: ActionBody,
    /// Human-readable label (used in diagnostics and the execution trace).
    pub label: &'static str,
    /// `true` when the author explicitly built this as a secondary action
    /// (via [`ActionSpec::secondary`] or `Step::secondary`). An action that
    /// is [`is_secondary`](Self::is_secondary) *without* this flag fell back
    /// to the secondary path because its identifier carried no routing
    /// fields — usually a workload bug the engine warns about at dispatch.
    pub declared_secondary: bool,
    /// `true` when the bind-time conflict matrix proved this step's template
    /// conflicts with nothing in the workload, so no executor has anything
    /// to serialize it against: like a secondary action it is never routed
    /// or queued, and its body runs on the thread that dispatches its phase,
    /// after that phase's claimed batches, with no local-lock-table probe
    /// (counter `LockProbesElided`, one per body run). It still reports to
    /// its phase's RVP. Set by `TxnProgram::with_conflicts`; setting it by
    /// hand asserts the same proof, whose soundness argument is in
    /// [`crate::conflict`].
    pub elide_probe: bool,
}

impl std::fmt::Debug for ActionSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActionSpec")
            .field("table", &self.table)
            .field("identifier", &self.identifier)
            .field("mode", &self.mode)
            .field("label", &self.label)
            .finish()
    }
}

impl ActionSpec {
    /// Builds an action bound to a specific dataset (identifier contains at
    /// least the leading routing field).
    pub fn new(
        label: &'static str,
        table: TableId,
        identifier: Key,
        mode: LocalMode,
        body: impl FnOnce(&ActionContext<'_>) -> DbResult<()> + Send + 'static,
    ) -> Self {
        Self {
            table,
            identifier,
            mode,
            body: Box::new(body),
            label,
            declared_secondary: false,
            elide_probe: false,
        }
    }

    /// Builds a *secondary action*: one whose identifier contains none of the
    /// routing fields, so no executor can be determined for it. It is
    /// executed by the thread that submits its phase (Section 4.2.2).
    pub fn secondary(
        label: &'static str,
        table: TableId,
        body: impl FnOnce(&ActionContext<'_>) -> DbResult<()> + Send + 'static,
    ) -> Self {
        Self {
            table,
            identifier: Key::empty(),
            mode: LocalMode::Shared,
            body: Box::new(body),
            label,
            declared_secondary: true,
            elide_probe: false,
        }
    }

    /// `true` if this is a secondary action.
    pub fn is_secondary(&self) -> bool {
        self.identifier.is_empty()
    }
}

/// A runnable action: an [`ActionSpec`] bound to its transaction instance.
pub(crate) struct Action {
    pub txn: Arc<crate::txn::DoraTxnInner>,
    pub table: TableId,
    pub identifier: Key,
    pub mode: LocalMode,
    pub phase: usize,
    pub label: &'static str,
    pub body: ActionBody,
}

impl std::fmt::Debug for Action {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Action")
            .field("txn", &self.txn.id())
            .field("identifier", &self.identifier)
            .field("mode", &self.mode)
            .field("phase", &self.phase)
            .field("label", &self.label)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_mode_compatibility() {
        assert!(LocalMode::Shared.compatible(LocalMode::Shared));
        assert!(!LocalMode::Shared.compatible(LocalMode::Exclusive));
        assert!(!LocalMode::Exclusive.compatible(LocalMode::Shared));
        assert!(!LocalMode::Exclusive.compatible(LocalMode::Exclusive));
    }

    #[test]
    fn scratch_roundtrips_values() {
        let scratch = Scratch::new();
        scratch.put("warehouse", 42i64);
        scratch.put("amount", 12.5f64);
        scratch.put("name", "SMITH");
        assert_eq!(scratch.get_int("warehouse").unwrap(), 42);
        assert_eq!(scratch.get_float("amount").unwrap(), 12.5);
        assert_eq!(scratch.get("name").unwrap(), Value::Text("SMITH".into()));
        assert!(scratch.get_int("missing").is_err());
    }

    #[test]
    fn secondary_actions_have_empty_identifiers() {
        let spec = ActionSpec::secondary("probe-by-name", TableId(1), |_| Ok(()));
        assert!(spec.is_secondary());
        let primary = ActionSpec::new(
            "update",
            TableId(1),
            Key::int(3),
            LocalMode::Exclusive,
            |_| Ok(()),
        );
        assert!(!primary.is_secondary());
        assert_eq!(primary.identifier, Key::int(3));
    }
}
