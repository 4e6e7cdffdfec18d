//! Actions: the unit of work DORA distributes across executors.
//!
//! An action is "a subset of a transaction's code which involves access to a
//! single or a small set of records from the same table" (Section 4.1.2). Its
//! *identifier* is the set of routing-field values of the records it intends
//! to touch; an action whose identifier is empty is a *secondary action*
//! (Section 4.2.2) and is executed by the thread submitting the phase rather
//! than by an executor — as is a *probe-free* action
//! ([`ActionSpec::elide_probe`]), which no executor needs to serialize.

use std::sync::Arc;

use parking_lot::Mutex;

use dora_common::prelude::*;
use dora_common::InlineVec;
use dora_storage::{Database, TxnHandle};

use crate::program::Step;

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
    pub(crate) fn compatible(self, other: LocalMode) -> bool {
        matches!((self, other), (LocalMode::Shared, LocalMode::Shared))
    }
}

/// Scratchpad entries stored in place: every TM1, TPC-B, Payment and
/// OrderStatus transaction fits; a NewOrder's prices spill. Kept small so a
/// DORA transaction's state stays in the allocator's fast size classes.
const SCRATCH_INLINE: usize = 4;

/// Per-transaction scratchpad used to pass data between actions of different
/// phases (the "shared objects across actions of the same transaction used to
/// transfer data between actions with data dependencies").
///
/// An entry is named by a string literal and an index (`("price", 3)`), so
/// storing one allocates nothing beyond a `Text` value, and the first
/// entries live in the scratchpad itself. Entries are kept sorted by name and
/// index, so a lookup is a binary search even when a transaction stores a
/// few hundred (a TPC-C StockLevel's distinct items).
#[derive(Debug, Default)]
pub struct Scratch {
    values: Mutex<InlineVec<((&'static str, usize), Value), SCRATCH_INLINE>>,
}

impl Scratch {
    /// Creates an empty scratchpad.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Stores `value` under `name`, replacing any previous value.
    pub fn put(&self, name: &'static str, value: impl Into<Value>) {
        self.put_at(name, 0, value);
    }

    /// Stores `value` under entry `index` of `name`, replacing any previous
    /// value.
    pub fn put_at(&self, name: &'static str, index: usize, value: impl Into<Value>) {
        let value = value.into();
        let mut values = self.values.lock();
        match values.binary_search_by(|(slot, _)| slot.cmp(&(name, index))) {
            Ok(position) => {
                if let Some((_, old)) = values.get_mut(position) {
                    *old = value;
                }
            }
            Err(position) => values.insert(position, ((name, index), value)),
        }
    }

    /// Reads the value stored under entry `index` of `name`.
    pub fn get_at(&self, name: &str, index: usize) -> Option<Value> {
        let values = self.values.lock();
        let position = values
            .binary_search_by(|(slot, _)| slot.cmp(&(name, index)))
            .ok()?;
        values.get(position).map(|(_, value)| value.clone())
    }

    /// Reads an integer stored under `name`, failing if absent or non-int.
    pub fn get_int(&self, name: &str) -> DbResult<i64> {
        self.get_int_at(name, 0)
    }

    /// Reads an integer stored under entry `index` of `name`.
    pub fn get_int_at(&self, name: &str, index: usize) -> DbResult<i64> {
        self.get_at(name, index)
            .ok_or_else(|| missing(name, index))?
            .as_int()
    }

    /// Reads a float stored under entry `index` of `name`.
    pub fn get_float_at(&self, name: &str, index: usize) -> DbResult<f64> {
        self.get_at(name, index)
            .ok_or_else(|| missing(name, index))?
            .as_float()
    }
}

fn missing(name: &str, index: usize) -> DbError {
    DbError::InvalidOperation(format!("scratch value {name}[{index}] missing"))
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
pub(crate) type ActionBody = Box<dyn FnOnce(&ActionContext<'_>) -> DbResult<()> + Send + 'static>;

/// A hand-built action for a [`FlowGraph`](crate::FlowGraph): a one-shot
/// body plus what routes it.
///
/// [`FlowGraph::push`](crate::FlowGraph::push) lowers it into a program
/// step, so a hand-built graph runs exactly like a compiled program.
pub struct ActionSpec {
    /// Table whose records the action touches.
    pub table: TableId,
    /// Action identifier: routing-field values of the records it will access.
    /// Empty for secondary actions.
    pub identifier: Key,
    /// Local lock mode the action needs on its identifier.
    pub mode: LocalMode,
    /// The code to run.
    pub(crate) body: ActionBody,
    /// Human-readable label (used in diagnostics and the execution trace).
    pub label: &'static str,
    /// `true` when the author explicitly built this as a secondary action
    /// (via [`ActionSpec::secondary`] or `Step::secondary`). An action with
    /// an empty identifier *without* this flag fell back to the secondary
    /// path because its identifier carried no routing fields — usually a
    /// workload bug the engine warns about at dispatch.
    pub declared_secondary: bool,
    /// `true` when the bind-time conflict matrix proved this step's template
    /// conflicts with nothing in the workload, so no executor has anything
    /// to serialize it against: like a secondary action it is never routed
    /// or queued, and its body runs on the thread that dispatches its phase,
    /// after that phase's claimed batches, with no local-lock-table probe
    /// (counter `LockProbesElided`, one per body run). It still reports to
    /// its phase's RVP. `TxnProgram::with_conflicts` marks program steps
    /// the same way; setting it by hand asserts the same proof, whose
    /// soundness argument is in `crate::conflict`.
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

    /// The program step that runs this action: its one-shot body is kept
    /// until the step first runs (a flow graph runs once).
    pub(crate) fn into_step(self) -> Step {
        let ActionSpec {
            table,
            identifier,
            mode,
            body,
            label,
            declared_secondary,
            elide_probe,
        } = self;
        let body = Mutex::new(Some(body));
        Step::custom(label, table, identifier, mode, move |ctx| {
            // Bind the guard first: the body must run with the cell unlocked.
            let once = body.lock().take();
            match once {
                Some(body) => body(&ActionContext {
                    db: ctx.db,
                    txn: ctx.txn,
                    scratch: ctx.scratch,
                }),
                None => Err(DbError::InvalidOperation(format!(
                    "action `{label}` ran a second time"
                ))),
            }
        })
        .declare_secondary(declared_secondary)
        .assert_probe_free(elide_probe)
    }
}

/// A runnable action: one step of a transaction's program, routed.
pub(crate) struct Action {
    pub txn: Arc<crate::txn::DoraTxnInner>,
    pub table: TableId,
    pub identifier: Key,
    pub mode: LocalMode,
    pub phase: usize,
    /// The step of the transaction's program the action runs.
    pub step: usize,
}

impl std::fmt::Debug for Action {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Action")
            .field("txn", &self.txn.id())
            .field("identifier", &self.identifier)
            .field("mode", &self.mode)
            .field("phase", &self.phase)
            .field("step", &self.step)
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
        assert_eq!(scratch.get_float_at("amount", 0).unwrap(), 12.5);
        assert_eq!(
            scratch.get_at("name", 0).unwrap(),
            Value::Text("SMITH".into())
        );
        assert!(scratch.get_int("missing").is_err());
    }

    #[test]
    fn indexed_entries_spill_past_the_inline_capacity_and_are_replaced() {
        let scratch = Scratch::new();
        for index in 0..40 {
            scratch.put_at("item", index, index as i64);
        }
        scratch.put_at("item", 3, 99i64);
        scratch.put("item", -1i64);
        assert_eq!(scratch.get_int_at("item", 3).unwrap(), 99);
        assert_eq!(scratch.get_int_at("item", 39).unwrap(), 39);
        assert_eq!(scratch.get_int("item").unwrap(), -1);
        assert!(scratch.get_int_at("item", 40).is_err());
        assert!(scratch.get_at("other", 3).is_none());
    }

    #[test]
    fn hundreds_of_entries_under_several_names_stay_addressable() {
        // StockLevel-sized: a few hundred indexed entries, stored in an
        // order that is neither sorted nor reversed, beside other names.
        let scratch = Scratch::new();
        scratch.put("count", 0i64);
        for step in 0..300usize {
            let index = (step * 7) % 300;
            scratch.put_at("item", index, index as i64);
            scratch.put_at("amount", 299 - index, index as f64);
        }
        scratch.put("zeta", 1i64);
        scratch.put("count", 300i64);
        for index in 0..300 {
            assert_eq!(scratch.get_int_at("item", index).unwrap(), index as i64);
            assert_eq!(
                scratch.get_float_at("amount", 299 - index).unwrap(),
                index as f64
            );
        }
        assert_eq!(scratch.get_int("count").unwrap(), 300);
        assert_eq!(scratch.get_int("zeta").unwrap(), 1);
        assert!(scratch.get_at("item", 300).is_none());
        assert!(scratch.get_at("items", 0).is_none());
    }

    #[test]
    fn secondary_actions_have_empty_identifiers() {
        let spec = ActionSpec::secondary("probe-by-name", TableId(1), |_| Ok(()));
        assert!(spec.identifier.is_empty());
        let primary = ActionSpec::new(
            "update",
            TableId(1),
            Key::int(3),
            LocalMode::Exclusive,
            |_| Ok(()),
        );
        assert_eq!(primary.identifier, Key::int(3));
    }
}
