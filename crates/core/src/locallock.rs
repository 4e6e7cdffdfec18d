//! Thread-local lock tables.
//!
//! Each executor owns one of these (Section 4.1.3). The table is keyed by
//! action identifiers; conflicts are resolved at the identifier level with
//! key-prefix semantics (two identifiers conflict when one is a prefix of the
//! other), and the only modes are shared and exclusive. Locks are held until
//! the owning transaction commits or aborts, at which point the executor
//! removes the transaction's entries and retries any waiting actions.
//!
//! Because the table is only ever touched by its owning executor thread, it
//! needs no internal synchronization — this is precisely the "much
//! lighter-weight thread-local locking mechanism" the paper substitutes for
//! the centralized lock manager. Operations are nonetheless timed (as
//! [`TimeCategory::DoraLocal`]) so the evaluation can show how small that
//! cost is.
//!
//! Even this lightweight probe can be skipped entirely: when the bind-time
//! conflict analysis (`crate::conflict`) proves a step's template conflicts
//! with nothing in the workload, the action never reaches an executor: the
//! thread dispatching its phase runs it without touching this table
//! (counter `LockProbesElided`). Probes that do land here therefore belong to
//! steps the solver could not dismiss.

use std::collections::HashMap;

use dora_common::prelude::*;
use dora_common::InlineVec;
use dora_metrics::{incr, time_section, CounterKind, TimeCategory};

use crate::action::LocalMode;

/// Outcome of a local lock request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LocalAcquire {
    /// The lock was granted; the caller may execute the action.
    Granted,
    /// The request conflicts with locks held by these transactions; the
    /// action must wait until they complete.
    Conflict(Vec<TxnId>),
}

/// Owners of one identifier kept in place; more (shared holders) spill.
const OWNERS_INLINE: usize = 2;

/// A thread-local lock table.
#[derive(Debug, Default)]
pub struct LocalLockTable {
    /// Owner lists indexed by exact identifier (the map key *is* the locked
    /// identifier — short keys are stored inline, and so are the first
    /// [`OWNERS_INLINE`] owners, so populating an entry does not allocate).
    /// Conflict checking scans all entries because key-prefix overlap cannot
    /// be answered by an exact lookup; the table only ever holds entries for
    /// in-flight transactions on one executor, so it stays small (tens of
    /// entries).
    entries: HashMap<Key, InlineVec<(TxnId, LocalMode), OWNERS_INLINE>>,
    /// Total number of grants, for Figure 5's thread-local lock counts.
    acquired: u64,
}

impl LocalLockTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attempts to acquire `mode` on `identifier` for `txn`.
    ///
    /// Re-acquisition by the same transaction is idempotent (the same
    /// identifier may be touched by merged actions). The grant is counted as
    /// a DORA local lock for the lock-count experiments.
    pub fn acquire(&mut self, txn: TxnId, identifier: &Key, mode: LocalMode) -> LocalAcquire {
        time_section(TimeCategory::DoraLocal, || {
            let mut conflicts = Vec::new();
            for (locked, owners) in &self.entries {
                if !locked.overlaps(identifier) {
                    continue;
                }
                for (owner, owner_mode) in owners.iter() {
                    if *owner == txn {
                        continue;
                    }
                    // Key-prefix semantics: a lock on an identifier covers
                    // every identifier it is a prefix of (and vice versa), so
                    // overlapping identifiers conflict exactly when their
                    // modes are incompatible.
                    if !mode.compatible(*owner_mode) {
                        conflicts.push(*owner);
                    }
                }
            }
            if !conflicts.is_empty() {
                conflicts.sort();
                conflicts.dedup();
                return LocalAcquire::Conflict(conflicts);
            }
            let owners = self.entries.entry(identifier.clone()).or_default();
            let existing = owners.iter().position(|(owner, _)| *owner == txn);
            if let Some(existing) = existing.and_then(|at| owners.get_mut(at)) {
                // Upgrade in place if needed.
                if existing.1 == LocalMode::Shared && mode == LocalMode::Exclusive {
                    existing.1 = LocalMode::Exclusive;
                }
            } else {
                owners.push((txn, mode));
                self.acquired += 1;
                incr(CounterKind::DoraLocalLock);
            }
            LocalAcquire::Granted
        })
    }

    /// Releases every lock `txn` holds (called when the transaction's commit
    /// or abort notification arrives on the completed queue).
    pub fn release_txn(&mut self, txn: TxnId) {
        time_section(TimeCategory::DoraLocal, || {
            self.entries.retain(|_, owners| {
                if owners.iter().any(|(owner, _)| *owner == txn) {
                    owners.retain(|(owner, _)| *owner != txn);
                }
                !owners.is_empty()
            });
        })
    }

    /// `true` if no locks are held.
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `true` if `txn` holds at least one lock in this table.
    pub(crate) fn holds_any(&self, txn: TxnId) -> bool {
        self.entries
            .values()
            .any(|owners| owners.iter().any(|(owner, _)| *owner == txn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_locks_coexist() {
        let mut table = LocalLockTable::new();
        assert_eq!(
            table.acquire(TxnId(1), &Key::int(5), LocalMode::Shared),
            LocalAcquire::Granted
        );
        assert_eq!(
            table.acquire(TxnId(2), &Key::int(5), LocalMode::Shared),
            LocalAcquire::Granted
        );
        assert_eq!(table.entries.len(), 1);
    }

    #[test]
    fn exclusive_conflicts_with_everything() {
        let mut table = LocalLockTable::new();
        table.acquire(TxnId(1), &Key::int(5), LocalMode::Exclusive);
        assert_eq!(
            table.acquire(TxnId(2), &Key::int(5), LocalMode::Shared),
            LocalAcquire::Conflict(vec![TxnId(1)])
        );
        assert_eq!(
            table.acquire(TxnId(2), &Key::int(5), LocalMode::Exclusive),
            LocalAcquire::Conflict(vec![TxnId(1)])
        );
        // A different identifier is unaffected.
        assert_eq!(
            table.acquire(TxnId(2), &Key::int(6), LocalMode::Exclusive),
            LocalAcquire::Granted
        );
    }

    #[test]
    fn key_prefix_overlap_conflicts() {
        let mut table = LocalLockTable::new();
        // T1 locks the whole warehouse-1 region.
        table.acquire(TxnId(1), &Key::int(1), LocalMode::Exclusive);
        // T2 wants district 3 of warehouse 1: blocked by the prefix lock.
        assert_eq!(
            table.acquire(TxnId(2), &Key::int2(1, 3), LocalMode::Exclusive),
            LocalAcquire::Conflict(vec![TxnId(1)])
        );
        // And the other direction: a fine-grained holder blocks a coarse
        // requester.
        let mut table = LocalLockTable::new();
        table.acquire(TxnId(1), &Key::int2(1, 3), LocalMode::Exclusive);
        assert_eq!(
            table.acquire(TxnId(2), &Key::int(1), LocalMode::Shared),
            LocalAcquire::Conflict(vec![TxnId(1)])
        );
    }

    #[test]
    fn reacquisition_and_upgrade_by_same_txn() {
        let mut table = LocalLockTable::new();
        assert_eq!(
            table.acquire(TxnId(1), &Key::int(7), LocalMode::Shared),
            LocalAcquire::Granted
        );
        assert_eq!(
            table.acquire(TxnId(1), &Key::int(7), LocalMode::Exclusive),
            LocalAcquire::Granted
        );
        // Only one grant is counted for the same (txn, identifier).
        assert_eq!(table.acquired, 1);
        // Another transaction now conflicts with the upgraded lock.
        assert_eq!(
            table.acquire(TxnId(2), &Key::int(7), LocalMode::Shared),
            LocalAcquire::Conflict(vec![TxnId(1)])
        );
    }

    #[test]
    fn release_frees_waiting_region() {
        let mut table = LocalLockTable::new();
        table.acquire(TxnId(1), &Key::int(9), LocalMode::Exclusive);
        table.acquire(TxnId(1), &Key::int(10), LocalMode::Exclusive);
        assert!(table.holds_any(TxnId(1)));
        table.release_txn(TxnId(1));
        assert!(table.is_empty());
        assert!(!table.holds_any(TxnId(1)));
        assert_eq!(
            table.acquire(TxnId(2), &Key::int(9), LocalMode::Exclusive),
            LocalAcquire::Granted
        );
    }

    #[test]
    fn conflict_lists_every_blocking_owner() {
        let mut table = LocalLockTable::new();
        table.acquire(TxnId(1), &Key::int(4), LocalMode::Shared);
        table.acquire(TxnId(2), &Key::int(4), LocalMode::Shared);
        match table.acquire(TxnId(3), &Key::int(4), LocalMode::Exclusive) {
            LocalAcquire::Conflict(owners) => {
                assert_eq!(owners, vec![TxnId(1), TxnId(2)]);
            }
            other => panic!("expected conflict, got {other:?}"),
        }
    }
}
