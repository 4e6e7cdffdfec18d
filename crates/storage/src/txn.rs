//! Transaction state and the transaction manager.
//!
//! The transaction manager allocates transaction ids and tracks per
//! transaction state: status, the ledger of centralized locks held (released
//! at commit/abort), whether the transaction has logged a change (commit then
//! appends and flushes a commit record) and its row writes. A transaction's
//! state is shared behind an `Arc` because under DORA a single transaction's
//! actions execute on several executor threads.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use dora_common::prelude::*;
use dora_metrics::{incr, CounterKind};

use crate::lock::HeldLocks;
use crate::mvcc::WriteList;

/// Lifecycle state of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnStatus {
    /// Running; may still acquire locks and write log records.
    Active,
    /// Successfully committed.
    Committed,
    /// Rolled back.
    Aborted,
}

/// Shared state of one transaction.
#[derive(Debug)]
pub struct TxnState {
    /// Transaction id.
    pub id: TxnId,
    status: Mutex<TxnStatus>,
    /// Centralized locks held; the lock manager's release path consumes this
    /// at commit/abort.
    pub(crate) held: Mutex<HeldLocks>,
    /// Set by whichever thread appends the transaction's first data-change
    /// record (the `Begin` record is written lazily just before it, so
    /// read-only transactions generate zero log traffic).
    begin_logged: AtomicBool,
    /// The row writes so far. Each write changes the heap and pushes its
    /// entry under this mutex; commit hands the list to the version store,
    /// abort clears it once every change is undone.
    pub(crate) writes: Mutex<WriteList>,
}

impl TxnState {
    fn new(id: TxnId) -> Self {
        Self {
            id,
            status: Mutex::new(TxnStatus::Active),
            held: Mutex::new(HeldLocks::new()),
            begin_logged: AtomicBool::new(false),
            writes: Mutex::new(WriteList::default()),
        }
    }

    /// Current status.
    pub fn status(&self) -> TxnStatus {
        *self.status.lock()
    }

    /// `true` while the transaction can still do work.
    pub fn is_active(&self) -> bool {
        self.status() == TxnStatus::Active
    }

    /// `true` once the transaction has logged any data-change record
    /// (commit must then append and flush a commit record).
    pub fn has_writes(&self) -> bool {
        self.begin_logged.load(Ordering::Acquire)
    }

    /// Number of centralized locks currently held (diagnostics / tests).
    pub fn held_lock_count(&self) -> usize {
        self.held.lock().len()
    }

    pub(crate) fn set_status(&self, status: TxnStatus) {
        *self.status.lock() = status;
    }

    /// Flags the transaction as having logged its `Begin` record; returns
    /// `true` exactly once (for the thread that must append it). Under DORA
    /// several executor threads may race to write the first data-change
    /// record, hence the atomic swap.
    pub(crate) fn claim_begin_record(&self) -> bool {
        !self.begin_logged.swap(true, Ordering::AcqRel)
    }
}

/// Allocates transaction ids and tracks active transactions.
pub struct TxnManager {
    next_id: AtomicU64,
    active: Mutex<Active>,
}

#[derive(Default)]
struct Active {
    txns: HashMap<TxnId, Arc<TxnState>>,
    /// The row-versioning period transactions are born into; 0 while no
    /// snapshot is open. It lives under the mutex `begin` and `finish` take
    /// anyway, so "which transactions began before versioning came on" is
    /// this map at the moment of the flip.
    versioning: u64,
}

impl std::fmt::Debug for TxnManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnManager")
            .field("active", &self.active_count())
            .finish()
    }
}

impl Default for TxnManager {
    fn default() -> Self {
        Self::new()
    }
}

impl TxnManager {
    /// Creates a transaction manager.
    pub fn new() -> Self {
        Self {
            next_id: AtomicU64::new(1),
            active: Mutex::new(Active::default()),
        }
    }

    /// Starts a new transaction.
    pub fn begin(&self) -> Arc<TxnState> {
        let id = TxnId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let state = Arc::new(TxnState::new(id));
        let mut active = self.active.lock();
        state.writes.lock().born_in(active.versioning);
        active.txns.insert(id, Arc::clone(&state));
        state
    }

    /// Starts row-versioning period `period`: from here on transactions are
    /// born into it. Runs `swap` before any of them can begin and returns its
    /// result with the transactions in flight, which began under the old
    /// regime.
    pub(crate) fn start_versioning<R>(
        &self,
        period: u64,
        swap: impl FnOnce() -> R,
    ) -> (Vec<Arc<TxnState>>, R) {
        let mut active = self.active.lock();
        active.versioning = period;
        let swapped = swap();
        (active.txns.values().cloned().collect(), swapped)
    }

    /// Ends the row-versioning period: transactions are born unversioned.
    pub(crate) fn stop_versioning(&self) {
        self.active.lock().versioning = 0;
    }

    /// Marks a transaction finished and forgets it.
    pub fn finish(&self, txn: &TxnState, status: TxnStatus) {
        txn.set_status(status);
        self.active.lock().txns.remove(&txn.id);
        match status {
            TxnStatus::Committed => incr(CounterKind::TxnCommitted),
            TxnStatus::Aborted => incr(CounterKind::TxnAborted),
            TxnStatus::Active => {}
        }
    }

    /// Number of transactions currently active.
    pub fn active_count(&self) -> usize {
        self.active.lock().txns.len()
    }

    /// Looks up an active transaction by id.
    pub fn get(&self, id: TxnId) -> Option<Arc<TxnState>> {
        self.active.lock().txns.get(&id).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_and_finish_lifecycle() {
        let manager = TxnManager::new();
        let txn = manager.begin();
        assert!(txn.is_active());
        assert_eq!(manager.active_count(), 1);
        assert!(manager.get(txn.id).is_some());
        manager.finish(&txn, TxnStatus::Committed);
        assert_eq!(txn.status(), TxnStatus::Committed);
        assert_eq!(manager.active_count(), 0);
        assert!(manager.get(txn.id).is_none());
    }

    #[test]
    fn txn_ids_are_unique_across_threads() {
        let manager = Arc::new(TxnManager::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let manager = Arc::clone(&manager);
                std::thread::spawn(move || (0..250).map(|_| manager.begin().id).collect::<Vec<_>>())
            })
            .collect();
        let mut all = Vec::new();
        for handle in handles {
            all.extend(handle.join().unwrap());
        }
        let unique: std::collections::HashSet<_> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len());
    }
}
