//! The centralized, hierarchical lock manager.
//!
//! This is the component Section 3 of the paper dissects and blames for the
//! scalability collapse of conventional OLTP on multicores, and the component
//! DORA bypasses. Its structure follows the paper's description of Shore-MT:
//!
//! * every logical lock is a data structure holding the lock's mode, a linked
//!   list of granted/pending requests, and a **latch**;
//! * acquiring a lock first ensures the proper **intention locks** higher up
//!   the hierarchy (database → table → record) are held, then probes a hash
//!   table, latches the lock head, and appends the request;
//! * releasing walks the transaction's requests youngest-first, latching each
//!   lock, unlinking the request, recomputing the group mode and waking any
//!   pending requests that can now be granted;
//! * deadlock detection runs over a waits-for graph; DORA's thread-local lock
//!   tables can feed their own waits into the same detector (Section 4.2.3).
//!
//! All latch spin time and logical lock wait time is recorded into
//! [`dora_metrics`] so the harness can reproduce Figures 1–3.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use dora_common::prelude::*;
use dora_common::sync::OneShot;
use dora_metrics::{incr, CounterKind, TimeCategory, TimerGuard};

use crate::latch::Latch;

/// Hierarchical lock modes, as in System R and Shore-MT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Intention shared: some descendant is locked in S.
    IS,
    /// Intention exclusive: some descendant is locked in X.
    IX,
    /// Shared.
    S,
    /// Shared + intention exclusive.
    SIX,
    /// Exclusive.
    X,
}

impl LockMode {
    /// Standard multigranularity compatibility matrix.
    pub fn compatible(self, other: LockMode) -> bool {
        use LockMode::*;
        matches!(
            (self, other),
            (IS, IS)
                | (IS, IX)
                | (IS, S)
                | (IS, SIX)
                | (IX, IS)
                | (IX, IX)
                | (S, IS)
                | (S, S)
                | (SIX, IS)
        )
    }

    /// Least upper bound of two modes in the lock lattice: the mode a
    /// transaction must hold to cover both. Used for lock upgrades
    /// (e.g. S + IX = SIX, S + X = X).
    pub fn combine(self, other: LockMode) -> LockMode {
        use LockMode::*;
        if self == other {
            return self;
        }
        match (self, other) {
            (X, _) | (_, X) => X,
            (SIX, _) | (_, SIX) => SIX,
            (S, IX) | (IX, S) => SIX,
            (S, IS) | (IS, S) => S,
            (IX, IS) | (IS, IX) => IX,
            (IS, IS) => IS,
            (S, S) => S,
            (IX, IX) => IX,
        }
    }

    /// `true` if holding `self` also satisfies a request for `other`.
    pub fn covers(self, other: LockMode) -> bool {
        self.combine(other) == self
    }

    /// The intention mode a parent in the hierarchy must be held in before
    /// requesting `self` on a child.
    pub fn intention(self) -> LockMode {
        use LockMode::*;
        match self {
            IS | S => IS,
            IX | SIX | X => IX,
        }
    }
}

/// Identity of a lockable resource in the hierarchy.
///
/// The paper's analysis needs three levels: the database, tables (whose
/// intention locks every transaction touches and which therefore become the
/// hot, contended lock heads) and records. Record locks are keyed by RID,
/// matching Shore-MT and the insert/delete slot coordination of
/// Section 4.2.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockId {
    /// The whole database.
    Database,
    /// A table.
    Table(TableId),
    /// A record, addressed by its table and packed RID.
    Record(TableId, u64),
}

impl LockId {
    /// Builds the record lock id for a RID.
    pub fn record(table: TableId, rid: Rid) -> Self {
        LockId::Record(table, rid.pack())
    }

    /// The parent resource in the hierarchy, if any.
    pub fn parent(self) -> Option<LockId> {
        match self {
            LockId::Database => None,
            LockId::Table(_) => Some(LockId::Database),
            LockId::Record(table, _) => Some(LockId::Table(table)),
        }
    }

    /// `true` if this is a row-level (record) lock. Figure 5 of the paper
    /// splits lock counts into row-level and higher-level.
    pub fn is_row_level(self) -> bool {
        matches!(self, LockId::Record(_, _))
    }
}

/// Why a blocked request stopped waiting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GrantOutcome {
    Granted,
    Deadlock,
    Timeout,
}

/// One entry in a lock head's request list.
#[derive(Debug)]
struct LockRequest {
    txn: TxnId,
    /// Mode currently granted (meaningful only when `granted`).
    granted_mode: LockMode,
    /// Mode the request wants (differs from `granted_mode` during upgrades).
    wanted_mode: LockMode,
    granted: bool,
    /// The cell the requester sleeps on: made for each wait (a fresh
    /// request that blocks, or an upgrade that does), `None` for a request
    /// granted on arrival, which nobody ever wakes. Each cell is set at most
    /// once: a grant flips `granted` (or settles the upgrade's mode) and a
    /// pending request is removed before it is told `Deadlock`, so no later
    /// sweep reaches it again.
    signal: Option<Arc<OneShot<GrantOutcome>>>,
}

impl LockRequest {
    fn notify(&self, outcome: GrantOutcome) {
        if let Some(signal) = &self.signal {
            signal.set(outcome);
        }
    }
}

/// State behind a lock head's latch.
#[derive(Debug, Default)]
struct LockHeadInner {
    requests: Vec<LockRequest>,
    /// Set when the head has been unlinked from its hash bucket; a racer that
    /// still holds an `Arc` must retry its probe.
    unlinked: bool,
}

impl LockHeadInner {
    /// Transactions whose granted or earlier pending requests are
    /// incompatible with `mode` (ignoring `except`'s own requests).
    fn conflicting_txns(&self, mode: LockMode, except: TxnId) -> Vec<TxnId> {
        self.requests
            .iter()
            .filter(|r| r.txn != except)
            .filter(|r| {
                let other = if r.granted {
                    r.granted_mode
                } else {
                    r.wanted_mode
                };
                !mode.compatible(other)
            })
            .map(|r| r.txn)
            .collect()
    }

    /// FIFO grant sweep: grants every pending request (in arrival order) that
    /// is compatible with the currently granted group, stopping lock-mode
    /// upgrades ahead of ordinary requests.
    fn grant_pending(&mut self) {
        // Upgrades (granted request whose wanted mode is stronger) first.
        for i in 0..self.requests.len() {
            if self.requests[i].granted
                && self.requests[i].wanted_mode != self.requests[i].granted_mode
            {
                let wanted = self.requests[i].wanted_mode;
                let txn = self.requests[i].txn;
                let compatible = self
                    .requests
                    .iter()
                    .filter(|r| r.granted && r.txn != txn)
                    .all(|r| wanted.compatible(r.granted_mode));
                if compatible {
                    self.requests[i].granted_mode = wanted;
                    self.requests[i].notify(GrantOutcome::Granted);
                }
            }
        }
        // Then plain pending requests in FIFO order.
        for i in 0..self.requests.len() {
            if !self.requests[i].granted {
                let wanted = self.requests[i].wanted_mode;
                let compatible = self
                    .requests
                    .iter()
                    .take(i)
                    .chain(self.requests.iter().skip(i + 1))
                    .filter(|r| r.granted)
                    .all(|r| wanted.compatible(r.granted_mode));
                if !compatible {
                    // Preserve FIFO order: later requests stay blocked behind
                    // this one.
                    break;
                }
                self.requests[i].granted = true;
                self.requests[i].granted_mode = wanted;
                self.requests[i].notify(GrantOutcome::Granted);
            }
        }
    }
}

/// A lock head: the per-resource structure holding the request list.
#[derive(Debug)]
struct LockHead {
    inner: Latch<LockHeadInner>,
}

impl LockHead {
    fn new() -> Self {
        Self {
            inner: Latch::new(LockHeadInner::default()),
        }
    }
}

type Bucket = Latch<HashMap<LockId, Arc<LockHead>>>;

/// The centralized lock manager.
pub struct LockManager {
    buckets: Vec<Bucket>,
    /// Waits-for graph: waiter → (holder → number of live wait edges). Edges
    /// are *counted* because one transaction can wait at several places at
    /// once — two actions parked at different DORA executors, or a parked
    /// action plus a blocked centralized acquire — and resolving one wait
    /// must not erase the edges the others still need for cycle detection.
    waits_for: Mutex<HashMap<TxnId, HashMap<TxnId, usize>>>,
    deadlock_detection: bool,
    wait_timeout: Duration,
}

impl std::fmt::Debug for LockManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockManager")
            .field("buckets", &self.buckets.len())
            .finish()
    }
}

/// Per-transaction record of held locks; owned by the transaction state and
/// handed back to the lock manager at commit/abort for release.
#[derive(Debug, Default)]
pub struct HeldLocks {
    /// Acquisition order is preserved so release can run youngest-first.
    locks: Vec<(LockId, LockMode)>,
    /// Fast lookup of the strongest mode held per lock.
    modes: HashMap<LockId, LockMode>,
}

impl HeldLocks {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Strongest mode held on `id`, if any.
    pub fn mode(&self, id: &LockId) -> Option<LockMode> {
        self.modes.get(id).copied()
    }

    /// Number of distinct locks held.
    pub fn len(&self) -> usize {
        self.modes.len()
    }

    /// `true` if no locks are held.
    pub fn is_empty(&self) -> bool {
        self.modes.is_empty()
    }

    fn note(&mut self, id: LockId, mode: LockMode) {
        match self.modes.get_mut(&id) {
            Some(existing) => {
                *existing = existing.combine(mode);
            }
            None => {
                self.modes.insert(id, mode);
                self.locks.push((id, mode));
            }
        }
    }
}

/// Default number of hash buckets in the lock table.
const DEFAULT_BUCKETS: usize = 1024;

/// How long a blocked request waits before giving up. This is a safety net
/// (the deadlock detector should fire first); it maps to an abort, like a
/// lock timeout would in a production engine.
const DEFAULT_WAIT_TIMEOUT: Duration = Duration::from_secs(10);

impl LockManager {
    /// Creates a lock manager with deadlock detection enabled.
    pub fn new(deadlock_detection: bool) -> Self {
        Self {
            buckets: (0..DEFAULT_BUCKETS)
                .map(|_| Latch::new(HashMap::new()))
                .collect(),
            waits_for: Mutex::new(HashMap::new()),
            deadlock_detection,
            wait_timeout: DEFAULT_WAIT_TIMEOUT,
        }
    }

    /// Overrides the blocked-request timeout (tests use short values).
    pub fn with_wait_timeout(mut self, timeout: Duration) -> Self {
        self.wait_timeout = timeout;
        self
    }

    fn bucket(&self, id: &LockId) -> &Bucket {
        let mut hasher = DefaultHasher::new();
        id.hash(&mut hasher);
        &self.buckets[(hasher.finish() as usize) % self.buckets.len()]
    }

    fn head_for(&self, id: LockId) -> Arc<LockHead> {
        loop {
            let head = {
                let mut bucket = self
                    .bucket(&id)
                    .lock(TimeCategory::LockMgrAcquireContention);
                Arc::clone(
                    bucket
                        .entry(id)
                        .or_insert_with(|| Arc::new(LockHead::new())),
                )
            };
            // The head may have been unlinked between our probe and latch; the
            // check happens under the head latch in the caller, so hand the
            // caller a closure-ish contract: we verify here quickly instead.
            let inner = head.inner.lock(TimeCategory::LockMgrAcquireContention);
            if !inner.unlinked {
                drop(inner);
                return head;
            }
        }
    }

    /// Acquires `mode` on `id` for `txn`, blocking if necessary.
    ///
    /// `held` is the transaction's private ledger of locks; re-acquiring a
    /// lock already covered by a held mode is a no-op (this is how intention
    /// locks end up being acquired once per transaction rather than once per
    /// record access).
    pub fn acquire(
        &self,
        txn: TxnId,
        held: &mut HeldLocks,
        id: LockId,
        mode: LockMode,
    ) -> DbResult<()> {
        if let Some(existing) = held.mode(&id) {
            if existing.covers(mode) {
                return Ok(());
            }
        }
        let mut timer = TimerGuard::new(TimeCategory::LockMgrAcquire);

        let head = self.head_for(id);
        let mut inner = head.inner.lock(TimeCategory::LockMgrAcquireContention);
        if inner.unlinked {
            // Extremely unlikely (checked in head_for); retry.
            drop(inner);
            drop(timer);
            return self.acquire(txn, held, id, mode);
        }
        // Upgrade path: the transaction already has a request here.
        if let Some(pos) = inner.requests.iter().position(|r| r.txn == txn) {
            let wanted = inner.requests[pos].granted_mode.combine(mode);
            if inner.requests[pos].granted && inner.requests[pos].granted_mode.covers(mode) {
                held.note(id, wanted);
                return Ok(());
            }
            let others_compatible = inner
                .requests
                .iter()
                .filter(|r| r.granted && r.txn != txn)
                .all(|r| wanted.compatible(r.granted_mode));
            if others_compatible {
                inner.requests[pos].granted_mode = wanted;
                inner.requests[pos].wanted_mode = wanted;
                inner.requests[pos].granted = true;
                held.note(id, wanted);
                self.count_acquisition(id);
                return Ok(());
            }
            // Must wait for the conversion, on a cell of its own: one left
            // from an earlier wait already says `Granted`.
            let signal = Arc::new(OneShot::new());
            inner.requests[pos].wanted_mode = wanted;
            inner.requests[pos].signal = Some(Arc::clone(&signal));
            let blockers = inner.conflicting_txns(wanted, txn);
            drop(inner);
            self.block_on(txn, held, id, wanted, &head, signal, blockers, &mut timer)?;
            self.count_acquisition(id);
            return Ok(());
        }
        // Fresh request.
        let wanted = mode;
        let compatible_with_granted = inner
            .requests
            .iter()
            .filter(|r| r.granted)
            .all(|r| wanted.compatible(r.granted_mode));
        let no_pending = inner.requests.iter().all(|r| r.granted);
        if compatible_with_granted && no_pending {
            inner.requests.push(LockRequest {
                txn,
                granted_mode: wanted,
                wanted_mode: wanted,
                granted: true,
                signal: None,
            });
            held.note(id, wanted);
            self.count_acquisition(id);
            return Ok(());
        }
        // Must block.
        let signal = Arc::new(OneShot::new());
        inner.requests.push(LockRequest {
            txn,
            granted_mode: wanted,
            wanted_mode: wanted,
            granted: false,
            signal: Some(Arc::clone(&signal)),
        });
        let blockers = inner.conflicting_txns(wanted, txn);
        drop(inner);
        self.block_on(txn, held, id, wanted, &head, signal, blockers, &mut timer)?;
        self.count_acquisition(id);
        Ok(())
    }

    /// Shared blocking path for fresh waits and upgrade waits.
    #[allow(clippy::too_many_arguments)]
    fn block_on(
        &self,
        txn: TxnId,
        held: &mut HeldLocks,
        id: LockId,
        wanted: LockMode,
        head: &Arc<LockHead>,
        signal: Arc<OneShot<GrantOutcome>>,
        blockers: Vec<TxnId>,
        timer: &mut TimerGuard,
    ) -> DbResult<()> {
        incr(CounterKind::LockWaits);
        self.add_waits(txn, &blockers);
        if self.deadlock_detection && self.creates_cycle(txn) {
            self.remove_waits(txn, &blockers);
            self.cancel_request(head, txn, id, held);
            incr(CounterKind::DeadlockVictim);
            return Err(DbError::Deadlock { victim: txn });
        }
        timer.switch(TimeCategory::LockWait);
        let outcome = signal
            .wait_until(Instant::now() + self.wait_timeout)
            .unwrap_or(GrantOutcome::Timeout);
        timer.switch(TimeCategory::LockMgrAcquire);
        // Drop exactly the edges this wait registered; a concurrent action of
        // the same transaction parked on a DORA local lock keeps its edges.
        self.remove_waits(txn, &blockers);
        match outcome {
            GrantOutcome::Granted => {
                held.note(id, wanted);
                Ok(())
            }
            GrantOutcome::Deadlock => {
                self.cancel_request(head, txn, id, held);
                incr(CounterKind::DeadlockVictim);
                Err(DbError::Deadlock { victim: txn })
            }
            GrantOutcome::Timeout => {
                self.cancel_request(head, txn, id, held);
                incr(CounterKind::DeadlockVictim);
                Err(DbError::Deadlock { victim: txn })
            }
        }
    }

    /// Removes a pending (never granted) request after a deadlock or timeout.
    /// If the request was granted concurrently with the decision to give up,
    /// it is released instead so no lock leaks: `held`, the transaction's
    /// ledger, never learned of it, so the abort would not release it.
    fn cancel_request(&self, head: &Arc<LockHead>, txn: TxnId, id: LockId, held: &HeldLocks) {
        let mut inner = head.inner.lock(TimeCategory::LockMgrAcquireContention);
        if let Some(pos) = inner.requests.iter().position(|r| r.txn == txn) {
            let was_upgrade = inner.requests[pos].granted
                && inner.requests[pos].wanted_mode != inner.requests[pos].granted_mode;
            if was_upgrade {
                // Keep the originally granted mode; just forget the upgrade.
                let granted_mode = inner.requests[pos].granted_mode;
                inner.requests[pos].wanted_mode = granted_mode;
            } else if !inner.requests[pos].granted || held.mode(&id).is_none() {
                inner.requests.remove(pos);
            } else {
                // An upgrade granted between timeout and cancellation: the
                // ledger has the lock, so the abort releases it.
            }
            inner.grant_pending();
        }
    }

    /// Releases every lock `txn` holds, youngest first, waking any waiters
    /// that become grantable. The caller passes the transaction's ledger by
    /// value; afterwards the transaction holds nothing.
    pub fn release_all(&self, txn: TxnId, held: HeldLocks) {
        for (id, _) in held.locks.iter().rev() {
            self.release_one(txn, *id);
        }
        self.clear_waits(txn);
    }

    fn release_one(&self, txn: TxnId, id: LockId) {
        let mut timer = TimerGuard::new(TimeCategory::LockMgrRelease);
        let head = {
            let bucket = self
                .bucket(&id)
                .lock(TimeCategory::LockMgrReleaseContention);
            match bucket.get(&id) {
                Some(head) => Arc::clone(head),
                None => return,
            }
        };
        let empty = {
            let mut inner = head.inner.lock(TimeCategory::LockMgrReleaseContention);
            if let Some(pos) = inner.requests.iter().position(|r| r.txn == txn) {
                let request = inner.requests.remove(pos);
                if !request.granted {
                    // A pending request released at abort: wake it so the
                    // waiter (if any) does not hang; it will observe deadlock.
                    request.notify(GrantOutcome::Deadlock);
                }
            }
            inner.grant_pending();
            inner.requests.is_empty()
        };
        timer.switch(TimeCategory::LockMgrRelease);
        if empty {
            // Unlink the now-empty head so record locks do not accumulate.
            let mut bucket = self
                .bucket(&id)
                .lock(TimeCategory::LockMgrReleaseContention);
            if let Some(candidate) = bucket.get(&id) {
                if Arc::ptr_eq(candidate, &head) {
                    let mut inner = head.inner.lock(TimeCategory::LockMgrReleaseContention);
                    if inner.requests.is_empty() {
                        inner.unlinked = true;
                        drop(inner);
                        bucket.remove(&id);
                    }
                }
            }
        }
    }

    fn count_acquisition(&self, id: LockId) {
        if id.is_row_level() {
            incr(CounterKind::RowLevelLock);
        } else {
            incr(CounterKind::HigherLevelLock);
        }
    }

    // ----- waits-for graph -------------------------------------------------

    fn add_waits(&self, waiter: TxnId, holders: &[TxnId]) {
        if holders.is_empty() {
            return;
        }
        let mut graph = self.waits_for.lock();
        let edges = graph.entry(waiter).or_default();
        for holder in holders {
            *edges.entry(*holder).or_insert(0) += 1;
        }
    }

    /// Removes one wait edge per listed holder. Edges another wait of the
    /// same transaction still relies on (count > 1) survive; holders with no
    /// recorded edge are ignored.
    fn remove_waits(&self, waiter: TxnId, holders: &[TxnId]) {
        if holders.is_empty() {
            return;
        }
        let mut graph = self.waits_for.lock();
        if let Some(edges) = graph.get_mut(&waiter) {
            for holder in holders {
                if let Some(count) = edges.get_mut(holder) {
                    *count -= 1;
                    if *count == 0 {
                        edges.remove(holder);
                    }
                }
            }
            if edges.is_empty() {
                graph.remove(&waiter);
            }
        }
    }

    fn clear_waits(&self, waiter: TxnId) {
        self.waits_for.lock().remove(&waiter);
    }

    /// Registers a wait edge coming from outside the lock manager — DORA's
    /// thread-local lock tables use this so that waits on local locks
    /// participate in global deadlock detection (Section 4.2.3).
    pub fn add_external_wait(&self, waiter: TxnId, holder: TxnId) -> DbResult<()> {
        self.add_waits(waiter, &[holder]);
        if self.deadlock_detection && self.creates_cycle(waiter) {
            // Undo only the edge that closed the cycle; the transaction's
            // other waits (parked actions at other executors) stay in the
            // graph — they are still real until those actions resolve.
            self.remove_waits(waiter, &[holder]);
            incr(CounterKind::DeadlockVictim);
            return Err(DbError::Deadlock { victim: waiter });
        }
        Ok(())
    }

    /// Removes the specific wait edges a resolved local-lock wait had
    /// registered — one edge per holder in `holders`. Edges registered by
    /// the transaction's other still-pending waits are preserved.
    pub fn remove_external_waits(&self, waiter: TxnId, holders: &[TxnId]) {
        self.remove_waits(waiter, holders);
    }

    /// Removes every wait edge originating at `waiter` — for transaction
    /// completion, when no wait of the transaction can still be live.
    pub fn remove_external_wait(&self, waiter: TxnId) {
        self.clear_waits(waiter);
    }

    /// DFS over the waits-for graph looking for a cycle through `start`.
    fn creates_cycle(&self, start: TxnId) -> bool {
        let graph = self.waits_for.lock();
        let mut stack: Vec<TxnId> = graph
            .get(&start)
            .map(|edges| edges.keys().copied().collect())
            .unwrap_or_default();
        let mut visited = HashSet::new();
        while let Some(current) = stack.pop() {
            if current == start {
                return true;
            }
            if !visited.insert(current) {
                continue;
            }
            if let Some(next) = graph.get(&current) {
                stack.extend(next.keys().copied());
            }
        }
        false
    }

    /// Number of lock heads currently linked into the hash table (for tests
    /// and diagnostics).
    pub fn live_lock_heads(&self) -> usize {
        self.buckets
            .iter()
            .map(|bucket| bucket.lock(TimeCategory::LockMgrOther).len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn manager() -> Arc<LockManager> {
        Arc::new(LockManager::new(true).with_wait_timeout(Duration::from_secs(2)))
    }

    #[test]
    fn compatibility_matrix_is_symmetric() {
        use LockMode::*;
        let modes = [IS, IX, S, SIX, X];
        for a in modes {
            for b in modes {
                assert_eq!(a.compatible(b), b.compatible(a), "{a:?} vs {b:?}");
            }
        }
        assert!(IS.compatible(IX));
        assert!(!S.compatible(IX));
        assert!(!X.compatible(IS));
        assert!(SIX.compatible(IS));
        assert!(!SIX.compatible(S));
    }

    #[test]
    fn combine_produces_supremum() {
        use LockMode::*;
        assert_eq!(S.combine(IX), SIX);
        assert_eq!(IS.combine(IX), IX);
        assert_eq!(S.combine(X), X);
        assert_eq!(IS.combine(S), S);
        assert_eq!(SIX.combine(IS), SIX);
        assert!(X.covers(S));
        assert!(!S.covers(X));
    }

    #[test]
    fn combine_is_a_least_upper_bound_over_covers() {
        use LockMode::*;
        let modes = [IS, IX, S, SIX, X];
        for a in modes {
            // Idempotent and reflexive.
            assert_eq!(a.combine(a), a);
            assert!(a.covers(a));
            for b in modes {
                let join = a.combine(b);
                // Commutative.
                assert_eq!(join, b.combine(a), "combine({a:?}, {b:?}) not commutative");
                // Upper bound: the join satisfies both operands.
                assert!(
                    join.covers(a),
                    "combine({a:?}, {b:?}) = {join:?} does not cover {a:?}"
                );
                assert!(
                    join.covers(b),
                    "combine({a:?}, {b:?}) = {join:?} does not cover {b:?}"
                );
                // Least: anything covering both operands covers the join.
                for c in modes {
                    if c.covers(a) && c.covers(b) {
                        assert!(
                            c.covers(join),
                            "{c:?} covers {a:?} and {b:?} but not their join {join:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn stronger_modes_conflict_with_at_least_as_much() {
        // If `strong` covers `weak`, anything compatible with `strong` must
        // also be compatible with `weak` — upgrades can only shrink the set
        // of admissible concurrent holders.
        use LockMode::*;
        let modes = [IS, IX, S, SIX, X];
        for strong in modes {
            for weak in modes {
                if !strong.covers(weak) {
                    continue;
                }
                for other in modes {
                    if strong.compatible(other) {
                        assert!(
                            weak.compatible(other),
                            "{strong:?} covers {weak:?} and allows {other:?}, but {weak:?} \
                             rejects it"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn intention_modes() {
        assert_eq!(LockMode::S.intention(), LockMode::IS);
        assert_eq!(LockMode::X.intention(), LockMode::IX);
        assert_eq!(LockMode::SIX.intention(), LockMode::IX);
    }

    #[test]
    fn shared_locks_do_not_block_each_other() {
        let manager = manager();
        let id = LockId::Table(TableId(1));
        let mut held1 = HeldLocks::new();
        let mut held2 = HeldLocks::new();
        manager
            .acquire(TxnId(1), &mut held1, id, LockMode::S)
            .unwrap();
        manager
            .acquire(TxnId(2), &mut held2, id, LockMode::S)
            .unwrap();
        manager.release_all(TxnId(1), held1);
        manager.release_all(TxnId(2), held2);
    }

    #[test]
    fn exclusive_lock_blocks_until_release() {
        let manager = manager();
        let id = LockId::record(TableId(1), Rid::new(0, 0));
        let mut held1 = HeldLocks::new();
        manager
            .acquire(TxnId(1), &mut held1, id, LockMode::X)
            .unwrap();

        let acquired = Arc::new(AtomicBool::new(false));
        let acquired_clone = Arc::clone(&acquired);
        let manager_clone = Arc::clone(&manager);
        let waiter = std::thread::spawn(move || {
            let mut held2 = HeldLocks::new();
            manager_clone
                .acquire(TxnId(2), &mut held2, id, LockMode::X)
                .unwrap();
            acquired_clone.store(true, Ordering::SeqCst);
            manager_clone.release_all(TxnId(2), held2);
        });
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            !acquired.load(Ordering::SeqCst),
            "waiter should still be blocked"
        );
        manager.release_all(TxnId(1), held1);
        waiter.join().unwrap();
        assert!(acquired.load(Ordering::SeqCst));
    }

    #[test]
    fn reacquiring_a_covered_lock_is_a_noop() {
        let manager = manager();
        let id = LockId::Table(TableId(3));
        let mut held = HeldLocks::new();
        manager
            .acquire(TxnId(1), &mut held, id, LockMode::X)
            .unwrap();
        manager
            .acquire(TxnId(1), &mut held, id, LockMode::S)
            .unwrap();
        manager
            .acquire(TxnId(1), &mut held, id, LockMode::IX)
            .unwrap();
        assert_eq!(held.len(), 1);
        manager.release_all(TxnId(1), held);
    }

    #[test]
    fn upgrade_from_shared_to_exclusive() {
        let manager = manager();
        let id = LockId::record(TableId(1), Rid::new(1, 1));
        let mut held = HeldLocks::new();
        manager
            .acquire(TxnId(1), &mut held, id, LockMode::S)
            .unwrap();
        manager
            .acquire(TxnId(1), &mut held, id, LockMode::X)
            .unwrap();
        assert_eq!(held.mode(&id), Some(LockMode::X));
        manager.release_all(TxnId(1), held);
    }

    /// A request that waited once and is later upgraded must wait again
    /// while another holder is incompatible: the upgrade sleeps on a cell
    /// of its own, not on the one that already said `Granted`.
    #[test]
    fn an_upgrade_after_a_granted_wait_waits_for_the_other_holder() {
        let manager = manager();
        let id = LockId::record(TableId(1), Rid::new(2, 2));
        let mut held1 = HeldLocks::new();
        manager
            .acquire(TxnId(1), &mut held1, id, LockMode::X)
            .unwrap();
        let manager_clone = Arc::clone(&manager);
        let reader = std::thread::spawn(move || {
            let mut held2 = HeldLocks::new();
            manager_clone
                .acquire(TxnId(2), &mut held2, id, LockMode::S)
                .unwrap();
            held2
        });
        std::thread::sleep(Duration::from_millis(50));
        manager.release_all(TxnId(1), held1);
        let mut held2 = reader.join().unwrap();
        let mut held3 = HeldLocks::new();
        manager
            .acquire(TxnId(3), &mut held3, id, LockMode::S)
            .unwrap();

        let upgraded = Arc::new(AtomicBool::new(false));
        let upgraded_clone = Arc::clone(&upgraded);
        let manager_clone = Arc::clone(&manager);
        let upgrader = std::thread::spawn(move || {
            manager_clone
                .acquire(TxnId(2), &mut held2, id, LockMode::X)
                .unwrap();
            upgraded_clone.store(true, Ordering::SeqCst);
            manager_clone.release_all(TxnId(2), held2);
        });
        std::thread::sleep(Duration::from_millis(100));
        assert!(
            !upgraded.load(Ordering::SeqCst),
            "the upgrade to X was granted beside another S holder"
        );
        manager.release_all(TxnId(3), held3);
        upgrader.join().unwrap();
        assert!(upgraded.load(Ordering::SeqCst));
    }

    /// A waiter that gives up (deadlock victim or timeout) just after the
    /// sweep granted its request must not keep the lock: its ledger never
    /// learned of it, so its abort cannot release it, and every later
    /// request would stall until its own timeout.
    #[test]
    fn a_request_granted_as_its_waiter_gives_up_is_released() {
        let manager =
            Arc::new(LockManager::new(true).with_wait_timeout(Duration::from_millis(200)));
        let id = LockId::record(TableId(1), Rid::new(3, 3));
        let mut held1 = HeldLocks::new();
        manager
            .acquire(TxnId(1), &mut held1, id, LockMode::X)
            .unwrap();
        // T2 queues behind T1, as `acquire` does before it sleeps.
        let head = manager.head_for(id);
        head.inner
            .lock(TimeCategory::LockMgrAcquireContention)
            .requests
            .push(LockRequest {
                txn: TxnId(2),
                granted_mode: LockMode::X,
                wanted_mode: LockMode::X,
                granted: false,
                signal: Some(Arc::new(OneShot::new())),
            });
        // T1's release grants it; T2 has already decided to give up.
        manager.release_all(TxnId(1), held1);
        let held2 = HeldLocks::new();
        manager.cancel_request(&head, TxnId(2), id, &held2);
        manager.release_all(TxnId(2), held2);

        let mut held3 = HeldLocks::new();
        manager
            .acquire(TxnId(3), &mut held3, id, LockMode::X)
            .expect("nobody holds the lock");
        manager.release_all(TxnId(3), held3);
    }

    #[test]
    fn deadlock_is_detected() {
        let manager = manager();
        let id_a = LockId::record(TableId(1), Rid::new(0, 1));
        let id_b = LockId::record(TableId(1), Rid::new(0, 2));

        let mut held1 = HeldLocks::new();
        manager
            .acquire(TxnId(1), &mut held1, id_a, LockMode::X)
            .unwrap();

        let manager_clone = Arc::clone(&manager);
        let other = std::thread::spawn(move || {
            let mut held2 = HeldLocks::new();
            manager_clone
                .acquire(TxnId(2), &mut held2, id_b, LockMode::X)
                .unwrap();
            // Now try to take A; this blocks on T1.
            let result = manager_clone.acquire(TxnId(2), &mut held2, id_a, LockMode::X);
            manager_clone.release_all(TxnId(2), held2);
            result
        });
        std::thread::sleep(Duration::from_millis(50));
        // T1 tries to take B, closing the cycle: one of the two must abort.
        let result1 = manager.acquire(TxnId(1), &mut held1, id_b, LockMode::X);
        let result2 = other.join().unwrap();
        manager.release_all(TxnId(1), held1);
        assert!(
            result1.is_err() || result2.is_err(),
            "at least one participant must be chosen as deadlock victim"
        );
    }

    #[test]
    fn lock_counters_split_row_and_higher_level() {
        use dora_metrics::global;
        let before = global().snapshot();
        let manager = manager();
        let mut held = HeldLocks::new();
        manager
            .acquire(TxnId(9), &mut held, LockId::Database, LockMode::IX)
            .unwrap();
        manager
            .acquire(TxnId(9), &mut held, LockId::Table(TableId(1)), LockMode::IX)
            .unwrap();
        manager
            .acquire(
                TxnId(9),
                &mut held,
                LockId::record(TableId(1), Rid::new(0, 0)),
                LockMode::X,
            )
            .unwrap();
        manager.release_all(TxnId(9), held);
        let delta = global().snapshot().since(&before);
        assert!(delta.counter(CounterKind::HigherLevelLock) >= 2);
        assert!(delta.counter(CounterKind::RowLevelLock) >= 1);
    }

    #[test]
    fn empty_heads_are_unlinked_after_release() {
        let manager = manager();
        let mut held = HeldLocks::new();
        for i in 0..100u16 {
            manager
                .acquire(
                    TxnId(5),
                    &mut held,
                    LockId::record(TableId(1), Rid::new(0, i)),
                    LockMode::X,
                )
                .unwrap();
        }
        assert!(manager.live_lock_heads() >= 100);
        manager.release_all(TxnId(5), held);
        assert_eq!(manager.live_lock_heads(), 0);
    }

    #[test]
    fn external_waits_feed_deadlock_detection() {
        let manager = manager();
        manager.add_external_wait(TxnId(1), TxnId(2)).unwrap();
        let result = manager.add_external_wait(TxnId(2), TxnId(1));
        assert!(matches!(result, Err(DbError::Deadlock { .. })));
        manager.remove_external_wait(TxnId(1));
        manager.remove_external_wait(TxnId(2));
    }

    #[test]
    fn external_wait_edges_are_counted_per_wait() {
        // A transaction parked at two executors registers the same edge
        // twice; resolving one wait must leave the other's edge in place so
        // a cycle through it is still caught.
        let manager = manager();
        manager.add_external_wait(TxnId(1), TxnId(2)).unwrap();
        manager.add_external_wait(TxnId(1), TxnId(2)).unwrap();
        manager.remove_external_waits(TxnId(1), &[TxnId(2)]);
        let result = manager.add_external_wait(TxnId(2), TxnId(1));
        assert!(
            matches!(result, Err(DbError::Deadlock { victim }) if victim == TxnId(2)),
            "edge 1→2 must survive removing one of its two registrations"
        );
        manager.remove_external_wait(TxnId(1));
        manager.remove_external_wait(TxnId(2));
    }

    #[test]
    fn resolving_a_cleared_external_wait_is_harmless() {
        // remove for a holder with no recorded edge must not underflow or
        // disturb other edges.
        let manager = manager();
        manager.add_external_wait(TxnId(3), TxnId(4)).unwrap();
        manager.remove_external_waits(TxnId(3), &[TxnId(9)]);
        let result = manager.add_external_wait(TxnId(4), TxnId(3));
        assert!(matches!(result, Err(DbError::Deadlock { .. })));
        manager.remove_external_wait(TxnId(3));
        manager.remove_external_wait(TxnId(4));
    }

    #[test]
    fn fifo_fairness_prevents_starvation() {
        // A stream of shared lockers must not starve a pending exclusive one.
        let manager = manager();
        let id = LockId::Table(TableId(7));
        let mut held_reader = HeldLocks::new();
        manager
            .acquire(TxnId(1), &mut held_reader, id, LockMode::S)
            .unwrap();

        let manager_writer = Arc::clone(&manager);
        let writer = std::thread::spawn(move || {
            let mut held = HeldLocks::new();
            manager_writer
                .acquire(TxnId(2), &mut held, id, LockMode::X)
                .unwrap();
            manager_writer.release_all(TxnId(2), held);
        });
        std::thread::sleep(Duration::from_millis(20));

        // A reader arriving after the writer must queue behind it.
        let manager_late = Arc::clone(&manager);
        let late_reader = std::thread::spawn(move || {
            let mut held = HeldLocks::new();
            manager_late
                .acquire(TxnId(3), &mut held, id, LockMode::S)
                .unwrap();
            manager_late.release_all(TxnId(3), held);
        });
        std::thread::sleep(Duration::from_millis(20));
        manager.release_all(TxnId(1), held_reader);
        writer.join().unwrap();
        late_reader.join().unwrap();
    }

    #[test]
    fn concurrent_stress_preserves_exclusivity() {
        let manager = manager();
        let counter = Arc::new(Mutex::new(0u64));
        let in_critical = Arc::new(AtomicBool::new(false));
        let threads = 8;
        let iterations = 200;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let manager = Arc::clone(&manager);
                let counter = Arc::clone(&counter);
                let in_critical = Arc::clone(&in_critical);
                std::thread::spawn(move || {
                    for i in 0..iterations {
                        let txn = TxnId((t * iterations + i + 1) as u64);
                        let mut held = HeldLocks::new();
                        let id = LockId::record(TableId(1), Rid::new(0, 7));
                        manager.acquire(txn, &mut held, id, LockMode::X).unwrap();
                        assert!(!in_critical.swap(true, Ordering::SeqCst));
                        *counter.lock() += 1;
                        in_critical.store(false, Ordering::SeqCst);
                        manager.release_all(txn, held);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(*counter.lock(), (threads * iterations) as u64);
    }
}
