//! The centralized, hierarchical lock manager.
//!
//! This is the component Section 3 of the paper dissects and blames for the
//! scalability collapse of conventional OLTP on multicores, and the component
//! DORA bypasses. Its structure follows the paper's description of Shore-MT:
//!
//! * every logical lock is a data structure holding the lock's mode, a list
//!   of granted/pending requests, and a **latch**;
//! * acquiring a lock first ensures the proper **intention locks** higher up
//!   the hierarchy (database → table → record) are held, then probes a hash
//!   table, latches the lock head, and appends the request;
//! * releasing walks the transaction's requests youngest-first, latching each
//!   lock, unlinking the request, recomputing the group mode and waking any
//!   pending requests that can now be granted;
//! * deadlock detection runs over a waits-for graph; DORA's thread-local lock
//!   tables can feed their own waits into the same detector (Section 4.2.3).
//!
//! It is still hash → latch → request list, laid out so that an uncontended
//! acquire or release costs one multiplicative hash of the [`LockId`], one
//! latch hold and no allocation. The lock heads live inline in their hash
//! bucket, behind the bucket's latch, which is therefore also each head's
//! latch: a release unlinks a head it emptied under the latch it already
//! holds. The request lists of emptied heads stay in their bucket for the
//! next heads, and a transaction's ledger ([`HeldLocks`]) keeps its first
//! entries in place. A waiter's edges in the waits-for graph are taken when
//! it blocks and grown by every later grant it must also wait for, so a
//! deadlock is found when its cycle closes; a transaction that never waited
//! finishes without touching the graph's mutex.
//!
//! All latch spin time and logical lock wait time is recorded into
//! [`dora_metrics`] so the harness can reproduce Figures 1–3.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// A blocked request's wait: the cell its requester sleeps on, and the
/// transactions it has an edge to in the waits-for graph.
#[derive(Debug, Default)]
struct Wait {
    /// Set at most once: a grant flips the request's `granted` (or settles
    /// the upgrade's mode) and a pending request is removed before it is
    /// told `Deadlock`, so no later sweep reaches it again.
    outcome: OneShot<GrantOutcome>,
    /// Taken when the request blocks, and grown by every later grant the
    /// request then also waits for: a holder's upgrade, or a request admitted
    /// past a waiting upgrade. The waiter removes them all when it stops
    /// waiting.
    blockers: Mutex<Vec<TxnId>>,
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
    /// Made for each wait (a fresh request that blocks, or an upgrade that
    /// does), `None` for a request granted on arrival, which nobody ever
    /// wakes.
    wait: Option<Arc<Wait>>,
}

impl LockRequest {
    fn notify(&self, outcome: GrantOutcome) {
        if let Some(wait) = &self.wait {
            wait.outcome.set(outcome);
        }
    }

    /// The wait of a request still waiting: pending, or upgrading.
    fn waiting(&self) -> Option<&Arc<Wait>> {
        let waits = !self.granted || self.wanted_mode != self.granted_mode;
        self.wait.as_ref().filter(|_| waits)
    }
}

/// A lock head: one resource's request list, stored inline in its bucket.
#[derive(Debug)]
struct LockHead {
    id: LockId,
    requests: Vec<LockRequest>,
}

impl LockHead {
    /// The transactions the waiting request at `at` waits for: the granted
    /// requests incompatible with the mode it wants and, for a fresh
    /// request, every pending request ahead of it in the FIFO queue.
    fn blockers(&self, at: usize) -> Vec<TxnId> {
        let waiter = &self.requests[at];
        self.requests
            .iter()
            .enumerate()
            .filter(|(other, r)| {
                if r.txn == waiter.txn {
                    false
                } else if r.granted {
                    !waiter.wanted_mode.compatible(r.granted_mode)
                } else {
                    !waiter.granted && *other < at
                }
            })
            .map(|(_, r)| r.txn)
            .collect()
    }

    /// `true` if `mode` is compatible with every granted request other than
    /// `txn`'s own.
    fn compatible_with_granted(&self, mode: LockMode, txn: TxnId) -> bool {
        self.requests
            .iter()
            .filter(|r| r.granted && r.txn != txn)
            .all(|r| mode.compatible(r.granted_mode))
    }

    /// FIFO grant sweep: grants every pending request (in arrival order) that
    /// is compatible with the currently granted group, stopping lock-mode
    /// upgrades ahead of ordinary requests. Returns the positions of the
    /// requests it granted, which the caller must wake.
    fn grant_pending(&mut self) -> Vec<usize> {
        let mut granted = Vec::new();
        // Upgrades (granted request whose wanted mode is stronger) first.
        for i in 0..self.requests.len() {
            let request = &self.requests[i];
            if request.granted && request.wanted_mode != request.granted_mode {
                let (wanted, txn) = (request.wanted_mode, request.txn);
                if self.compatible_with_granted(wanted, txn) {
                    self.requests[i].granted_mode = wanted;
                    granted.push(i);
                }
            }
        }
        // Then plain pending requests in FIFO order.
        for i in 0..self.requests.len() {
            let request = &self.requests[i];
            if !request.granted {
                let (wanted, txn) = (request.wanted_mode, request.txn);
                if !self.compatible_with_granted(wanted, txn) {
                    // Preserve FIFO order: later requests stay blocked behind
                    // this one.
                    break;
                }
                self.requests[i].granted = true;
                self.requests[i].granted_mode = wanted;
                granted.push(i);
            }
        }
        granted
    }
}

/// Request lists a bucket keeps from heads that emptied, for the next heads
/// it links.
const SPARE_LISTS: usize = 4;

/// Room a new bucket makes for heads, and a request list for requests.
const BUCKET_ROOM: usize = 4;

/// One hash bucket: the heads of the locks whose ids hash here, and the
/// request lists of heads that emptied. Both live behind the bucket's latch.
#[derive(Debug)]
struct Bucket {
    heads: Vec<LockHead>,
    spare: Vec<Vec<LockRequest>>,
}

impl Bucket {
    /// A bucket with room for a few heads and one spare request list, so
    /// that the first locks to hash here allocate nothing either.
    fn new() -> Self {
        let mut spare = Vec::with_capacity(SPARE_LISTS);
        spare.push(Vec::with_capacity(BUCKET_ROOM));
        Self {
            heads: Vec::with_capacity(BUCKET_ROOM),
            spare,
        }
    }

    fn position(&self, id: LockId) -> Option<usize> {
        self.heads.iter().position(|head| head.id == id)
    }

    /// The head of `id`, linked on first use with a spare request list.
    fn head_mut(&mut self, id: LockId) -> &mut LockHead {
        let at = match self.position(id) {
            Some(at) => at,
            None => {
                let requests = self.spare.pop().unwrap_or_default();
                self.heads.push(LockHead { id, requests });
                self.heads.len() - 1
            }
        };
        &mut self.heads[at]
    }

    /// Unlinks the head at `at` if no request is left in it, keeping its
    /// request list for a later head while the spare list has room.
    fn unlink_if_empty(&mut self, at: usize) {
        if self.heads[at].requests.is_empty() {
            let head = self.heads.swap_remove(at);
            if self.spare.len() < SPARE_LISTS {
                self.spare.push(head.requests);
            }
        }
    }
}

/// `log2` of the number of hash buckets in the lock table.
const BUCKET_BITS: u32 = 10;

/// The centralized lock manager.
pub struct LockManager {
    buckets: Box<[Latch<Bucket>]>,
    /// Waits-for graph: waiter → (holder → number of live wait edges). Edges
    /// are *counted* because one transaction can wait at several places at
    /// once — two actions parked at different DORA executors, or a parked
    /// action plus a blocked centralized acquire — and resolving one wait
    /// must not erase the edges the others still need for cycle detection.
    waits_for: Mutex<HashMap<TxnId, HashMap<TxnId, usize>>>,
    /// The number of waiters in `waits_for`, published after each change
    /// under its mutex, so that a transaction that never waited finishes
    /// without taking the mutex.
    waiters: AtomicUsize,
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

/// Ledger entries kept in place; a transaction that takes more spills the
/// rest.
const HELD_INLINE: usize = 4;

/// Spilled entries scanned before the spill builds a hash index over them.
const HELD_SCAN: usize = 8;

thread_local! {
    /// The spill of a ledger this thread released, kept for its next one.
    static SPARE_SPILL: RefCell<Option<Box<HeldSpill>>> = const { RefCell::new(None) };
}

/// Per-transaction record of held locks; owned by the transaction state and
/// handed back to the lock manager at commit/abort for release.
///
/// The first four locks live in place, so a short transaction's
/// ledger costs no allocation. The rest go to a spill, which indexes its
/// entries once it holds more than a few, so a lookup in a large ledger (a
/// TPC-C StockLevel's) stays constant-time. A released spill is kept, cleared,
/// by the releasing thread for its next transaction that spills: the
/// conventional engine takes and releases a transaction's locks on one
/// thread, so its large ledgers allocate nothing either.
#[derive(Debug)]
pub struct HeldLocks {
    /// The first `inline` locks in acquisition order, and the strongest mode
    /// held on each.
    ids: [LockId; HELD_INLINE],
    modes: [LockMode; HELD_INLINE],
    inline: u8,
    spill: Option<Box<HeldSpill>>,
}

/// The ledger entries past the inline ones.
#[derive(Debug, Default)]
struct HeldSpill {
    /// Acquisition order is preserved so release can run youngest-first.
    locks: Vec<(LockId, LockMode)>,
    /// Position in `locks` of each lock, built once `locks` outgrows
    /// [`HELD_SCAN`].
    index: HashMap<LockId, usize>,
}

impl HeldSpill {
    /// This thread's spare spill, or a new one.
    fn take() -> Box<Self> {
        SPARE_SPILL
            .try_with(|spare| spare.borrow_mut().take())
            .ok()
            .flatten()
            .unwrap_or_default()
    }

    /// Clears the spill and keeps it as this thread's spare, if it has none.
    fn recycle(mut self: Box<Self>) {
        self.locks.clear();
        self.index.clear();
        let _ = SPARE_SPILL.try_with(|spare| {
            spare.borrow_mut().get_or_insert(self);
        });
    }

    fn position(&self, id: &LockId) -> Option<usize> {
        if self.index.is_empty() {
            self.locks.iter().position(|(held, _)| held == id)
        } else {
            self.index.get(id).copied()
        }
    }

    fn push(&mut self, id: LockId, mode: LockMode) {
        self.locks.push((id, mode));
        if self.locks.len() > HELD_SCAN {
            if self.index.is_empty() {
                let positions = self.locks.iter().enumerate();
                self.index
                    .extend(positions.map(|(at, (held, _))| (*held, at)));
            } else {
                self.index.insert(id, self.locks.len() - 1);
            }
        }
    }
}

impl Default for HeldLocks {
    fn default() -> Self {
        Self::new()
    }
}

impl HeldLocks {
    /// Creates an empty set; allocates nothing.
    pub fn new() -> Self {
        Self {
            ids: [LockId::Database; HELD_INLINE],
            modes: [LockMode::IS; HELD_INLINE],
            inline: 0,
            spill: None,
        }
    }

    /// Strongest mode held on `id`, if any.
    pub fn mode(&self, id: &LockId) -> Option<LockMode> {
        let inline = usize::from(self.inline);
        match self.ids[..inline].iter().position(|held| held == id) {
            Some(at) => Some(self.modes[at]),
            None => {
                let spill = self.spill.as_deref()?;
                spill.position(id).map(|at| spill.locks[at].1)
            }
        }
    }

    /// Number of distinct locks held.
    pub fn len(&self) -> usize {
        usize::from(self.inline) + self.spill.as_ref().map_or(0, |spill| spill.locks.len())
    }

    /// `true` if no locks are held.
    pub fn is_empty(&self) -> bool {
        self.inline == 0
    }

    fn note(&mut self, id: LockId, mode: LockMode) {
        let inline = usize::from(self.inline);
        if let Some(at) = self.ids[..inline].iter().position(|held| *held == id) {
            self.modes[at] = self.modes[at].combine(mode);
        } else if inline < HELD_INLINE {
            self.ids[inline] = id;
            self.modes[inline] = mode;
            self.inline += 1;
        } else {
            let spill = self.spill.get_or_insert_with(HeldSpill::take);
            match spill.position(&id) {
                Some(at) => spill.locks[at].1 = spill.locks[at].1.combine(mode),
                None => spill.push(id, mode),
            }
        }
    }

    /// The held locks, youngest first.
    fn youngest_first(&self) -> impl Iterator<Item = LockId> + '_ {
        let spilled = self.spill.iter().flat_map(|spill| spill.locks.iter().rev());
        spilled
            .map(|(id, _)| *id)
            .chain(self.ids[..usize::from(self.inline)].iter().rev().copied())
    }
}

/// How long a blocked request waits before giving up. This is a safety net
/// (the deadlock detector should fire first); it maps to an abort, like a
/// lock timeout would in a production engine.
const DEFAULT_WAIT_TIMEOUT: Duration = Duration::from_secs(10);

impl LockManager {
    /// Creates a lock manager with deadlock detection enabled.
    pub fn new(deadlock_detection: bool) -> Self {
        Self {
            buckets: (0..1usize << BUCKET_BITS)
                .map(|_| Latch::new(Bucket::new()))
                .collect(),
            waits_for: Mutex::new(HashMap::new()),
            waiters: AtomicUsize::new(0),
            deadlock_detection,
            wait_timeout: DEFAULT_WAIT_TIMEOUT,
        }
    }

    /// Overrides the blocked-request timeout (tests use short values).
    pub fn with_wait_timeout(mut self, timeout: Duration) -> Self {
        self.wait_timeout = timeout;
        self
    }

    /// The bucket of `id`: its fields folded into one word, multiplied by
    /// 2^64/φ, and the top bits of the product taken (Fibonacci hashing).
    fn bucket(&self, id: LockId) -> &Latch<Bucket> {
        let word = match id {
            LockId::Database => u64::MAX,
            LockId::Table(table) => !u64::from(table.0),
            LockId::Record(table, row) => u64::from(table.0).rotate_right(16) ^ row,
        };
        let hash = word.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.buckets[(hash >> (u64::BITS - BUCKET_BITS)) as usize]
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
        if held.mode(&id).is_some_and(|existing| existing.covers(mode)) {
            return Ok(());
        }
        let mut timer = TimerGuard::new(TimeCategory::LockMgrAcquire);
        let mut bucket = self.bucket(id).lock(TimeCategory::LockMgrAcquireContention);
        let head = bucket.head_mut(id);
        let at = match head.requests.iter().position(|r| r.txn == txn) {
            // Upgrade path: the transaction already has a request here.
            Some(at) => {
                let request = &head.requests[at];
                let wanted = request.granted_mode.combine(mode);
                if request.granted && request.granted_mode.covers(mode) {
                    held.note(id, wanted);
                    return Ok(());
                }
                let grantable = head.compatible_with_granted(wanted, txn);
                let request = &mut head.requests[at];
                request.wanted_mode = wanted;
                if grantable {
                    request.granted_mode = wanted;
                    request.granted = true;
                } else {
                    // Must wait for the conversion, on a cell of its own: one
                    // left from an earlier wait already says `Granted`.
                    request.wait = Some(Arc::default());
                }
                at
            }
            // Fresh request.
            None => {
                let grantable = head.compatible_with_granted(mode, txn)
                    && head.requests.iter().all(|r| r.granted);
                head.requests.push(LockRequest {
                    txn,
                    granted_mode: mode,
                    wanted_mode: mode,
                    granted: grantable,
                    wait: (!grantable).then(Arc::default),
                });
                head.requests.len() - 1
            }
        };
        let wanted = head.requests[at].wanted_mode;
        let Some(wait) = head.requests[at].waiting().cloned() else {
            self.add_new_blockers(head);
            held.note(id, wanted);
            self.count_acquisition(id);
            return Ok(());
        };
        // Must block.
        let blockers = head.blockers(at);
        self.add_waits(txn, &blockers);
        *wait.blockers.lock() = blockers;
        drop(bucket);
        self.block_on(txn, held, id, wanted, &wait, &mut timer)?;
        self.count_acquisition(id);
        Ok(())
    }

    /// Shared blocking path for fresh waits and upgrade waits.
    fn block_on(
        &self,
        txn: TxnId,
        held: &mut HeldLocks,
        id: LockId,
        wanted: LockMode,
        wait: &Wait,
        timer: &mut TimerGuard,
    ) -> DbResult<()> {
        incr(CounterKind::LockWaits);
        let outcome = if self.deadlock_detection && self.creates_cycle(txn) {
            GrantOutcome::Deadlock
        } else {
            timer.switch(TimeCategory::LockWait);
            let outcome = wait
                .outcome
                .wait_until(Instant::now() + self.wait_timeout)
                .unwrap_or(GrantOutcome::Timeout);
            timer.switch(TimeCategory::LockMgrAcquire);
            outcome
        };
        if outcome != GrantOutcome::Granted {
            self.cancel_request(txn, id, held);
        }
        // Drop exactly the edges this wait had, now that no grant can add
        // to them; a concurrent action of the same transaction parked on a
        // DORA local lock keeps its edges.
        let blockers = std::mem::take(&mut *wait.blockers.lock());
        self.remove_waits(txn, &blockers);
        if outcome == GrantOutcome::Granted {
            held.note(id, wanted);
            return Ok(());
        }
        incr(CounterKind::DeadlockVictim);
        Err(DbError::Deadlock { victim: txn })
    }

    /// Runs the grant sweep on `head` and wakes whom it granted, after the
    /// requests still waiting have their edges to them: a woken transaction
    /// may block elsewhere at once, and its cycle check must see them.
    fn grant_and_wake(&self, head: &mut LockHead) {
        let granted = head.grant_pending();
        if !granted.is_empty() {
            self.add_new_blockers(head);
            for at in granted {
                head.requests[at].notify(GrantOutcome::Granted);
            }
        }
    }

    /// Gives each request still waiting on `head` an edge to every
    /// transaction it now waits for and has none to yet. A wait takes its
    /// edges when it blocks; a later grant it must also wait for (a holder's
    /// upgrade, or a request admitted past a waiting upgrade) would otherwise
    /// leave a cycle through it unseen.
    fn add_new_blockers(&self, head: &LockHead) {
        for (at, request) in head.requests.iter().enumerate() {
            let Some(wait) = request.waiting() else {
                continue;
            };
            let mut known = wait.blockers.lock();
            let mut new = head.blockers(at);
            new.retain(|blocker| !known.contains(blocker));
            self.add_waits(request.txn, &new);
            known.extend(new);
        }
    }

    /// Removes a pending (never granted) request after a deadlock or timeout.
    /// If the request was granted concurrently with the decision to give up,
    /// it is released instead so no lock leaks: `held`, the transaction's
    /// ledger, never learned of it, so the abort would not release it.
    fn cancel_request(&self, txn: TxnId, id: LockId, held: &HeldLocks) {
        let mut bucket = self.bucket(id).lock(TimeCategory::LockMgrAcquireContention);
        let Some(at) = bucket.position(id) else {
            return;
        };
        let head = &mut bucket.heads[at];
        if let Some(pos) = head.requests.iter().position(|r| r.txn == txn) {
            let request = &mut head.requests[pos];
            if request.granted && request.wanted_mode != request.granted_mode {
                // Keep the originally granted mode; just forget the upgrade.
                request.wanted_mode = request.granted_mode;
            } else if !request.granted || held.mode(&id).is_none() {
                head.requests.remove(pos);
            } else {
                // An upgrade granted between timeout and cancellation: the
                // ledger has the lock, so the abort releases it.
            }
            self.grant_and_wake(head);
            bucket.unlink_if_empty(at);
        }
    }

    /// Releases every lock `txn` holds, youngest first, waking any waiters
    /// that become grantable. The caller passes the transaction's ledger by
    /// value; afterwards the transaction holds nothing.
    pub fn release_all(&self, txn: TxnId, held: HeldLocks) {
        if !held.is_empty() {
            let _timer = TimerGuard::new(TimeCategory::LockMgrRelease);
            for id in held.youngest_first() {
                self.release_one(txn, id);
            }
        }
        if let Some(spill) = held.spill {
            spill.recycle();
        }
        self.clear_waits(txn);
    }

    fn release_one(&self, txn: TxnId, id: LockId) {
        let mut bucket = self.bucket(id).lock(TimeCategory::LockMgrReleaseContention);
        let Some(at) = bucket.position(id) else {
            return;
        };
        let head = &mut bucket.heads[at];
        if let Some(pos) = head.requests.iter().position(|r| r.txn == txn) {
            let request = head.requests.remove(pos);
            if !request.granted {
                // A pending request released at abort: wake it so the
                // waiter (if any) does not hang; it will observe deadlock.
                request.notify(GrantOutcome::Deadlock);
            }
        }
        self.grant_and_wake(head);
        // Unlink the now-empty head so record locks do not accumulate.
        bucket.unlink_if_empty(at);
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
        self.waiters.store(graph.len(), Ordering::Release);
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
        self.waiters.store(graph.len(), Ordering::Release);
    }

    /// Removes every edge from `waiter`. While no transaction waits (the
    /// common case: every benchmark workload) this reads one atomic: a
    /// transaction's own edges are added before it finishes, by its own
    /// threads, so a finishing transaction always sees them counted.
    fn clear_waits(&self, waiter: TxnId) {
        if self.waiters.load(Ordering::Acquire) == 0 {
            return;
        }
        let mut graph = self.waits_for.lock();
        graph.remove(&waiter);
        self.waiters.store(graph.len(), Ordering::Release);
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
            .map(|bucket| bucket.lock(TimeCategory::LockMgrOther).heads.len())
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
        manager
            .bucket(id)
            .lock(TimeCategory::LockMgrAcquireContention)
            .head_mut(id)
            .requests
            .push(LockRequest {
                txn: TxnId(2),
                granted_mode: LockMode::X,
                wanted_mode: LockMode::X,
                granted: false,
                wait: Some(Arc::default()),
            });
        // T1's release grants it; T2 has already decided to give up.
        manager.release_all(TxnId(1), held1);
        let held2 = HeldLocks::new();
        manager.cancel_request(TxnId(2), id, &held2);
        manager.release_all(TxnId(2), held2);
        assert_eq!(manager.live_lock_heads(), 0, "the emptied head is unlinked");

        let mut held3 = HeldLocks::new();
        manager
            .acquire(TxnId(3), &mut held3, id, LockMode::X)
            .expect("nobody holds the lock");
        manager.release_all(TxnId(3), held3);
    }

    /// Every transaction's state holds a ledger in place, DORA's too; at 80
    /// bytes (8 more than a map and a list) that state stays in the size
    /// class of the system allocator it had.
    #[test]
    fn held_lock_ledgers_stay_small() {
        assert!(std::mem::size_of::<HeldLocks>() <= 80);
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
