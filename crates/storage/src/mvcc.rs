//! Multi-version storage: version chains, snapshot horizons and the
//! version-chain garbage collector — kept only while somebody can read them.
//!
//! A [`Snapshot`] captures a horizon on the *commit-order ticket* sequence —
//! the one each commit record carries, drawn while a writer's locks are
//! still held, so version order equals commit order by construction — and
//! serves reads from the version chains plus the untouched heap, with no
//! centralized lock manager, no DORA routing and no local-lock-table probes on
//! the read path.
//!
//! # Versions on demand
//!
//! Row versioning is a mode the database is in only while a snapshot is open.
//! The heap always holds the *newest* (possibly still uncommitted) bytes; a
//! row without a chain is "primordial", read straight from the heap — and
//! that is the common case, not the cold one: with no snapshot open, writers
//! build no chains at all. One invariant carries everything:
//!
//! > for every live snapshot at horizon `H`, each row is either chained with
//! > the right image at `H`, or unchained with heap bytes committed at a
//! > ticket ≤ `H`.
//!
//! **What a writer pays.** Every row write runs *[seed → mutate the heap →
//! push `(table, rid, pre-image, after-image)` to the transaction's
//! `WriteList`]* under that list's mutex (`VersionStore::seed_write`
//! is the first step). The list carries the versioning *period* the
//! transaction belongs to, stamped by [`TxnManager::begin`] under the mutex it
//! takes anyway. Period 0 — no snapshot was open — makes the seed a branch not
//! taken: no shard, no hash probe, no allocation, no copy. In a period the
//! seed stores the pre-image as the row's chain base (ticket 0) before the
//! heap changes. Commit (`VersionStore::publish_writes`) takes the list
//! and, while a snapshot is open, installs the after-image at the commit
//! ticket into every row of it *that has a chain* — its own seeds, or a row
//! somebody else brought into the period first; with no snapshot open it
//! touches no shard. It hands the list to the durable clock until the durable
//! frontier passes the ticket (one queue slot per commit), and marks the
//! ticket published.
//!
//! **What an opener pays.** The first snapshot of a period *adopts* the
//! transactions in flight instead of waiting for them
//! (`VersionStore::open`). Under the transaction manager's mutex it starts
//! the period, collects the active transactions and swaps every shard's map
//! for an empty one (whatever the last period left is stale by now). It then
//! locks each collected write list in turn, seeds the pre-images found there
//! and moves the list into the period — from here on that writer seeds for
//! itself. Write lists of commits that are published but not yet durable are
//! still with the durable clock; they are seeded and installed too, so a
//! *durable* snapshot keeps excluding a commit the device has not confirmed,
//! or never will. Last, it waits for the published frontier to cover every
//! ticket handed out so far — only a committer between drawing its ticket and
//! publishing can hold that back, for microseconds, and never the opener's own
//! thread — and pins. It never waits for a transaction to finish.
//!
//! Row by row: once a row has a chain, every commit extends it. While it has
//! none, a commit on it left it unchained only because its transaction began
//! before the period and the opener had not reached its list — so it handed
//! its list over before the opener looked there, its ticket is among those
//! the opener waits for, and either that is below the pinned horizon (the
//! heap bytes are committed and visible) or the list was still with the
//! durable clock (and the opener chained the row).
//!
//! A chain base must be the row's image below *every* writer that is not
//! durable yet, and seeds arrive in no particular order (a writer that began
//! after the swap can seed before the opener reaches the undurable commit
//! that wrote the row before it). So a base remembers the ticket of the
//! writer whose pre-image it is — `u64::MAX` for one still running — and a
//! seed from a lower ticket replaces it: the outcome does not depend on the
//! order.
//!
//! When the last snapshot closes the period's number stays but the manager
//! stamps 0 again: nothing is waited for and nothing is cleared. Stragglers
//! born in the period keep feeding its maps, which nobody reads and the next
//! opener drops.
//!
//! Two dense watermark clocks order everything:
//!
//! * `published` — a ticket enters a snapshot's world only once *every*
//!   ticket below it has been published, closing the race where a ticket has
//!   been drawn but its writes are not in the chains yet.
//! * `durable` — advanced only when a commit's record actually hardened.
//!   [`VersionStore::durable_horizon`] therefore provably excludes ELR
//!   ghost commits (applied in memory, never durable): a ghost never
//!   advances the clock, so neither it nor anything after it on that clock
//!   is below the durable horizon. The price is the one the chains used to
//!   pay: behind a ghost, the write lists queue up for good.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};

use dora_common::prelude::*;
use dora_metrics::{incr, incr_by, CounterKind, ValueHistogram};

use crate::txn::TxnManager;

/// How often the background collector wakes to prune version chains while a
/// snapshot is open. Kept short: chains are pruned down to the oldest live
/// snapshot, so a laggy collector costs memory, never correctness.
const GC_INTERVAL: Duration = Duration::from_millis(10);

/// Number of chain shards; a power of two so the rid hash folds cheaply.
const SHARDS: usize = 64;

/// The writer ticket of a chain base seeded by a transaction that has no
/// commit ticket yet.
const UNCOMMITTED: u64 = u64::MAX;

/// One row version: the row bytes as of commit ticket `seq`, or `None` when
/// the row did not exist at that ticket (pre-insert base or a delete).
#[derive(Debug, Clone)]
struct Version {
    seq: u64,
    row: Option<Bytes>,
}

/// A row's version history, ascending by commit ticket. The base entry
/// (ticket 0) is the copy-on-write pre-image seeded the first time a
/// primordial row is written in a versioning period.
#[derive(Debug, Default)]
struct VersionChain {
    versions: Vec<Version>,
    /// Ticket of the writer whose pre-image the base is.
    based_below: u64,
}

impl VersionChain {
    fn based_on(before: Option<Bytes>, writer: u64) -> Self {
        Self {
            versions: vec![Version {
                seq: 0,
                row: before,
            }],
            based_below: writer,
        }
    }

    /// Replaces the base with the pre-image of an earlier writer.
    fn rebase(&mut self, before: Option<&Bytes>, writer: u64) {
        if writer < self.based_below {
            if let Some(base) = self.versions.first_mut().filter(|base| base.seq == 0) {
                base.row = before.cloned();
                self.based_below = writer;
            }
        }
    }

    /// Installs `row` at `seq`, keeping the chain sorted. A repeated ticket
    /// (several writes by one transaction) keeps only the last write.
    fn install(&mut self, seq: u64, row: Option<Bytes>) -> bool {
        match self.versions.binary_search_by_key(&seq, |v| v.seq) {
            Ok(i) => {
                self.versions[i].row = row;
                false
            }
            Err(i) => {
                self.versions.insert(i, Version { seq, row });
                true
            }
        }
    }

    /// The newest version with ticket ≤ `horizon`, if any.
    fn at(&self, horizon: u64) -> Option<&Version> {
        self.versions
            .iter()
            .rev()
            .find(|version| version.seq <= horizon)
    }

    /// Drops every version older than the newest one at or below `bound`
    /// (which any snapshot at or above `bound` still needs as its base).
    /// Returns how many versions were reclaimed.
    fn prune(&mut self, bound: u64) -> usize {
        let keep_from = match self
            .versions
            .iter()
            .rposition(|version| version.seq <= bound)
        {
            Some(newest_visible) => newest_visible,
            None => return 0,
        };
        self.versions.drain(..keep_from).count()
    }

    /// `true` once the chain holds nothing but a single *committed*
    /// tombstone at or below `bound`: no snapshot can ever see this row
    /// again, the whole chain can go. The ticket-0 "did not exist" base an
    /// insert seeds is not one: until the inserter publishes, that base is
    /// all that hides the slot's uncommitted heap bytes from snapshot scans
    /// (a slot without a chain is trusted as primordial).
    fn is_dead(&self, bound: u64) -> bool {
        let [only] = &self.versions[..] else {
            return false;
        };
        only.row.is_none() && only.seq > 0 && only.seq <= bound
    }
}

/// What a chain lookup said about a row at a horizon.
#[derive(Debug)]
pub enum ChainRead {
    /// The row has no chain: nobody wrote it while a snapshot could need its
    /// history, so the heap bytes are committed and visible to every live
    /// snapshot.
    Primordial,
    /// A chain exists but no version is visible at the horizon (the row was
    /// born after it) or the visible version is a delete.
    Invisible,
    /// The visible version's bytes.
    Visible(Bytes),
}

/// One row write of a running transaction. The images are the `Bytes` the
/// write path already holds: pushing a write copies nothing.
#[derive(Debug)]
pub(crate) struct RowWrite {
    pub(crate) table: TableId,
    pub(crate) rid: Rid,
    /// The row before the write; `None` for an insert.
    pub(crate) before: Option<Bytes>,
    /// The row after it; `None` for a delete.
    pub(crate) after: Option<Bytes>,
    /// The primary key a delete took out of the index.
    pub(crate) unlinked: Option<Key>,
}

/// The row writes of one transaction, in order, and the versioning period
/// they are chained under. Every write mutates the heap and pushes its entry
/// under this list's mutex, so whoever locks the list sees exactly the writes
/// the heap already shows.
#[derive(Debug, Default)]
pub(crate) struct WriteList {
    /// 0: the transaction began with no snapshot open and no opener has
    /// adopted it since — its writes touch no version chain.
    period: u64,
    writes: Vec<RowWrite>,
}

impl WriteList {
    /// Stamps the period the transaction is born into.
    pub(crate) fn born_in(&mut self, period: u64) {
        self.period = period;
    }

    pub(crate) fn push(&mut self, write: RowWrite) {
        self.writes.push(write);
    }

    /// Takes back the newest write to `rid`: the heap change it stood for was
    /// undone on the spot (an insert that lost the uniqueness race).
    pub(crate) fn retract(&mut self, table: TableId, rid: Rid) {
        if let Some(at) = self
            .writes
            .iter()
            .rposition(|write| write.table == table && write.rid == rid)
        {
            self.writes.remove(at);
        }
    }

    /// Forgets every write: the transaction rolled them all back. The seeded
    /// pre-images stay in the chains — they describe committed state.
    pub(crate) fn clear(&mut self) {
        self.writes.clear();
    }
}

/// A dense watermark clock over the commit-ticket sequence: tickets are
/// marked done in any order, the frontier advances only through dense
/// prefixes. `frontier() == n` means every ticket `1..=n` is done.
#[derive(Debug, Default)]
struct WatermarkClock {
    frontier: AtomicU64,
    /// What is known of the tickets above the frontier: slot `i` is ticket
    /// `frontier + 1 + i`. Empty whenever tickets are marked in order, which
    /// then costs no allocation.
    ahead: Mutex<VecDeque<Slot>>,
}

#[derive(Debug, Default)]
struct Slot {
    marked: bool,
    /// The commit's write list, kept until the frontier passes its ticket
    /// (the durable clock only).
    writes: Vec<RowWrite>,
}

impl WatermarkClock {
    fn mark(&self, seq: u64) {
        let mut ahead = self.ahead.lock();
        let mut frontier = self.frontier.load(Ordering::Relaxed);
        if seq <= frontier {
            return;
        }
        if seq == frontier + 1 && ahead.is_empty() {
            self.frontier.store(seq, Ordering::Release);
            return;
        }
        Self::slot(&mut ahead, frontier, seq).marked = true;
        let mut passed = Vec::new();
        while ahead.front().is_some_and(|slot| slot.marked) {
            let slot = ahead.pop_front().expect("front was just seen");
            // Usually one slot passes: its list moves out, nothing is copied.
            if passed.is_empty() {
                passed = slot.writes;
            } else {
                passed.extend(slot.writes);
            }
            frontier += 1;
        }
        self.frontier.store(frontier, Ordering::Release);
        drop(ahead);
        // The images are freed outside the clock's mutex.
        drop(passed);
    }

    /// Keeps `writes` with ticket `seq` until the frontier passes it.
    fn attach(&self, seq: u64, writes: Vec<RowWrite>) {
        let mut ahead = self.ahead.lock();
        let frontier = self.frontier.load(Ordering::Relaxed);
        if seq > frontier {
            Self::slot(&mut ahead, frontier, seq).writes = writes;
        }
    }

    /// Shows `f` every write list attached above the frontier, in ticket
    /// order, and returns the highest ticket the clock has heard of.
    fn each_ahead(&self, mut f: impl FnMut(u64, &[RowWrite])) -> u64 {
        let ahead = self.ahead.lock();
        let frontier = self.frontier.load(Ordering::Relaxed);
        for (seq, slot) in (frontier + 1..).zip(ahead.iter()) {
            f(seq, &slot.writes);
        }
        frontier + ahead.len() as u64
    }

    fn slot(ahead: &mut VecDeque<Slot>, frontier: u64, seq: u64) -> &mut Slot {
        let index = (seq - frontier - 1) as usize;
        if ahead.len() <= index {
            ahead.resize_with(index + 1, Slot::default);
        }
        &mut ahead[index]
    }

    fn frontier(&self) -> u64 {
        self.frontier.load(Ordering::Acquire)
    }
}

/// The mode bit, in the form commits and the background collector read it;
/// the collector sleeps on the rest.
#[derive(Default)]
struct GcSignal {
    /// A snapshot is open, or being opened: commits extend the chains they
    /// find and the collector prunes them. Set before the first chain of a
    /// period can exist, cleared when the last snapshot closes.
    versioning: AtomicBool,
    stop: Mutex<bool>,
    cond: Condvar,
}

/// The background collector thread, if the system let us have one.
enum Collector {
    NotStarted,
    Running(std::thread::JoinHandle<()>),
    /// The spawn failed: snapshots prune as they close instead.
    Unavailable,
}

/// Aggregate health of the version store, for reports and tests.
#[derive(Debug, Clone)]
pub struct MvccStats {
    /// Live version chains (rows with any transactional history retained).
    pub chains: usize,
    /// Live versions across all chains.
    pub versions: usize,
    /// The published (snapshot-visible) ticket horizon.
    pub published: u64,
    /// The durable ticket horizon (never advanced past a lost commit).
    pub durable: u64,
    /// Horizon of the oldest live snapshot, if any.
    pub oldest_snapshot: Option<u64>,
    /// Distribution of live chain lengths.
    pub chain_lengths: ValueHistogram,
    /// Collection passes a closing snapshot ran itself because the collector
    /// thread could not be spawned.
    pub inline_gc_passes: u64,
}

/// The chains of one shard, and the versioning period they belong to: a
/// write list of another period does not seed here (what it would seed may be
/// its own uncommitted earlier write, whose pre-image only the opener that
/// adopts the list still has).
#[derive(Default)]
struct Shard {
    period: u64,
    chains: HashMap<(TableId, Rid), VersionChain>,
}

/// Live snapshot horizons, refcounted ([`Snapshot`] deregisters on drop), and
/// the number of versioning periods started so far. Versioning is on exactly
/// while `live` is not empty; the mutex around this is what serialises
/// openers, closers and the collector's bound.
#[derive(Default)]
struct Registry {
    live: BTreeMap<u64, usize>,
    periods: u64,
}

/// What a versioning period leaves behind for the next one to drop.
type StaleChains = (
    Vec<HashMap<(TableId, Rid), VersionChain>>,
    HashMap<(TableId, Key), Rid>,
);

/// The multi-version store: sharded version chains, the snapshot registry
/// and the two watermark clocks.
pub struct VersionStore {
    shards: Vec<Mutex<Shard>>,
    /// Primary-key entries physically removed by (possibly uncommitted)
    /// deletes: key → the rid whose chain still holds the history a snapshot
    /// probe needs after the index entry is gone.
    unlinked: Mutex<HashMap<(TableId, Key), Rid>>,
    published: WatermarkClock,
    durable: WatermarkClock,
    snapshots: Mutex<Registry>,
    /// Stamps the versioning period on transactions as they begin, and knows
    /// the ones in flight when a period starts.
    txns: Arc<TxnManager>,
    /// Lets a test stall an opener in the middle of [`Self::open`].
    faults: Arc<FaultPlan>,
    gc_signal: Arc<GcSignal>,
    collector: Mutex<Collector>,
    inline_gc_passes: AtomicU64,
}

impl std::fmt::Debug for VersionStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionStore")
            .field("published", &self.published.frontier())
            .field("durable", &self.durable.frontier())
            .finish()
    }
}

impl Default for VersionStore {
    fn default() -> Self {
        Self::new()
    }
}

impl VersionStore {
    /// Creates an empty store over a transaction manager of its own.
    pub fn new() -> Self {
        Self::over(Arc::new(TxnManager::new()), Arc::new(FaultPlan::disabled()))
    }

    /// Creates an empty store for the transactions of `txns`. The collector
    /// thread is spawned by the first snapshot, so databases that never
    /// snapshot never pay for it.
    pub fn over(txns: Arc<TxnManager>, faults: Arc<FaultPlan>) -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            unlinked: Mutex::new(HashMap::new()),
            published: WatermarkClock::default(),
            durable: WatermarkClock::default(),
            snapshots: Mutex::new(Registry::default()),
            txns,
            faults,
            gc_signal: Arc::new(GcSignal::default()),
            collector: Mutex::new(Collector::NotStarted),
            inline_gc_passes: AtomicU64::new(0),
        }
    }

    fn shard(&self, table: TableId, rid: Rid) -> &Mutex<Shard> {
        let hash = (table.0 as usize)
            .wrapping_mul(0x9e37_79b9)
            .wrapping_add(rid.page.0 as usize)
            .wrapping_mul(0x85eb_ca6b)
            .wrapping_add(rid.slot.0 as usize);
        &self.shards[hash % SHARDS]
    }

    // ----- write side -------------------------------------------------------

    /// First step of every row write, under the transaction's write-list
    /// mutex: if the list is in a versioning period, keeps the row's
    /// pre-image as its chain base (a no-op if the row already has a chain)
    /// and, for a delete, the note that leads a probe from `unlinked` to the
    /// chain. Must be called *before* the physical heap mutation: a snapshot
    /// reader that finds no chain trusts the heap bytes. Outside a period
    /// this touches nothing.
    pub(crate) fn seed_write(
        &self,
        list: &WriteList,
        table: TableId,
        rid: Rid,
        before: Option<&Bytes>,
        unlinked: Option<&Key>,
    ) {
        if list.period != 0 {
            self.seed_base(list.period, table, rid, before, unlinked, UNCOMMITTED);
        }
    }

    /// Keeps `before` as the base of `rid`'s chain in `period`, unless the
    /// chain already has the pre-image of a writer at or below `writer`.
    fn seed_base(
        &self,
        period: u64,
        table: TableId,
        rid: Rid,
        before: Option<&Bytes>,
        unlinked: Option<&Key>,
        writer: u64,
    ) {
        {
            let mut shard = self.shard(table, rid).lock();
            if shard.period != period {
                return;
            }
            match shard.chains.entry((table, rid)) {
                std::collections::hash_map::Entry::Vacant(entry) => {
                    entry.insert(VersionChain::based_on(before.cloned(), writer));
                    incr(CounterKind::VersionsCreated);
                }
                std::collections::hash_map::Entry::Occupied(mut entry) => {
                    entry.get_mut().rebase(before, writer);
                }
            }
        }
        if let Some(key) = unlinked {
            self.unlinked.lock().insert((table, key.clone()), rid);
        }
    }

    /// Installs `after` at ticket `seq` if the row has a chain; says whether
    /// that made a new version.
    fn install(&self, seq: u64, write: &RowWrite) -> bool {
        let mut shard = self.shard(write.table, write.rid).lock();
        shard
            .chains
            .get_mut(&(write.table, write.rid))
            .is_some_and(|chain| chain.install(seq, write.after.clone()))
    }

    /// Publishes one committing transaction at its commit ticket: takes its
    /// write list, extends the chain of every row in it that has one — while
    /// a snapshot is open; otherwise no shard is touched — leaves the list
    /// with the durable clock and marks the ticket published. The list
    /// changes hands under its own mutex, so an opener that finds it empty
    /// finds the writes with the durable clock. Also called for tickets
    /// without row effects: the publication frontier must stay dense.
    ///
    /// "Every row that has a chain", not "if this list is in the period": a
    /// transaction the opener has not reached yet can write a row on top of
    /// one that is already in the period, and must not leave that row's chain
    /// behind the heap. It cannot miss the flag: the chain's first writer saw
    /// it set, and handed the row on through the lock both took.
    pub(crate) fn publish_writes(&self, seq: u64, list: &Mutex<WriteList>) {
        {
            let mut list = list.lock();
            let writes = std::mem::take(&mut list.writes);
            if self.gc_signal.versioning.load(Ordering::SeqCst) {
                self.extend_chains(seq, &writes);
            }
            self.durable.attach(seq, writes);
        }
        self.published.mark(seq);
    }

    fn extend_chains(&self, seq: u64, writes: &[RowWrite]) {
        let created = writes
            .iter()
            .filter(|write| self.install(seq, write))
            .count();
        if created > 0 {
            incr_by(CounterKind::VersionsCreated, created as u64);
        }
    }

    /// Marks `seq` durable (its commit record hardened). Lost commits
    /// are never marked, so the durable horizon stalls below the first
    /// ghost — exactly the conservative bound [`Self::durable_horizon`]
    /// promises.
    pub fn mark_durable(&self, seq: u64) {
        self.durable.mark(seq);
    }

    /// The rid a snapshot probe should consult when the primary index no
    /// longer has an entry for `key`.
    pub fn unlinked_rid(&self, table: TableId, key: &Key) -> Option<Rid> {
        self.unlinked.lock().get(&(table, key.clone())).copied()
    }

    // ----- read side --------------------------------------------------------

    /// The published ticket horizon: what a fresh snapshot would see.
    pub fn published_horizon(&self) -> u64 {
        self.published.frontier()
    }

    /// The horizon at which every ticket is both published *and* durable.
    pub fn durable_horizon(&self) -> u64 {
        self.published.frontier().min(self.durable.frontier())
    }

    /// Looks up `rid`'s visible state at `horizon`.
    pub fn read_at(&self, table: TableId, rid: Rid, horizon: u64) -> ChainRead {
        let shard = self.shard(table, rid).lock();
        match shard.chains.get(&(table, rid)) {
            None => ChainRead::Primordial,
            Some(chain) => match chain.at(horizon) {
                Some(Version { row: Some(row), .. }) => ChainRead::Visible(row.clone()),
                _ => ChainRead::Invisible,
            },
        }
    }

    /// Every rid of `table` that has a chain with a visible (non-deleted)
    /// version at `horizon`, excluding rids in `skip`. This is the scan's
    /// second pass: rows whose heap slot is gone (deleted after the
    /// horizon) or whose heap bytes are newer than the horizon.
    pub fn visible_chain_rows(
        &self,
        table: TableId,
        horizon: u64,
        skip: &HashSet<Rid>,
    ) -> Vec<(Rid, Bytes)> {
        let mut rows = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock();
            for ((chain_table, rid), chain) in shard.chains.iter() {
                if *chain_table != table || skip.contains(rid) {
                    continue;
                }
                if let Some(Version { row: Some(row), .. }) = chain.at(horizon) {
                    rows.push((*rid, row.clone()));
                }
            }
        }
        rows
    }

    // ----- snapshots ---------------------------------------------------------

    /// Opens a snapshot at the published horizon ([`SnapshotBound::Published`])
    /// or at the durable one — everything visible through that one is both
    /// committed and hardened: ELR ghost commits are provably excluded (they
    /// never advance the durable clock). The first snapshot of a period
    /// starts versioning and adopts the transactions in flight; the module
    /// documentation has the protocol. Never waits for a transaction to
    /// finish, nor for the log device.
    pub(crate) fn open(self: &Arc<Self>, bound: SnapshotBound) -> Snapshot {
        let mut registry = self.snapshots.lock();
        let stale = registry
            .live
            .is_empty()
            .then(|| self.start_versioning(&mut registry));
        let snapshot = self.pin(&mut registry, bound);
        drop(registry);
        // The last period's chains are counted and freed outside every lock.
        if let Some((chains, _)) = stale {
            let versions: usize = chains
                .iter()
                .flat_map(HashMap::values)
                .map(|chain| chain.versions.len())
                .sum();
            if versions > 0 {
                incr_by(CounterKind::VersionsReclaimed, versions as u64);
            }
        }
        snapshot
    }

    /// Starts a versioning period for the first snapshot of it; the caller
    /// holds the registry mutex, which keeps every other opener out until the
    /// invariant holds.
    fn start_versioning(self: &Arc<Self>, registry: &mut Registry) -> StaleChains {
        registry.periods += 1;
        let period = registry.periods;
        // Before anything can be chained: see `publish_writes`.
        self.gc_signal.versioning.store(true, Ordering::SeqCst);
        // No transaction can begin between the flip and the swap: one born
        // into the period seeds into this period's maps or not at all.
        let (in_flight, stale) = self.txns.start_versioning(period, || {
            let chains = self
                .shards
                .iter()
                .map(|shard| {
                    let mut shard = shard.lock();
                    shard.period = period;
                    std::mem::take(&mut shard.chains)
                })
                .collect();
            (chains, std::mem::take(&mut *self.unlinked.lock()))
        });
        self.faults.park_while_held(FaultSite::SnapshotAdoption);
        for txn in in_flight {
            let mut list = txn.writes.lock();
            for write in &list.writes {
                self.adopt(period, write, UNCOMMITTED);
            }
            list.period = period;
        }
        // A commit that left a row unchained handed its list over before the
        // list was locked above, so it is with the durable clock by now —
        // unless the durable frontier has passed it, and then every horizon
        // has.
        let drawn = self.durable.each_ahead(|seq, writes| {
            for write in writes {
                self.adopt(period, write, seq);
            }
            self.extend_chains(seq, writes);
        });
        // Precommit publishes right after it draws its ticket and cannot
        // fail in between, so this ends; the opener's own thread is never
        // in there.
        while self.published.frontier() < drawn {
            std::thread::yield_now();
        }
        self.wake_collector();
        stale
    }

    fn adopt(&self, period: u64, write: &RowWrite, writer: u64) {
        self.seed_base(
            period,
            write.table,
            write.rid,
            write.before.as_ref(),
            write.unlinked.as_ref(),
            writer,
        );
    }

    fn pin(self: &Arc<Self>, registry: &mut Registry, bound: SnapshotBound) -> Snapshot {
        // The horizon is read *while holding the registry mutex* so the
        // collector (which takes the same mutex to find the oldest pin)
        // can never prune past a horizon that is about to be pinned.
        let horizon = match bound {
            SnapshotBound::Published => self.published_horizon(),
            SnapshotBound::Durable => self.durable_horizon(),
        };
        *registry.live.entry(horizon).or_insert(0) += 1;
        incr(CounterKind::SnapshotsTaken);
        Snapshot {
            store: Arc::clone(self),
            horizon,
        }
    }

    fn deregister(&self, horizon: u64) {
        let mut registry = self.snapshots.lock();
        if let Some(count) = registry.live.get_mut(&horizon) {
            *count -= 1;
            if *count == 0 {
                registry.live.remove(&horizon);
            }
        }
        if registry.live.is_empty() {
            // Nobody can read a chain any more: stop building them. Nothing
            // is cleared and nobody is waited for — the next opener swaps
            // the maps out.
            self.txns.stop_versioning();
            self.gc_signal.versioning.store(false, Ordering::SeqCst);
            return;
        }
        drop(registry);
        if matches!(*self.collector.lock(), Collector::Unavailable) {
            self.gc_once();
            self.inline_gc_passes.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Horizon of the oldest live snapshot, if any.
    pub fn oldest_snapshot(&self) -> Option<u64> {
        self.snapshots.lock().live.keys().next().copied()
    }

    // ----- garbage collection -------------------------------------------------

    /// Tells the background collector there are chains to prune again,
    /// spawning it if this is the first period (or the last spawn failed).
    /// A failed spawn is not the opener's problem: snapshots then prune as
    /// they close. Unit tests drive [`Self::gc_once`] directly instead, so
    /// reclaim counts stay exact.
    fn wake_collector(self: &Arc<Self>) {
        {
            let mut collector = self.collector.lock();
            if !matches!(*collector, Collector::Running(_)) {
                let store = Arc::downgrade(self);
                let signal = Arc::clone(&self.gc_signal);
                *collector = match std::thread::Builder::new()
                    .name("mvcc-gc".into())
                    .spawn(move || run_gc(store, signal))
                {
                    Ok(thread) => Collector::Running(thread),
                    Err(_) => Collector::Unavailable,
                };
            }
        }
        // Under the mutex the collector checks the mode with, so the
        // notification cannot fall between its check and its wait.
        let _stop = self.gc_signal.stop.lock();
        self.gc_signal.cond.notify_all();
    }

    /// One collection pass: prunes every chain down to what the oldest live
    /// snapshot — or one that a durable open may pin next — can still see,
    /// and drops dead chains and stale unlink notes. Returns how many
    /// versions were reclaimed.
    pub fn gc_once(&self) -> u64 {
        // Holding the registry mutex while reading both bounds gives the
        // same exclusion pin() relies on. The durable horizon is the
        // lowest a new snapshot can pin (it never moves back), so it bounds
        // the pass even while newer snapshots are live.
        let bound = {
            let registry = self.snapshots.lock();
            let oldest = registry.live.keys().next().copied().unwrap_or(u64::MAX);
            oldest.min(self.durable_horizon())
        };
        let mut reclaimed = 0u64;
        for shard in &self.shards {
            let mut shard = shard.lock();
            shard.chains.retain(|_, chain| {
                reclaimed += chain.prune(bound) as u64;
                if chain.is_dead(bound) {
                    reclaimed += chain.versions.len() as u64;
                    false
                } else {
                    true
                }
            });
        }
        if reclaimed > 0 {
            incr_by(CounterKind::VersionsReclaimed, reclaimed);
        }
        // An unlink note is only useful while the rid it points at still has
        // history; once the chain is gone the probe-miss path needs nothing.
        let mut unlinked = self.unlinked.lock();
        unlinked.retain(|(table, _), rid| {
            let shard = self.shard(*table, *rid).lock();
            shard.chains.contains_key(&(*table, *rid))
        });
        reclaimed
    }

    /// Aggregate store health for reports and tests.
    pub fn stats(&self) -> MvccStats {
        let mut chains = 0usize;
        let mut versions = 0usize;
        let mut chain_lengths = ValueHistogram::new();
        for shard in &self.shards {
            let shard = shard.lock();
            for chain in shard.chains.values() {
                chains += 1;
                versions += chain.versions.len();
                chain_lengths.record(chain.versions.len() as u64);
            }
        }
        MvccStats {
            chains,
            versions,
            published: self.published_horizon(),
            durable: self.durable.frontier(),
            oldest_snapshot: self.oldest_snapshot(),
            chain_lengths,
            inline_gc_passes: self.inline_gc_passes.load(Ordering::Relaxed),
        }
    }
}

impl Drop for VersionStore {
    fn drop(&mut self) {
        *self.gc_signal.stop.lock() = true;
        self.gc_signal.cond.notify_all();
        if let Collector::Running(thread) =
            std::mem::replace(self.collector.get_mut(), Collector::NotStarted)
        {
            // The collector's transient upgrade can be the last strong
            // reference (the owner dropped theirs mid-pass), in which case
            // this drop runs *on* the collector thread — joining would be a
            // self-join. The loop observes the stop flag and exits on its
            // own right after.
            if thread.thread().id() != std::thread::current().id() {
                let _ = thread.join();
            }
        }
    }
}

/// The collector loop: parked while no snapshot is open, a pass every
/// [`GC_INTERVAL`] while one is (overlapping snapshots hold chains the oldest
/// no longer needs); exits when the store is gone or told to stop. It holds
/// only a `Weak`, so dropping the last `Arc<VersionStore>` both stops it and
/// lets the store free.
fn run_gc(store: Weak<VersionStore>, signal: Arc<GcSignal>) {
    loop {
        {
            let mut stop = signal.stop.lock();
            while !*stop && !signal.versioning.load(Ordering::SeqCst) {
                signal.cond.wait(&mut stop);
            }
            if !*stop {
                signal.cond.wait_for(&mut stop, GC_INTERVAL);
            }
            if *stop {
                return;
            }
            if !signal.versioning.load(Ordering::SeqCst) {
                continue;
            }
        }
        match store.upgrade() {
            Some(store) => {
                store.gc_once();
            }
            None => return,
        }
    }
}

/// Which horizon a snapshot pins.
pub(crate) enum SnapshotBound {
    Published,
    Durable,
}

/// A pinned, consistent read horizon. Every read through the snapshot sees
/// exactly the state as of its commit ticket, however long it lives; the
/// collector cannot reclaim anything the snapshot can still reach. Dropping
/// the snapshot releases the pin, and the last one to go turns versioning
/// off.
pub struct Snapshot {
    store: Arc<VersionStore>,
    horizon: u64,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("horizon", &self.horizon)
            .finish()
    }
}

impl Snapshot {
    /// The commit-ticket horizon this snapshot reads at.
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// How many commit tickets have been published past this snapshot's
    /// horizon — the "staleness" the htap experiment reports.
    pub fn staleness(&self) -> u64 {
        self.store.published_horizon().saturating_sub(self.horizon)
    }

    /// The store this snapshot pins.
    pub(crate) fn store(&self) -> &Arc<VersionStore> {
        &self.store
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        self.store.deregister(self.horizon);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The chain mechanics by themselves, as the tests below drive them:
    /// every seed and every publish lands in the chains and a snapshot is
    /// just a pin, with no versioning period and no transaction manager in
    /// the way (period 0 is the one the shards start in). The protocol that
    /// decides *when* the write path calls them is tested through `Database`
    /// (`tests/versions_on_demand.rs`).
    impl VersionStore {
        fn seed(&self, table: TableId, rid: Rid, before: Option<&[u8]>) {
            let before = before.map(Bytes::copy_from_slice);
            self.seed_base(0, table, rid, before.as_ref(), None, UNCOMMITTED);
        }

        fn publish(&self, seq: u64, writes: &[(TableId, Rid, Option<Bytes>)]) {
            for (table, rid, row) in writes {
                let mut shard = self.shard(*table, *rid).lock();
                let chain = shard.chains.entry((*table, *rid)).or_default();
                chain.install(seq, row.clone());
            }
            self.published.mark(seq);
        }

        fn note_unlinked(&self, table: TableId, key: Key, rid: Rid) {
            self.unlinked.lock().insert((table, key), rid);
        }

        fn snapshot_at(self: &Arc<Self>, bound: SnapshotBound) -> Snapshot {
            self.pin(&mut self.snapshots.lock(), bound)
        }

        fn snapshot(self: &Arc<Self>) -> Snapshot {
            self.snapshot_at(SnapshotBound::Published)
        }

        fn snapshot_durable(self: &Arc<Self>) -> Snapshot {
            self.snapshot_at(SnapshotBound::Durable)
        }
    }

    fn rid(page: u32, slot: u16) -> Rid {
        Rid {
            page: PageId(page),
            slot: SlotId(slot),
        }
    }

    fn bytes(byte: u8) -> Option<Bytes> {
        Some(Bytes::copy_from_slice(&[byte]))
    }

    #[test]
    fn watermark_frontier_advances_only_densely() {
        let clock = WatermarkClock::default();
        clock.mark(2);
        clock.mark(3);
        assert_eq!(clock.frontier(), 0, "ticket 1 is missing");
        clock.mark(1);
        assert_eq!(clock.frontier(), 3);
        clock.mark(5);
        assert_eq!(clock.frontier(), 3);
        clock.mark(4);
        assert_eq!(clock.frontier(), 5);
    }

    #[test]
    fn chain_visibility_follows_the_horizon() {
        let store = Arc::new(VersionStore::new());
        let table = TableId(0);
        let r = rid(0, 0);
        store.seed(table, r, Some(&[1]));
        store.publish(1, &[(table, r, bytes(2))]);
        store.publish(2, &[(table, r, None)]); // deleted at ticket 2
        assert!(matches!(
            store.read_at(table, r, 0),
            ChainRead::Visible(b) if b.to_vec() == vec![1]
        ));
        assert!(matches!(
            store.read_at(table, r, 1),
            ChainRead::Visible(b) if b.to_vec() == vec![2]
        ));
        assert!(matches!(store.read_at(table, r, 2), ChainRead::Invisible));
        assert!(matches!(
            store.read_at(table, rid(9, 9), 2),
            ChainRead::Primordial
        ));
    }

    #[test]
    fn published_horizon_waits_for_the_dense_prefix() {
        let store = Arc::new(VersionStore::new());
        let table = TableId(0);
        store.publish(2, &[(table, rid(0, 0), bytes(2))]);
        assert_eq!(store.published_horizon(), 0, "ticket 1 not published yet");
        let snap = store.snapshot();
        assert_eq!(snap.horizon(), 0);
        store.publish(1, &[(table, rid(0, 1), bytes(1))]);
        assert_eq!(store.published_horizon(), 2);
        assert_eq!(snap.staleness(), 2);
        // The pinned snapshot still reads at its own horizon.
        assert!(matches!(
            store.read_at(table, rid(0, 0), snap.horizon()),
            ChainRead::Invisible
        ));
    }

    #[test]
    fn durable_horizon_stalls_below_a_ghost() {
        let store = Arc::new(VersionStore::new());
        let table = TableId(0);
        for seq in 1..=3 {
            store.publish(seq, &[(table, rid(0, seq as u16), bytes(seq as u8))]);
        }
        store.mark_durable(1);
        store.mark_durable(3); // ticket 2 lost its durability: a ghost
        assert_eq!(store.published_horizon(), 3);
        assert_eq!(store.durable_horizon(), 1);
        let snap = store.snapshot_durable();
        assert_eq!(snap.horizon(), 1);
        assert!(matches!(
            store.read_at(table, rid(0, 2), snap.horizon()),
            ChainRead::Invisible,
        ));
    }

    #[test]
    fn gc_prunes_to_the_oldest_snapshot_and_drops_dead_chains() {
        let store = Arc::new(VersionStore::new());
        let table = TableId(0);
        let r = rid(0, 0);
        store.seed(table, r, Some(&[0]));
        for seq in 1..=4 {
            store.publish(seq, &[(table, r, bytes(seq as u8))]);
        }
        let old = store.snapshot_at(SnapshotBound::Published); // horizon 4... pin before more writes
        for seq in 5..=6 {
            store.publish(seq, &[(table, r, bytes(seq as u8))]);
        }
        for seq in 1..=6 {
            store.mark_durable(seq);
        }
        // Oldest snapshot pins ticket 4: versions 0..=3 collapse to the one
        // at ticket 4; versions 5 and 6 must survive.
        let reclaimed = store.gc_once();
        assert_eq!(reclaimed, 4, "base + tickets 1..=3");
        assert!(matches!(
            store.read_at(table, r, old.horizon()),
            ChainRead::Visible(b) if b.to_vec() == vec![4]
        ));
        drop(old);
        // With no snapshots the bound is the durable horizon (here equal to
        // the published one): everything but the newest version goes.
        store.gc_once();
        assert_eq!(store.stats().versions, 1);

        // A fully deleted row's chain disappears entirely once unreachable.
        store.publish(7, &[(table, r, None)]);
        store.mark_durable(7);
        store.gc_once();
        assert_eq!(store.stats().chains, 0);
    }

    /// The durable horizon trails the published one by the commits still
    /// waiting for their device write, and `snapshot_durable` pins it: a
    /// collection pass must not prune below it, whether or not a (newer)
    /// published snapshot is live at the time.
    #[test]
    fn gc_without_snapshots_keeps_what_a_durable_snapshot_needs() {
        for published_snapshot_live in [false, true] {
            let store = Arc::new(VersionStore::new());
            let table = TableId(0);
            let r = rid(0, 0);
            store.seed(table, r, Some(&[0]));
            for seq in 1..=8u64 {
                let row = if seq == 5 || seq == 8 {
                    r
                } else {
                    rid(1, seq as u16)
                };
                store.publish(seq, &[(table, row, bytes(seq as u8))]);
            }
            for seq in 1..=6 {
                store.mark_durable(seq);
            }
            let live = published_snapshot_live.then(|| store.snapshot());
            store.gc_once();
            let durable = store.snapshot_durable();
            assert_eq!(durable.horizon(), 6);
            assert!(
                matches!(
                    store.read_at(table, r, durable.horizon()),
                    ChainRead::Visible(b) if b.to_vec() == vec![5]
                ),
                "ticket 5 is what a durable snapshot at 6 reads \
                 (published snapshot live: {published_snapshot_live})"
            );
            drop(live);
        }
    }

    /// An insert seeds a "did not exist" base under the page latch and
    /// publishes at commit; a collection pass in between must not drop the
    /// base, or snapshot scans would trust the slot's uncommitted heap bytes.
    #[test]
    fn gc_keeps_the_base_of_an_insert_in_flight() {
        let store = Arc::new(VersionStore::new());
        let table = TableId(0);
        let r = rid(0, 0);
        store.seed(table, r, None);
        store.publish(1, &[]);
        store.gc_once();
        assert!(
            matches!(store.read_at(table, r, 1), ChainRead::Invisible),
            "the slot must not read as primordial while its insert is in flight"
        );
        store.publish(2, &[(table, r, bytes(9))]);
        assert!(matches!(store.read_at(table, r, 1), ChainRead::Invisible));
        assert!(matches!(store.read_at(table, r, 2), ChainRead::Visible(_)));
    }

    #[test]
    fn unlink_notes_resolve_probe_misses_then_expire_with_the_chain() {
        let store = Arc::new(VersionStore::new());
        let table = TableId(0);
        let r = rid(0, 0);
        let key = Key::int(7);
        store.seed(table, r, Some(&[7]));
        store.publish(1, &[(table, r, None)]);
        store.mark_durable(1);
        store.note_unlinked(table, key.clone(), r);
        assert_eq!(store.unlinked_rid(table, &key), Some(r));
        assert!(matches!(
            store.read_at(table, r, 0),
            ChainRead::Visible(b) if b.to_vec() == vec![7]
        ));
        store.gc_once(); // chain is dead at horizon 1 → chain and note both go
        assert_eq!(store.unlinked_rid(table, &key), None);
    }

    /// A committer between handing over its write list and marking its
    /// ticket published may have left its rows unchained: the opener must
    /// not pin below that ticket, so it waits for the published frontier to
    /// cover it.
    #[test]
    fn an_opener_waits_until_every_ticket_handed_out_is_published() {
        let store = Arc::new(VersionStore::new());
        let table = TableId(0);
        store.durable.attach(
            1,
            vec![RowWrite {
                table,
                rid: rid(0, 0),
                before: bytes(1),
                after: bytes(2),
                unlinked: None,
            }],
        );
        let (opened_tx, opened_rx) = std::sync::mpsc::channel();
        let opener = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                let snapshot = store.open(SnapshotBound::Published);
                opened_tx.send(snapshot.horizon()).unwrap();
                snapshot
            })
        };
        assert!(
            opened_rx.recv_timeout(Duration::from_millis(50)).is_err(),
            "pinned below a ticket whose writes are in the heap, unversioned"
        );
        store.published.mark(1);
        let horizon = opened_rx
            .recv_timeout(Duration::from_secs(20))
            .expect("the opener pins once the ticket is published");
        assert_eq!(horizon, 1);
        let snapshot = opener.join().unwrap();
        // Undurable, so the opener chained it: a durable snapshot reads the
        // pre-image.
        assert_eq!(store.open(SnapshotBound::Durable).horizon(), 0);
        assert!(matches!(
            store.read_at(table, rid(0, 0), 0),
            ChainRead::Visible(b) if b.to_vec() == vec![1]
        ));
        assert!(matches!(
            store.read_at(table, rid(0, 0), snapshot.horizon()),
            ChainRead::Visible(b) if b.to_vec() == vec![2]
        ));
    }

    /// Without a collector thread (the spawn failed), a snapshot that closes
    /// while others stay open prunes on its own thread, and says so.
    #[test]
    fn closing_snapshots_prune_when_the_collector_thread_is_unavailable() {
        let store = Arc::new(VersionStore::new());
        let table = TableId(0);
        let r = rid(0, 0);
        store.seed(table, r, Some(&[0]));
        store.publish(1, &[(table, r, bytes(1))]);
        store.mark_durable(1);
        let old = store.snapshot();
        store.publish(2, &[(table, r, bytes(2))]);
        store.mark_durable(2);
        let new = store.snapshot();
        *store.collector.lock() = Collector::Unavailable;
        drop(old);
        let stats = store.stats();
        assert_eq!(stats.inline_gc_passes, 1);
        assert_eq!(
            stats.versions, 1,
            "only what the newer snapshot reads is left"
        );
        drop(new);
        assert_eq!(
            store.stats().inline_gc_passes,
            1,
            "the last snapshot to close leaves the store to the next opener"
        );
    }

    #[test]
    fn stats_histogram_tracks_chain_lengths() {
        let store = Arc::new(VersionStore::new());
        let table = TableId(0);
        store.seed(table, rid(0, 0), Some(&[1]));
        store.publish(1, &[(table, rid(0, 0), bytes(2))]);
        store.publish(2, &[(table, rid(0, 1), bytes(3))]);
        let stats = store.stats();
        assert_eq!(stats.chains, 2);
        assert_eq!(stats.versions, 3);
        assert_eq!(stats.chain_lengths.count(), 2);
        assert_eq!(stats.chain_lengths.max(), 2);
    }
}
