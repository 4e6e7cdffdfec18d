//! Multi-version storage: version chains, snapshot horizons and the
//! version-chain garbage collector.
//!
//! Every committed write installs a new row version stamped with the
//! committing transaction's *global commit-order ticket* — the sequence the
//! fence protocol already mints while the writer's locks are still held, so
//! version order equals commit order by construction. A [`Snapshot`]
//! captures a ticket horizon and serves reads purely from the chains (plus
//! the untouched heap for rows no transaction ever modified), with no
//! centralized lock manager, no DORA routing and no local-lock-table probes
//! on the read path.
//!
//! The heap always holds the *newest* (possibly still uncommitted) bytes;
//! chains hold history. Rows that were only ever bulk-loaded or recovered
//! have no chain at all — they are "primordial", visible to every snapshot
//! straight from the heap. The first transactional touch of such a row seeds
//! its chain with a base version (sequence 0) carrying the pre-image
//! *before* the heap is mutated, so a concurrent snapshot read either finds
//! no chain (heap bytes are committed) or finds a chain whose base version
//! is exactly the committed pre-image — never a torn or uncommitted row.
//!
//! Two dense watermark clocks order everything:
//!
//! * `published` — a ticket enters a snapshot's world only once *every*
//!   ticket below it has had its versions installed, closing the race where
//!   a ticket has been drawn but its writes are not in the chains yet.
//! * `durable` — advanced only when a commit's fences actually hardened.
//!   [`VersionStore::durable_horizon`] therefore provably excludes ELR
//!   ghost commits (applied in memory, never durable): a ghost never
//!   advances the clock, so neither it nor anything after it on that clock
//!   is below the durable horizon.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};

use dora_common::prelude::*;
use dora_metrics::{incr, incr_by, CounterKind, ValueHistogram};

/// How often the background collector wakes to prune version chains. Kept
/// short: chains are pruned down to the oldest live snapshot, so a laggy
/// collector costs memory, never correctness.
const GC_INTERVAL: Duration = Duration::from_millis(10);

/// Number of chain shards; a power of two so the rid hash folds cheaply.
const SHARDS: usize = 64;

/// One row version: the row bytes as of commit ticket `seq`, or `None` when
/// the row did not exist at that ticket (pre-insert base or a delete).
#[derive(Debug, Clone)]
struct Version {
    seq: u64,
    row: Option<Bytes>,
}

/// A row's version history, ascending by commit ticket. The base entry
/// (ticket 0) is the copy-on-write pre-image seeded the first time a
/// primordial row is touched transactionally.
#[derive(Debug, Default)]
struct VersionChain {
    versions: Vec<Version>,
}

impl VersionChain {
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
    /// The row has no chain: it was never modified transactionally, so the
    /// heap bytes are committed and visible to every snapshot.
    Primordial,
    /// A chain exists but no version is visible at the horizon (the row was
    /// born after it) or the visible version is a delete.
    Invisible,
    /// The visible version's bytes.
    Visible(Bytes),
}

/// A dense watermark clock over the commit-ticket sequence: tickets are
/// marked done in any order, the frontier advances only through dense
/// prefixes. `frontier() == n` means every ticket `1..=n` is done.
#[derive(Debug, Default)]
struct WatermarkClock {
    frontier: AtomicU64,
    pending: Mutex<BTreeSet<u64>>,
}

impl WatermarkClock {
    fn mark(&self, seq: u64) {
        let mut pending = self.pending.lock();
        pending.insert(seq);
        let mut frontier = self.frontier.load(Ordering::Relaxed);
        while pending.remove(&(frontier + 1)) {
            frontier += 1;
        }
        self.frontier.store(frontier, Ordering::Release);
    }

    fn frontier(&self) -> u64 {
        self.frontier.load(Ordering::Acquire)
    }
}

/// Stop signal shared with the background collector thread.
#[derive(Default)]
struct GcSignal {
    stop: Mutex<bool>,
    cond: Condvar,
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
}

/// The multi-version store: sharded version chains, the snapshot registry
/// and the two watermark clocks.
pub struct VersionStore {
    shards: Vec<Mutex<HashMap<(TableId, Rid), VersionChain>>>,
    /// Primary-key entries physically removed by (possibly uncommitted)
    /// deletes: key → the rid whose chain still holds the history a snapshot
    /// probe needs after the index entry is gone.
    unlinked: Mutex<HashMap<(TableId, Key), Rid>>,
    published: WatermarkClock,
    durable: WatermarkClock,
    /// Live snapshot horizons, refcounted ([`Snapshot`] deregisters on drop).
    snapshots: Mutex<BTreeMap<u64, usize>>,
    gc_signal: Arc<GcSignal>,
    gc_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    gc_started: AtomicBool,
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
    /// Creates an empty store. The collector thread is spawned lazily by the
    /// first snapshot, so databases that never snapshot never pay for it.
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            unlinked: Mutex::new(HashMap::new()),
            published: WatermarkClock::default(),
            durable: WatermarkClock::default(),
            snapshots: Mutex::new(BTreeMap::new()),
            gc_signal: Arc::new(GcSignal::default()),
            gc_thread: Mutex::new(None),
            gc_started: AtomicBool::new(false),
        }
    }

    fn shard(&self, table: TableId, rid: Rid) -> &Mutex<HashMap<(TableId, Rid), VersionChain>> {
        let hash = (table.0 as usize)
            .wrapping_mul(0x9e37_79b9)
            .wrapping_add(rid.page.0 as usize)
            .wrapping_mul(0x85eb_ca6b)
            .wrapping_add(rid.slot.0 as usize);
        &self.shards[hash % SHARDS]
    }

    // ----- write side -------------------------------------------------------

    /// Seeds the chain for a primordial row with its pre-image (base ticket
    /// 0), a no-op if the row already has a chain. Must be called *before*
    /// the first physical heap mutation of the row: a snapshot reader that
    /// finds no chain trusts the heap bytes.
    pub fn seed(&self, table: TableId, rid: Rid, before: Option<&[u8]>) {
        let mut shard = self.shard(table, rid).lock();
        if let std::collections::hash_map::Entry::Vacant(entry) = shard.entry((table, rid)) {
            let mut chain = VersionChain::default();
            chain.install(0, before.map(Bytes::copy_from_slice));
            entry.insert(chain);
            incr(CounterKind::VersionsCreated);
        }
    }

    /// Installs every pending write of one committing transaction at its
    /// commit ticket, then marks the ticket published. Also called with an
    /// empty batch so read-write tickets without row effects still advance
    /// the clock (the publication frontier must stay dense).
    pub fn publish(&self, seq: u64, writes: &[(TableId, Rid, Option<Bytes>)]) {
        let mut created = 0u64;
        for (table, rid, row) in writes {
            let mut shard = self.shard(*table, *rid).lock();
            let chain = shard.entry((*table, *rid)).or_default();
            if chain.install(seq, row.clone()) {
                created += 1;
            }
        }
        if created > 0 {
            incr_by(CounterKind::VersionsCreated, created);
        }
        self.published.mark(seq);
    }

    /// Marks `seq` durable (its commit fences all hardened). Lost commits
    /// are never marked, so the durable horizon stalls below the first
    /// ghost — exactly the conservative bound [`Self::durable_horizon`]
    /// promises.
    pub fn mark_durable(&self, seq: u64) {
        self.durable.mark(seq);
    }

    /// Records that `key`'s primary-index entry was physically removed while
    /// its row history lives on at `rid`.
    pub fn note_unlinked(&self, table: TableId, key: Key, rid: Rid) {
        self.unlinked.lock().insert((table, key), rid);
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
        match shard.get(&(table, rid)) {
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
            for ((chain_table, rid), chain) in shard.iter() {
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

    /// Pins a snapshot at the current published horizon.
    pub fn snapshot(self: &Arc<Self>) -> Snapshot {
        self.snapshot_at(SnapshotBound::Published)
    }

    /// Pins a snapshot at the durable horizon: everything visible through it
    /// is both committed and hardened — ELR ghost commits are provably
    /// excluded (they never advance the durable clock).
    pub fn snapshot_durable(self: &Arc<Self>) -> Snapshot {
        self.snapshot_at(SnapshotBound::Durable)
    }

    fn snapshot_at(self: &Arc<Self>, bound: SnapshotBound) -> Snapshot {
        // The horizon is read *while holding the registry mutex* so the
        // collector (which takes the same mutex to find the oldest pin)
        // can never prune past a horizon that is about to be pinned.
        let mut snapshots = self.snapshots.lock();
        let horizon = match bound {
            SnapshotBound::Published => self.published_horizon(),
            SnapshotBound::Durable => self.durable_horizon(),
        };
        *snapshots.entry(horizon).or_insert(0) += 1;
        drop(snapshots);
        incr(CounterKind::SnapshotsTaken);
        Snapshot {
            store: Arc::clone(self),
            horizon,
        }
    }

    fn deregister(&self, horizon: u64) {
        let mut snapshots = self.snapshots.lock();
        if let Some(count) = snapshots.get_mut(&horizon) {
            *count -= 1;
            if *count == 0 {
                snapshots.remove(&horizon);
            }
        }
    }

    /// Horizon of the oldest live snapshot, if any.
    pub fn oldest_snapshot(&self) -> Option<u64> {
        self.snapshots.lock().keys().next().copied()
    }

    // ----- garbage collection -------------------------------------------------

    /// Spawns the background collector (idempotent). The database calls
    /// this on the first snapshot it hands out; unit tests drive
    /// [`Self::gc_once`] directly instead, so reclaim counts stay exact.
    pub fn start_gc(self: &Arc<Self>) {
        if self.gc_started.swap(true, Ordering::AcqRel) {
            return;
        }
        let store = Arc::downgrade(self);
        let signal = Arc::clone(&self.gc_signal);
        let thread = std::thread::Builder::new()
            .name("mvcc-gc".into())
            .spawn(move || run_gc(store, signal))
            .expect("spawn mvcc-gc");
        *self.gc_thread.lock() = Some(thread);
    }

    /// One collection pass: prunes every chain down to what the oldest live
    /// snapshot — or one that [`Self::snapshot_durable`] may pin next — can
    /// still see, and drops dead chains and stale unlink notes. Returns how
    /// many versions were reclaimed.
    pub fn gc_once(&self) -> u64 {
        // Holding the registry mutex while reading both bounds gives the
        // same exclusion snapshot_at() relies on. The durable horizon is the
        // lowest a new snapshot can pin (it never moves back), so it bounds
        // the pass even while newer snapshots are live.
        let bound = {
            let snapshots = self.snapshots.lock();
            let oldest = snapshots.keys().next().copied().unwrap_or(u64::MAX);
            oldest.min(self.durable_horizon())
        };
        let mut reclaimed = 0u64;
        for shard in &self.shards {
            let mut shard = shard.lock();
            shard.retain(|_, chain| {
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
            shard.contains_key(&(*table, *rid))
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
            for chain in shard.values() {
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
        }
    }
}

impl Drop for VersionStore {
    fn drop(&mut self) {
        *self.gc_signal.stop.lock() = true;
        self.gc_signal.cond.notify_all();
        if let Some(thread) = self.gc_thread.get_mut().take() {
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

/// The collector loop: wake every [`GC_INTERVAL`], prune, exit when the
/// store is gone or told to stop. It holds only a `Weak`, so dropping the
/// last `Arc<VersionStore>` both stops it and lets the store free.
fn run_gc(store: Weak<VersionStore>, signal: Arc<GcSignal>) {
    loop {
        {
            let mut stop = signal.stop.lock();
            if *stop {
                return;
            }
            signal.cond.wait_for(&mut stop, GC_INTERVAL);
            if *stop {
                return;
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

enum SnapshotBound {
    Published,
    Durable,
}

/// A pinned, consistent read horizon. Every read through the snapshot sees
/// exactly the state as of its commit ticket, however long it lives; the
/// collector cannot reclaim anything the snapshot can still reach. Dropping
/// the snapshot releases the pin.
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
