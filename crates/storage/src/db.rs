//! The `Database` facade: the API both execution engines program against.
//!
//! Every data operation takes a [`CcMode`] flag, mirroring the paper's only
//! modifications to Shore-MT (Section 4.3):
//!
//! * [`CcMode::Full`] — acquire the whole intention-lock hierarchy plus the
//!   record lock; what the conventional (baseline) engine always uses.
//! * [`CcMode::RowOnly`] — acquire only the record (RID) lock; what DORA uses
//!   for inserts and deletes (Section 4.2.1).
//! * [`CcMode::None`] — bypass the centralized lock manager entirely; what
//!   DORA uses for probes and updates, relying on its executors' thread-local
//!   lock tables for isolation.
//!
//! Physical consistency (pages, indexes) is protected by latches regardless
//! of the `CcMode`, so skipping logical locking never corrupts structures —
//! it only changes isolation responsibilities, exactly as in the paper.

use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

use dora_common::prelude::*;
use dora_metrics::{incr, incr_by, record_time, time_section, CounterKind, TimeCategory};

use crate::btree::{BTreeIndex, IndexEntry};
use crate::buffer::{BufferPool, PageStore};
use crate::catalog::{Catalog, IndexSpec, TableMeta, TableSchema};
use crate::heap::{HeapFile, PageOp};
use crate::lock::{LockId, LockManager, LockMode};
use crate::log::{LogManager, LogRecord, LogRecordKind, Lsn};
use crate::mvcc::{ChainRead, MvccStats, RowWrite, Snapshot, SnapshotBound, VersionStore};
use crate::txn::{TxnManager, TxnState, TxnStatus};

/// An entry returned by a secondary-index probe: the record's RID plus the
/// routing fields DORA needs to route the subsequent record access
/// (Section 4.2.2).
pub(crate) type SecondaryEntry = IndexEntry;

/// Replay records each recovery worker must have before one more is worth a
/// thread spawn (a page run applies a record in about a microsecond).
const RECORDS_PER_REPLAY_WORKER: usize = 4_096;

/// Told every read-write commit's transaction id and commit ticket
/// ([`Database::observe_commits`]).
type CommitObserver = Box<dyn Fn(TxnId, u64) + Send + Sync>;

/// A handle to a running transaction. Cheap to clone; under DORA the same
/// transaction is touched from several executor threads.
#[derive(Debug, Clone)]
pub struct TxnHandle {
    /// The shared transaction state, which also holds the deferred index
    /// flags and pending heap frees (allocated on first use).
    state: Arc<TxnState>,
    /// When set, this is a read-only snapshot transaction: every read is
    /// served at the snapshot's horizon with no locking of any kind, and
    /// writes are rejected.
    snapshot: Option<Arc<Snapshot>>,
}

impl TxnHandle {
    /// The transaction id.
    pub fn id(&self) -> TxnId {
        self.state.id
    }

    /// `true` while the transaction is still running.
    pub(crate) fn is_active(&self) -> bool {
        self.state.is_active()
    }

    /// The snapshot this transaction reads at, if it is a snapshot reader.
    pub(crate) fn snapshot(&self) -> Option<&Arc<Snapshot>> {
        self.snapshot.as_ref()
    }

    /// `true` if this is a lock-free snapshot reader.
    pub(crate) fn is_snapshot(&self) -> bool {
        self.snapshot.is_some()
    }
}

/// The outcome of a successful [`Database::precommit`]: where the commit
/// record landed (nowhere for read-only transactions) and whether the
/// transaction's locks were already released early. Redeemed exactly once,
/// with [`Database::commit_wait`] or [`Database::commit_async`].
#[derive(Debug)]
#[must_use = "a precommitted transaction must be completed with commit_wait or commit_async"]
pub struct CommitHandle {
    /// The commit ticket drawn at precommit and the commit record's LSN
    /// (`None` for read-only commits). The durable watermark clock is
    /// advanced with the ticket once the record hardens.
    commit: Option<(u64, Lsn)>,
    early_released: bool,
}

impl CommitHandle {
    /// `true` if precommit released the transaction's locks early (ELR).
    pub fn early_released(&self) -> bool {
        self.early_released
    }
}

/// The storage manager facade.
pub struct Database {
    config: SystemConfig,
    catalog: Catalog,
    pool: Arc<BufferPool>,
    store: Arc<PageStore>,
    heaps: RwLock<Vec<Arc<HeapFile>>>,
    primaries: RwLock<Vec<Arc<BTreeIndex>>>,
    secondaries: RwLock<Vec<Arc<BTreeIndex>>>,
    locks: LockManager,
    log: LogManager,
    txns: Arc<TxnManager>,
    versions: Arc<VersionStore>,
    commit_observer: OnceLock<CommitObserver>,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.catalog.table_count())
            .finish()
    }
}

impl Database {
    /// Creates an empty database with the given configuration.
    pub fn new(config: SystemConfig) -> Arc<Self> {
        if config.faults.enabled() {
            // Chaos runs inject panics by the thousand; keep the default
            // hook's backtraces for genuine bugs only.
            silence_injected_panics();
        }
        let store = Arc::new(PageStore::new());
        let pool = Arc::new(BufferPool::new(
            Arc::clone(&store),
            config.buffer_pool_pages,
            config.page_size,
        ));
        let txns = Arc::new(TxnManager::new());
        let faults = Arc::new(FaultPlan::new(config.faults.clone()));
        Arc::new(Self {
            catalog: Catalog::new(),
            pool,
            store,
            heaps: RwLock::new(Vec::new()),
            primaries: RwLock::new(Vec::new()),
            secondaries: RwLock::new(Vec::new()),
            locks: LockManager::new(true),
            log: LogManager::with_faults(
                config.log_flush_micros,
                config.durability.clone(),
                Arc::clone(&faults),
            ),
            versions: Arc::new(VersionStore::over(Arc::clone(&txns), faults)),
            txns,
            commit_observer: OnceLock::new(),
            config,
        })
    }

    /// Creates a database with the default test configuration.
    pub fn for_tests() -> Arc<Self> {
        Self::new(SystemConfig::for_tests())
    }

    /// The configuration this database was built with.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The centralized lock manager (exposed so DORA can feed external waits
    /// into deadlock detection).
    pub fn lock_manager(&self) -> &LockManager {
        &self.locks
    }

    /// The log manager.
    pub fn log_manager(&self) -> &LogManager {
        &self.log
    }

    /// The deterministic fault schedule this database runs under (inert
    /// unless [`SystemConfig::faults`] enables a site).
    pub fn faults(&self) -> &Arc<FaultPlan> {
        self.log.faults()
    }

    // ----- schema ----------------------------------------------------------

    /// Creates a table (and its primary index).
    pub fn create_table(&self, schema: TableSchema) -> DbResult<TableId> {
        let id = self.catalog.add_table(schema)?;
        let mut heaps = self.heaps.write();
        let mut primaries = self.primaries.write();
        debug_assert_eq!(heaps.len(), id.0 as usize);
        heaps.push(Arc::new(HeapFile::new(id, Arc::clone(&self.pool))));
        primaries.push(Arc::new(BTreeIndex::new(true)));
        Ok(id)
    }

    /// Creates a secondary index over an existing (typically still empty)
    /// table.
    pub fn create_index(&self, spec: IndexSpec) -> DbResult<IndexId> {
        let unique = spec.unique;
        let id = self.catalog.add_index(spec)?;
        let mut secondaries = self.secondaries.write();
        debug_assert_eq!(secondaries.len(), id.0 as usize);
        secondaries.push(Arc::new(BTreeIndex::new(unique)));
        Ok(id)
    }

    /// Table id by name.
    pub fn table_id(&self, name: &str) -> DbResult<TableId> {
        self.catalog.table_id(name)
    }

    /// Index id by name.
    pub fn index_id(&self, name: &str) -> DbResult<IndexId> {
        self.catalog.index_id(name)
    }

    fn heap(&self, table: TableId) -> DbResult<Arc<HeapFile>> {
        self.heaps
            .read()
            .get(table.0 as usize)
            .cloned()
            .ok_or_else(|| DbError::NoSuchObject(format!("{table}")))
    }

    fn primary(&self, table: TableId) -> DbResult<Arc<BTreeIndex>> {
        self.primaries
            .read()
            .get(table.0 as usize)
            .cloned()
            .ok_or_else(|| DbError::NoSuchObject(format!("{table}")))
    }

    fn secondary(&self, index: IndexId) -> DbResult<Arc<BTreeIndex>> {
        self.secondaries
            .read()
            .get(index.0 as usize)
            .cloned()
            .ok_or_else(|| DbError::NoSuchObject(format!("{index}")))
    }

    // ----- transactions ----------------------------------------------------

    /// Begins a transaction. No log record is written here: the `Begin`
    /// record is appended lazily by the transaction's first data-change
    /// record, so read-only transactions generate zero log traffic.
    pub fn begin(&self) -> TxnHandle {
        let state = self.txns.begin();
        TxnHandle {
            state,
            snapshot: None,
        }
    }

    /// Begins a read-only transaction pinned to `snapshot`. Every read is
    /// answered at the snapshot's commit-ticket horizon with zero lock
    /// manager, local-lock-table or routing traffic; write operations fail
    /// with [`DbError::InvalidOperation`]. Like all read-only transactions
    /// it logs nothing, and commit/abort are trivially cheap.
    pub fn begin_snapshot(&self, snapshot: Arc<Snapshot>) -> TxnHandle {
        let state = self.txns.begin();
        TxnHandle {
            state,
            snapshot: Some(snapshot),
        }
    }

    /// Pins a [`Snapshot`] at the current published commit-ticket horizon.
    /// Row versions are kept only while a snapshot is open: the first one
    /// adopts the transactions in flight (it never waits for one to finish)
    /// and the last one to drop turns versioning off again.
    pub fn snapshot(&self) -> Snapshot {
        self.versions.open(SnapshotBound::Published)
    }

    /// Pins a [`Snapshot`] at the *durable* horizon: everything it sees is
    /// committed and hardened, so early-lock-release ghost commits (applied
    /// in memory, durability lost) are provably excluded. Does not wait for
    /// the log device.
    pub fn snapshot_durable(&self) -> Snapshot {
        self.versions.open(SnapshotBound::Durable)
    }

    /// Test hook, a first instalment of the history checker: `observer` is
    /// told the transaction id and commit ticket of every read-write commit,
    /// on the committing thread, right after the ticket is drawn. Only the
    /// first observer registered is kept.
    pub fn observe_commits(&self, observer: impl Fn(TxnId, u64) + Send + Sync + 'static) {
        let _ = self.commit_observer.set(Box::new(observer));
    }

    /// The multi-version store (version chains, horizons, GC).
    pub fn version_store(&self) -> &Arc<VersionStore> {
        &self.versions
    }

    /// Aggregate MVCC health: chain/version counts, horizons and the live
    /// chain-length histogram the reports print.
    pub fn mvcc_stats(&self) -> MvccStats {
        self.versions.stats()
    }

    /// Appends a data-change record for `txn`, writing the lazy `Begin`
    /// record first if this is the transaction's first change.
    fn log_change(&self, txn: &TxnHandle, kind: LogRecordKind) {
        if txn.state.claim_begin_record() {
            self.log.append(txn.id(), LogRecordKind::Begin);
        }
        self.log.append(txn.id(), kind);
    }

    /// First half of commit: appends the transaction's commit record,
    /// applies deferred secondary-index delete flags, and — when
    /// [`DurabilityConfig::early_lock_release`] is on — releases the
    /// transaction's centralized locks and marks it committed *before* the
    /// record is durable. The returned [`CommitHandle`] is redeemed with
    /// [`Self::commit_wait`] (block until the record is durable) or
    /// [`Self::commit_async`] (completion callback once it hardens).
    ///
    /// After a successful precommit the transaction's outcome is decided:
    /// it must not be aborted, only waited on. Safety of the early release
    /// rests on the commit record being appended while the locks are still
    /// held: any dependent transaction commits at a larger LSN, and recovery
    /// behind a cut replays exactly the commit records inside it, so no
    /// recovered state can contain a dependent without this transaction.
    ///
    /// [`DurabilityConfig::early_lock_release`]: dora_common::config::DurabilityConfig::early_lock_release
    pub fn precommit(&self, txn: &TxnHandle) -> DbResult<CommitHandle> {
        if !txn.is_active() {
            return Err(DbError::InvalidOperation(format!(
                "{} is not active",
                txn.id()
            )));
        }
        // Read-only transactions have nothing to make durable: skip the
        // commit record and the log flush, as real engines do.
        let commit = if txn.state.has_writes() {
            let (seq, lsn) = self.log.append_commit(txn.id());
            if let Some(observer) = self.commit_observer.get() {
                observer(txn.id(), seq);
            }
            // Publish this transaction's row writes at its commit ticket
            // *immediately* after the ticket is drawn — before deferred
            // index flags, before any early lock release and before
            // anything here can fail — so the published watermark stays
            // dense (a snapshot opener waits on it) and a dependent writer
            // (who can only run once our locks drop) always publishes after
            // us.
            self.versions.publish_writes(seq, &txn.state.writes);
            Some((seq, lsn))
        } else {
            None
        };
        // The paper: "once the deleting transaction commits, it goes back and
        // sets the flag for each index entry of a deleted record outside of
        // any transaction."
        let deferred: Vec<_> = std::mem::take(&mut *txn.state.deferred_flags.lock());
        for (index_id, key, rid) in deferred {
            let index = self.secondary(index_id)?;
            // The entry may have been garbage collected already; ignore.
            let _ = index.set_deleted_flag(&key, rid, true);
        }
        // The commit is decided: heap slots this transaction deleted can now
        // be handed back to inserts.
        let frees: Vec<_> = std::mem::take(&mut *txn.state.pending_frees.lock());
        for (table, rid) in frees {
            if let Ok(heap) = self.heap(table) {
                let _ = heap.free_pending(rid);
            }
        }
        let early_released = self.config.durability.early_lock_release;
        if early_released {
            self.finish_commit(txn);
            if commit.is_some() {
                incr(CounterKind::ElrEarlyReleases);
            }
        }
        self.log.maybe_checkpoint();
        Ok(CommitHandle {
            commit,
            early_released,
        })
    }

    /// Releases centralized locks and retires the transaction as committed.
    fn finish_commit(&self, txn: &TxnHandle) {
        let held = std::mem::take(&mut *txn.state.held.lock());
        self.locks.release_all(txn.id(), held);
        self.txns.finish(&txn.state, TxnStatus::Committed);
        self.forget_logged(txn);
    }

    /// Drops the log's per-transaction entry, which only a transaction that
    /// logged a change has: a read-only one skips the log's mutex.
    fn forget_logged(&self, txn: &TxnHandle) {
        if txn.state.has_writes() {
            self.log.forget(txn.id());
        }
    }

    /// Second half of commit: blocks until the commit record is durable,
    /// then releases locks if precommit did not already. The calling thread
    /// drives the log itself (`LogManager::flush`): it performs the device
    /// write if nobody else is writing, and otherwise follows the thread
    /// that is — no flusher thread is woken for a commit somebody waits on.
    /// Call it where a device write may run: not under a latch, not while
    /// holding a DORA executor's claim. The wall-clock wait
    /// is charged to [`TimeCategory::CommitWait`] so the driver can report
    /// commit latency separately from execute latency.
    pub fn commit_wait(&self, txn: &TxnHandle, handle: CommitHandle) -> DbResult<()> {
        let durable = handle
            .commit
            .is_none_or(|(_, lsn)| time_section(TimeCategory::CommitWait, || self.log.flush(lsn)));
        // Locks are released either way: the transaction is finished, its
        // fate (durable commit or ghost) decided. On lost durability the
        // effects may already be applied in memory, so the caller gets the
        // distinct non-retryable outcome instead of an "aborted" it might
        // re-run.
        if !handle.early_released {
            self.finish_commit(txn);
        }
        if durable {
            if let Some((seq, _)) = handle.commit {
                self.versions.mark_durable(seq);
            }
            Ok(())
        } else {
            incr(CounterKind::DurabilityLost);
            Err(DbError::DurabilityLost)
        }
    }

    /// Second half of commit for a transaction nobody blocks on: registers
    /// `on_durable` to fire once the commit record hardens, without
    /// blocking the caller. DORA's terminal RVP uses it for transactions
    /// submitted without a waiting client, so executor threads never sleep
    /// on log I/O: the callback (running on whichever thread hardens the
    /// record — the log-flusher daemon, or a committer whose own write
    /// covered it) releases any remaining locks and notifies the client.
    ///
    /// Read-only transactions complete inline on the calling thread.
    pub fn commit_async(
        self: &Arc<Self>,
        txn: &TxnHandle,
        handle: CommitHandle,
        on_durable: impl FnOnce(bool) + Send + 'static,
    ) {
        let Some((seq, lsn)) = handle.commit else {
            if !handle.early_released {
                self.finish_commit(txn);
            }
            on_durable(true);
            return;
        };
        let db = Arc::clone(self);
        let txn = txn.clone();
        let early_released = handle.early_released;
        let start = std::time::Instant::now();
        self.log.submit_commit(
            lsn,
            Box::new(move |durable| {
                // Locks are released even when durability was lost: the
                // transaction's fate is decided (ghost commit), holding its
                // locks forever would wedge everything behind it.
                if !early_released {
                    db.finish_commit(&txn);
                }
                if durable {
                    db.versions.mark_durable(seq);
                } else {
                    incr(CounterKind::DurabilityLost);
                }
                record_time(TimeCategory::CommitWait, start.elapsed());
                on_durable(durable);
            }),
        );
    }

    /// Commits a transaction synchronously: [`Self::precommit`] followed by
    /// [`Self::commit_wait`], so the calling thread leads or follows the
    /// device write that hardens this commit.
    pub fn commit(&self, txn: &TxnHandle) -> DbResult<()> {
        let handle = self.precommit(txn)?;
        self.commit_wait(txn, handle)
    }

    /// Aborts a transaction: undoes its changes (walking its log records
    /// backwards), writes an abort record and releases its locks.
    ///
    /// Locks are released and the transaction retired even when an undo step
    /// fails — a transaction that keeps its locks forever wedges everything
    /// queued behind them. The first undo error is still surfaced to the
    /// caller after cleanup.
    pub fn abort(&self, txn: &TxnHandle) -> DbResult<()> {
        if !txn.is_active() {
            return Err(DbError::InvalidOperation(format!(
                "{} is not active",
                txn.id()
            )));
        }
        let mut undo_error: Option<DbError> = None;
        for record in self.log.records_for_undo(txn.id()) {
            let step = match record.kind {
                LogRecordKind::Insert { table, rid, after } => self.undo_insert(table, rid, &after),
                LogRecordKind::Update {
                    table, rid, before, ..
                } => self.heap(table).and_then(|heap| heap.update(rid, &before)),
                LogRecordKind::Delete { table, rid, before } => {
                    self.undo_delete(table, rid, &before)
                }
                _ => Ok(()),
            };
            if let Err(error) = step {
                undo_error.get_or_insert(error);
            }
        }
        txn.state.deferred_flags.lock().clear();
        // Undone deletes were restored in place; their slot reservations are
        // consumed by the restore, so there is nothing left to free.
        txn.state.pending_frees.lock().clear();
        // Only now that every change is undone: a snapshot opener that
        // finds the list empty trusts the heap bytes of these rows.
        txn.state.writes.lock().clear();
        // A transaction that never logged a change has nothing to mark
        // aborted either — read-only aborts stay off the log entirely.
        if txn.state.has_writes() {
            self.log.append(txn.id(), LogRecordKind::Abort);
        }
        let held = std::mem::take(&mut *txn.state.held.lock());
        self.locks.release_all(txn.id(), held);
        self.txns.finish(&txn.state, TxnStatus::Aborted);
        self.forget_logged(txn);
        match undo_error {
            Some(error) => Err(error),
            None => Ok(()),
        }
    }

    fn undo_insert(&self, table: TableId, rid: Rid, after: &[u8]) -> DbResult<()> {
        let heap = self.heap(table)?;
        let meta = self.catalog.table(table)?;
        let row = Value::decode_row(after)?;
        heap.delete(rid)?;
        let primary_key = meta.schema.primary_key_of(&row);
        let _ = self.primary(table)?.remove(&primary_key, rid);
        for index_meta in &meta.secondary_indexes {
            let key = index_meta.spec.key_of(&row);
            let _ = self.secondary(index_meta.id)?.remove(&key, rid);
        }
        Ok(())
    }

    fn undo_delete(&self, table: TableId, rid: Rid, before: &[u8]) -> DbResult<()> {
        let heap = self.heap(table)?;
        let meta = self.catalog.table(table)?;
        let row = Value::decode_row(before)?;
        heap.insert_at(rid, before)?;
        let primary_key = meta.schema.primary_key_of(&row);
        self.primary(table)?.insert(
            &primary_key,
            IndexEntry::new(rid, meta.schema.routing_key_of(&row)),
        )?;
        for index_meta in &meta.secondary_indexes {
            let key = index_meta.spec.key_of(&row);
            let index = self.secondary(index_meta.id)?;
            // The baseline removes secondary entries physically; DORA leaves
            // them in place (flagging happens only after commit). Restore
            // whichever state is missing.
            if index.set_deleted_flag(&key, rid, false).is_err() {
                index.insert(&key, IndexEntry::new(rid, meta.schema.routing_key_of(&row)))?;
            }
        }
        Ok(())
    }

    // ----- locking helpers ---------------------------------------------------

    fn lock_record(
        &self,
        txn: &TxnHandle,
        table: TableId,
        rid: Rid,
        mode: LockMode,
        cc: CcMode,
    ) -> DbResult<()> {
        match cc {
            CcMode::None => Ok(()),
            CcMode::RowOnly => {
                let mut held = txn.state.held.lock();
                self.locks
                    .acquire(txn.id(), &mut held, LockId::record(table, rid), mode)
            }
            CcMode::Full => {
                let mut held = txn.state.held.lock();
                self.locks
                    .acquire(txn.id(), &mut held, LockId::Database, mode.intention())?;
                self.locks
                    .acquire(txn.id(), &mut held, LockId::Table(table), mode.intention())?;
                self.locks
                    .acquire(txn.id(), &mut held, LockId::record(table, rid), mode)
            }
        }
    }

    fn lock_table(
        &self,
        txn: &TxnHandle,
        table: TableId,
        mode: LockMode,
        cc: CcMode,
    ) -> DbResult<()> {
        match cc {
            CcMode::None => Ok(()),
            CcMode::RowOnly | CcMode::Full => {
                let mut held = txn.state.held.lock();
                self.locks
                    .acquire(txn.id(), &mut held, LockId::Database, mode.intention())?;
                self.locks
                    .acquire(txn.id(), &mut held, LockId::Table(table), mode)
            }
        }
    }

    // ----- data operations ---------------------------------------------------

    /// Inserts a row, returning its RID.
    ///
    /// Even under DORA the insert acquires the record (RID) lock through the
    /// centralized lock manager ([`CcMode::RowOnly`]): the physical page slot
    /// must be protected against concurrent reuse by other executors
    /// (Section 4.2.1).
    pub fn insert(&self, txn: &TxnHandle, table: TableId, row: Row, cc: CcMode) -> DbResult<Rid> {
        self.ensure_active(txn)?;
        self.ensure_writable(txn)?;
        let meta = self.catalog.table(table)?;
        meta.schema.validate(&row)?;
        if cc == CcMode::Full {
            self.lock_table(txn, table, LockMode::IX, cc)?;
        }
        let primary_key = meta.schema.primary_key_of(&row);
        let primary = self.primary(table)?;
        if primary.get_rid(&primary_key).is_some() {
            return Err(DbError::DuplicateKey {
                table,
                detail: format!("{primary_key}"),
            });
        }
        let image = Value::encode_row(&row);
        let heap = self.heap(table)?;
        // While a snapshot is open the chain is seeded with a "not yet born"
        // base under the page write latch, so no snapshot reader can see the
        // raw uncommitted bytes before the chain says they are invisible.
        let rid = {
            let mut writes = txn.state.writes.lock();
            let rid = time_section(TimeCategory::Work, || {
                heap.insert_with(&image, |rid| {
                    self.versions.seed_write(&writes, table, rid, None, None)
                })
            })?;
            writes.push(RowWrite {
                table,
                rid,
                before: None,
                after: Some(Arc::from(&image[..])),
                unlinked: None,
            });
            rid
        };
        // Lock the freshly allocated RID (slot) so that a concurrent delete's
        // rollback cannot collide with this insert.
        if cc != CcMode::None {
            self.lock_record(txn, table, rid, LockMode::X, CcMode::RowOnly)?;
        }
        let index_result = time_section(TimeCategory::Work, || {
            self.insert_index_entries(&meta, &primary, &primary_key, &row, rid)
        });
        if let Err(err) = index_result {
            // A duplicate in a unique secondary index, or a concurrent insert
            // that won the primary key's race: give the heap slot back so
            // nothing leaks, then surface the error.
            let mut writes = txn.state.writes.lock();
            let _ = heap.delete(rid);
            writes.retract(table, rid);
            return Err(err);
        }
        self.log_change(
            txn,
            LogRecordKind::Insert {
                table,
                rid,
                after: image,
            },
        );
        Ok(rid)
    }

    /// Probes a table by primary key. Returns the RID and row, or `None` if
    /// the key does not exist.
    pub fn probe_primary(
        &self,
        txn: &TxnHandle,
        table: TableId,
        key: &Key,
        for_update: bool,
        cc: CcMode,
    ) -> DbResult<Option<(Rid, Row)>> {
        self.ensure_active(txn)?;
        if let Some(snapshot) = txn.snapshot() {
            if for_update {
                return Err(DbError::InvalidOperation(
                    "snapshot transactions are read-only".into(),
                ));
            }
            return self.snapshot_probe(snapshot, table, key);
        }
        let Some(rid) = self.probe_rid(txn, table, key, for_update, cc)? else {
            return Ok(None);
        };
        let heap = self.heap(table)?;
        let row = time_section(TimeCategory::Work, || {
            heap.read_with(rid, Value::decode_row)
        })?;
        Ok(Some((rid, row)))
    }

    /// The index half of a primary-key probe: the key's RID, with the locks
    /// `cc` asks for taken.
    fn probe_rid(
        &self,
        txn: &TxnHandle,
        table: TableId,
        key: &Key,
        for_update: bool,
        cc: CcMode,
    ) -> DbResult<Option<Rid>> {
        let primary = self.primary(table)?;
        let rid = time_section(TimeCategory::Work, || primary.get_rid(key));
        let Some(rid) = rid else {
            // Still touch the table intention lock: a conventional engine
            // acquires it before discovering the key is absent.
            if cc == CcMode::Full {
                self.lock_table(
                    txn,
                    table,
                    if for_update {
                        LockMode::IX
                    } else {
                        LockMode::IS
                    },
                    cc,
                )?;
            }
            return Ok(None);
        };
        let mode = if for_update { LockMode::X } else { LockMode::S };
        if cc == CcMode::Full {
            self.lock_record(txn, table, rid, mode, cc)?;
        }
        Ok(Some(rid))
    }

    /// Reads a record by RID.
    pub fn read_rid(
        &self,
        txn: &TxnHandle,
        table: TableId,
        rid: Rid,
        for_update: bool,
        cc: CcMode,
    ) -> DbResult<Row> {
        self.ensure_active(txn)?;
        if let Some(snapshot) = txn.snapshot() {
            if for_update {
                return Err(DbError::InvalidOperation(
                    "snapshot transactions are read-only".into(),
                ));
            }
            return self.snapshot_read_rid(snapshot, table, rid);
        }
        let mode = if for_update { LockMode::X } else { LockMode::S };
        if cc == CcMode::Full {
            self.lock_record(txn, table, rid, mode, cc)?;
        }
        let heap = self.heap(table)?;
        time_section(TimeCategory::Work, || {
            heap.read_with(rid, Value::decode_row)
        })
    }

    /// Updates the record at `rid` in place via `f`.
    ///
    /// The mutator must not change primary-key or secondary-index key
    /// columns; the OLTP workloads in this reproduction (like the paper's)
    /// never do.
    pub fn update_rid(
        &self,
        txn: &TxnHandle,
        table: TableId,
        rid: Rid,
        cc: CcMode,
        f: impl FnOnce(&mut Row) -> DbResult<()>,
    ) -> DbResult<()> {
        self.ensure_active(txn)?;
        self.ensure_writable(txn)?;
        if cc != CcMode::None {
            self.lock_record(txn, table, rid, LockMode::X, cc)?;
        }
        let heap = self.heap(table)?;
        let (before, mut row) = time_section(TimeCategory::Work, || {
            heap.read_with(rid, |record| {
                Ok((record.to_vec(), Value::decode_row(record)?))
            })
        })?;
        f(&mut row)?;
        let after = Value::encode_row(&row);
        {
            let before_image = Arc::from(&before[..]);
            // While a snapshot is open, seed the chain base with the
            // committed pre-image before the heap bytes change, so a snapshot
            // reader racing this update either sees no chain (heap bytes
            // still the old image) or a chain whose base is that same old
            // image. Heap change and list entry are one step to a snapshot
            // opener, which locks the list to adopt what is in flight.
            let mut writes = txn.state.writes.lock();
            self.versions
                .seed_write(&writes, table, rid, Some(&before_image), None);
            time_section(TimeCategory::Work, || heap.update(rid, &after))?;
            writes.push(RowWrite {
                table,
                rid,
                before: Some(before_image),
                after: Some(Arc::from(&after[..])),
                unlinked: None,
            });
        }
        self.log_change(
            txn,
            LogRecordKind::Update {
                table,
                rid,
                before,
                after,
            },
        );
        Ok(())
    }

    /// Probes by primary key and updates the found record: the locking of
    /// [`Self::probe_primary`] with `for_update`, then [`Self::update_rid`].
    /// The row is decoded once, by the update.
    pub fn update_primary(
        &self,
        txn: &TxnHandle,
        table: TableId,
        key: &Key,
        cc: CcMode,
        f: impl FnOnce(&mut Row) -> DbResult<()>,
    ) -> DbResult<()> {
        self.ensure_active(txn)?;
        self.ensure_writable(txn)?;
        let Some(rid) = self.probe_rid(txn, table, key, true, cc)? else {
            return Err(DbError::NotFound {
                table,
                detail: format!("{key}"),
            });
        };
        self.update_rid(txn, table, rid, cc, f)
    }

    /// Deletes the record with the given primary key.
    ///
    /// Under [`CcMode::Full`] secondary-index entries are removed physically
    /// (row locks make that safe). Under DORA modes the entries stay and are
    /// flagged `deleted` only after the transaction commits, following
    /// Section 4.2.2.
    pub fn delete_primary(
        &self,
        txn: &TxnHandle,
        table: TableId,
        key: &Key,
        cc: CcMode,
    ) -> DbResult<()> {
        self.ensure_active(txn)?;
        self.ensure_writable(txn)?;
        let primary = self.primary(table)?;
        let rid = time_section(TimeCategory::Work, || primary.get_rid(key));
        let Some(rid) = rid else {
            return Err(DbError::NotFound {
                table,
                detail: format!("{key}"),
            });
        };
        // Deletes always lock the RID through the centralized manager, even
        // under DORA (Section 4.2.1).
        if cc == CcMode::None {
            self.lock_record(txn, table, rid, LockMode::X, CcMode::RowOnly)?;
        } else {
            self.lock_record(txn, table, rid, LockMode::X, cc)?;
        }
        let meta = self.catalog.table(table)?;
        let heap = self.heap(table)?;
        let before = time_section(TimeCategory::Work, || {
            heap.read_with(rid, |record| Ok(record.to_vec()))
        })?;
        // Only the secondary keys need the row, and they need it before
        // anything changes: a corrupt image must fail the delete whole.
        let row = if meta.secondary_indexes.is_empty() {
            Row::new()
        } else {
            Value::decode_row(&before)?
        };
        {
            let before_image = Arc::from(&before[..]);
            // As in update: while a snapshot is open, capture the committed
            // pre-image before the slot goes away, and — the primary entry is
            // about to go physically — leave a breadcrumb so live snapshots
            // can still resolve this key to its chain.
            let mut writes = txn.state.writes.lock();
            self.versions
                .seed_write(&writes, table, rid, Some(&before_image), Some(key));
            // A *reserving* delete: the slot is not offered for reuse until
            // this transaction's commit is decided (freed in precommit,
            // restored by abort). A plain delete here would let a concurrent
            // insert occupy the slot and make our rollback impossible.
            time_section(TimeCategory::Work, || heap.delete_pending(rid))?;
            writes.push(RowWrite {
                table,
                rid,
                before: Some(before_image),
                after: None,
                unlinked: Some(key.clone()),
            });
        }
        txn.state.pending_frees.lock().push((table, rid));
        primary.remove(key, rid)?;
        for index_meta in &meta.secondary_indexes {
            let secondary_key = index_meta.spec.key_of(&row);
            if cc == CcMode::Full {
                let _ = self.secondary(index_meta.id)?.remove(&secondary_key, rid);
            } else {
                txn.state
                    .deferred_flags
                    .lock()
                    .push((index_meta.id, secondary_key, rid));
            }
        }
        self.log_change(txn, LogRecordKind::Delete { table, rid, before });
        Ok(())
    }

    /// Probes a secondary index, returning the matching entries (RID plus
    /// routing fields). Entries flagged as deleted are filtered out.
    pub fn probe_secondary(
        &self,
        txn: &TxnHandle,
        index: IndexId,
        key: &Key,
        cc: CcMode,
    ) -> DbResult<Vec<SecondaryEntry>> {
        self.ensure_active(txn)?;
        if txn.is_snapshot() {
            // No locks; return even entries flagged deleted — the version
            // chains decide whether the underlying row is visible at the
            // snapshot's horizon when the caller dereferences the RID.
            incr(CounterKind::SnapshotReads);
            let secondary = self.secondary(index)?;
            return Ok(time_section(TimeCategory::Work, || {
                secondary.get_with_deleted(key)
            }));
        }
        if cc == CcMode::Full {
            let table = self.catalog.index(index)?.spec.table;
            self.lock_table(txn, table, LockMode::IS, cc)?;
        }
        let secondary = self.secondary(index)?;
        Ok(time_section(TimeCategory::Work, || secondary.get(key)))
    }

    /// Scans a whole table, invoking `f` on every row. Under full concurrency
    /// control this takes a table-level shared lock (the "multi-partition"
    /// style operation the paper notes is rare in scalable OLTP workloads).
    pub fn scan_table(
        &self,
        txn: &TxnHandle,
        table: TableId,
        cc: CcMode,
        mut f: impl FnMut(Rid, &Row),
    ) -> DbResult<()> {
        self.ensure_active(txn)?;
        if let Some(snapshot) = txn.snapshot() {
            return self.snapshot_scan(snapshot, table, &mut f);
        }
        if cc == CcMode::Full {
            self.lock_table(txn, table, LockMode::S, cc)?;
        }
        let heap = self.heap(table)?;
        heap.scan(|rid, bytes| {
            if let Ok(row) = Value::decode_row(bytes) {
                f(rid, &row);
            }
        })
    }

    /// Reads the rows whose primary keys fall in `range` (`[low, high)`), in
    /// key order, at most `limit` of them.
    ///
    /// What keeps other transactions' inserts and deletes out of the range
    /// depends on `cc`. [`CcMode::Full`] and [`CcMode::RowOnly`] take the
    /// table `S` lock that [`Self::scan_table`] takes. [`CcMode::None`]
    /// relies on a DORA executor's local lock. That lock is on a key prefix
    /// holding the table's routing fields, so both bounds must carry equal
    /// values in that prefix; otherwise the call fails with
    /// [`DbError::InvalidOperation`]. A snapshot transaction filters and
    /// sorts a snapshot scan, which costs time linear in the table.
    pub fn range_primary(
        &self,
        txn: &TxnHandle,
        table: TableId,
        range: &KeyRange,
        limit: usize,
        cc: CcMode,
    ) -> DbResult<Vec<(Rid, Row)>> {
        self.ensure_active(txn)?;
        if let Some(snapshot) = txn.snapshot() {
            return self.snapshot_range(snapshot, table, range, limit);
        }
        if cc == CcMode::None {
            self.ensure_one_route(table, range)?;
        } else {
            self.lock_table(txn, table, LockMode::S, cc)?;
        }
        let primary = self.primary(table)?;
        let heap = self.heap(table)?;
        time_section(TimeCategory::Work, || {
            let mut rids = Vec::new();
            primary.range_rids(range, limit, |rid| rids.push(rid));
            let mut rows = Vec::with_capacity(rids.len());
            for rid in rids {
                rows.push((rid, heap.read_with(rid, Value::decode_row)?));
            }
            Ok(rows)
        })
    }

    /// Fails unless every key in `range` carries the same routing-field
    /// values: both bounds must be present and agree on the primary-key
    /// prefix that ends at the last routing field.
    fn ensure_one_route(&self, table: TableId, range: &KeyRange) -> DbResult<()> {
        let meta = self.catalog.table(table)?;
        let schema = &meta.schema;
        let prefix = schema.routing_fields.iter().try_fold(0, |prefix, field| {
            let at = schema
                .primary_key
                .iter()
                .position(|column| column == field)?;
            Some(prefix.max(at + 1))
        });
        let one_route = match (prefix, &range.low, &range.high) {
            (Some(prefix), Some(low), Some(high)) => {
                low.len() >= prefix
                    && high.len() >= prefix
                    && low.values()[..prefix] == high.values()[..prefix]
            }
            _ => false,
        };
        if one_route {
            Ok(())
        } else {
            Err(DbError::InvalidOperation(format!(
                "an unlocked range read of {} must fix its routing fields",
                schema.name
            )))
        }
    }

    // ----- bulk loading ------------------------------------------------------

    /// Loads a row outside any transaction: no locks, no logging. Used by the
    /// workload loaders to populate benchmark datasets quickly, like a bulk
    /// load utility would.
    pub fn load_row(&self, table: TableId, row: Row) -> DbResult<Rid> {
        let meta = self.catalog.table(table)?;
        meta.schema.validate(&row)?;
        let heap = self.heap(table)?;
        let rid = heap.insert(&Value::encode_row(&row))?;
        let primary_key = meta.schema.primary_key_of(&row);
        let primary = self.primary(table)?;
        if let Err(err) = self.insert_index_entries(&meta, &primary, &primary_key, &row, rid) {
            let _ = heap.delete(rid);
            return Err(err);
        }
        Ok(rid)
    }

    /// Enters the row at `rid` into its table's primary index and every
    /// secondary index. If one insert fails (a duplicate key in a unique
    /// index), the entries already made are removed again, so a rejected
    /// row leaves no entry behind, and the error names the row's table.
    fn insert_index_entries(
        &self,
        meta: &TableMeta,
        primary: &BTreeIndex,
        primary_key: &Key,
        row: &Row,
        rid: Rid,
    ) -> DbResult<()> {
        let in_table = |err| match err {
            DbError::DuplicateKey { detail, .. } => DbError::DuplicateKey {
                table: meta.id,
                detail,
            },
            other => other,
        };
        let routing = meta.schema.routing_key_of(row);
        primary
            .insert(primary_key, IndexEntry::new(rid, routing.clone()))
            .map_err(in_table)?;
        for (done, index_meta) in meta.secondary_indexes.iter().enumerate() {
            let inserted = self.secondary(index_meta.id).and_then(|index| {
                index.insert(
                    &index_meta.spec.key_of(row),
                    IndexEntry::new(rid, routing.clone()),
                )
            });
            if let Err(err) = inserted {
                let _ = primary.remove(primary_key, rid);
                for earlier in &meta.secondary_indexes[..done] {
                    if let Ok(index) = self.secondary(earlier.id) {
                        let _ = index.remove(&earlier.spec.key_of(row), rid);
                    }
                }
                return Err(in_table(err));
            }
        }
        Ok(())
    }

    /// Number of live rows in a table (diagnostics and tests; not
    /// transactional).
    pub fn row_count(&self, table: TableId) -> DbResult<usize> {
        let heap = self.heap(table)?;
        let mut count = 0;
        heap.scan(|_, _| count += 1)?;
        Ok(count)
    }

    /// Flushes dirty pages to the page store (checkpoint).
    pub fn checkpoint(&self) {
        self.pool.flush_all();
    }

    /// Rebuilds a database from this database's checkpoint and log into
    /// `fresh`, a database with the same schema and loader rows: everything
    /// recovered ([`LogManager::redo`]) is replayed, whether or not a
    /// checkpoint has been taken. Safe beside a running checkpoint build.
    pub fn recover_into(&self, fresh: &Database) -> DbResult<()> {
        self.recover(fresh, None)
    }

    /// [`Self::recover_into`] behind a torn log: only records with LSN ≤
    /// `cut` survive — what recovery would reconstruct if the log's tail
    /// past the cut were lost in a crash. Exactly the transactions whose
    /// commit record lies inside the cut are replayed; the crash-consistency
    /// property tests use this to show that early lock release leaves no
    /// torn transactions or ghosts behind any flush horizon. A cut below the
    /// checkpoint's low-water mark is [`DbError::InvalidOperation`]: that
    /// history is folded away.
    pub fn recover_prefix_into(&self, fresh: &Database, cut: Lsn) -> DbResult<()> {
        self.recover(fresh, Some(cut))
    }

    /// The one recovery body: analysis once, then redo sharded by page
    /// (stable hash of `(table, page)`), which preserves per-row replay order
    /// — the only order redo needs, since the commit sequence already ordered
    /// each row's writers and a row never moves between pages (a key that
    /// does is why [`BTreeIndex::insert_replayed`] checks no uniqueness) —
    /// across as many workers as the host has cores and the records keep
    /// busy.
    fn recover(&self, fresh: &Database, cut: Option<Lsn>) -> DbResult<()> {
        let records = self.log.redo(cut)?.records;
        let workers = std::thread::available_parallelism()
            .map_or(1, usize::from)
            .min(records.len() / RECORDS_PER_REPLAY_WORKER)
            .max(1);
        if workers == 1 {
            return Self::replay_shard(fresh, records);
        }
        let mut shards: Vec<Vec<LogRecord>> = (0..workers).map(|_| Vec::new()).collect();
        for record in records {
            let shard = match record.kind.row_key() {
                Some((table, rid)) => {
                    use std::hash::{Hash, Hasher};
                    let mut hasher = std::collections::hash_map::DefaultHasher::new();
                    (table, rid.page).hash(&mut hasher);
                    (hasher.finish() % workers as u64) as usize
                }
                None => 0,
            };
            shards[shard].push(record);
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .into_iter()
                .map(|shard| scope.spawn(move || Self::replay_shard(fresh, shard)))
                .collect();
            for handle in handles {
                handle
                    .join()
                    .map_err(|_| DbError::Corruption("a replay worker panicked".into()))??;
            }
            Ok(())
        })
    }

    /// One replay worker: applies its shard page run by page run.
    /// The stable sort gathers each page's records together while keeping
    /// the original commit-sequence order within every page — the only
    /// order redo needs, since a row never moves between pages — so each
    /// page is pinned and latched once for its whole history instead of
    /// once per record.
    fn replay_shard(fresh: &Database, mut shard: Vec<LogRecord>) -> DbResult<()> {
        shard.sort_by_key(|record| record.kind.row_key().map(|(table, rid)| (table, rid.page)));
        let mut start = 0;
        while start < shard.len() {
            let Some((table, rid)) = shard[start].kind.row_key() else {
                start += 1;
                continue;
            };
            let run_key = Some((table, rid.page));
            let mut end = start + 1;
            while end < shard.len()
                && shard[end]
                    .kind
                    .row_key()
                    .map(|(table, rid)| (table, rid.page))
                    == run_key
            {
                end += 1;
            }
            Self::apply_page_run(fresh, table, rid.page, &shard[start..end])?;
            start = end;
        }
        Ok(())
    }

    /// Applies one page's redo run: all slot-level changes in one batched
    /// heap call, then the index maintenance. When the run holds no deletes
    /// (the common case) the index inserts are batched per index so the
    /// tree lock is taken once per run, not once per record; a run with
    /// deletes falls back to per-record index maintenance in the run's
    /// original order, which an insert-then-delete of the same key needs.
    fn apply_page_run(
        fresh: &Database,
        table: TableId,
        page: PageId,
        records: &[LogRecord],
    ) -> DbResult<()> {
        let ops: Vec<PageOp<'_>> = records
            .iter()
            .filter_map(|record| match &record.kind {
                LogRecordKind::Insert { rid, after, .. } => Some(PageOp::InsertAt(rid.slot, after)),
                LogRecordKind::Update { rid, after, .. } => Some(PageOp::Update(rid.slot, after)),
                LogRecordKind::Delete { rid, .. } => Some(PageOp::Delete(rid.slot)),
                _ => None,
            })
            .collect();
        fresh.heap(table)?.apply_page_ops(page, &ops)?;

        let meta = fresh.catalog.table(table)?;
        let secondaries = &meta.secondary_indexes;
        let ordered = records
            .iter()
            .any(|record| matches!(record.kind, LogRecordKind::Delete { .. }));
        if ordered {
            for record in records {
                match &record.kind {
                    LogRecordKind::Insert { rid, after, .. } => {
                        let row = Value::decode_row(after)?;
                        let entry = IndexEntry::new(*rid, meta.schema.routing_key_of(&row));
                        fresh.primary(table)?.insert_replayed(&[(
                            meta.schema.primary_key_of(&row),
                            entry.clone(),
                        )])?;
                        for index_meta in secondaries {
                            fresh.secondary(index_meta.id)?.insert_replayed(&[(
                                index_meta.spec.key_of(&row),
                                entry.clone(),
                            )])?;
                        }
                    }
                    LogRecordKind::Delete { rid, before, .. } => {
                        let row = Value::decode_row(before)?;
                        let primary_key = meta.schema.primary_key_of(&row);
                        let _ = fresh.primary(table)?.remove(&primary_key, *rid);
                        for index_meta in secondaries {
                            let key = index_meta.spec.key_of(&row);
                            let _ = fresh.secondary(index_meta.id)?.remove(&key, *rid);
                        }
                    }
                    _ => {}
                }
            }
            return Ok(());
        }

        let mut primary_batch = Vec::new();
        let mut secondary_batches: Vec<Vec<(Key, IndexEntry)>> =
            (0..secondaries.len()).map(|_| Vec::new()).collect();
        for record in records {
            if let LogRecordKind::Insert { rid, after, .. } = &record.kind {
                let row = Value::decode_row(after)?;
                let routing = meta.schema.routing_key_of(&row);
                primary_batch.push((
                    meta.schema.primary_key_of(&row),
                    IndexEntry::new(*rid, routing.clone()),
                ));
                for (index_meta, batch) in secondaries.iter().zip(&mut secondary_batches) {
                    batch.push((
                        index_meta.spec.key_of(&row),
                        IndexEntry::new(*rid, routing.clone()),
                    ));
                }
            }
        }
        if !primary_batch.is_empty() {
            fresh.primary(table)?.insert_replayed(&primary_batch)?;
        }
        for (index_meta, batch) in secondaries.iter().zip(&secondary_batches) {
            if !batch.is_empty() {
                fresh.secondary(index_meta.id)?.insert_replayed(batch)?;
            }
        }
        Ok(())
    }

    /// Direct (non-transactional) count of pages in the backing store, for
    /// diagnostics.
    pub fn stored_pages(&self) -> usize {
        self.store.len()
    }

    fn ensure_active(&self, txn: &TxnHandle) -> DbResult<()> {
        if txn.is_active() {
            Ok(())
        } else {
            Err(DbError::TxnAborted {
                txn: txn.id(),
                reason: "transaction is not active".into(),
            })
        }
    }

    fn ensure_writable(&self, txn: &TxnHandle) -> DbResult<()> {
        if txn.is_snapshot() {
            Err(DbError::InvalidOperation(
                "snapshot transactions are read-only".into(),
            ))
        } else {
            Ok(())
        }
    }

    // ----- snapshot read path --------------------------------------------------
    //
    // Snapshot reads never touch the lock manager, the local lock tables, or
    // any other inter-transaction coordination: visibility is decided purely
    // by the version chains against the snapshot's commit-ticket horizon, and
    // heap/index access rides on the same short page latches every reader
    // already takes.

    /// Resolves a primary-key probe against a snapshot horizon.
    fn snapshot_probe(
        &self,
        snapshot: &Snapshot,
        table: TableId,
        key: &Key,
    ) -> DbResult<Option<(Rid, Row)>> {
        incr(CounterKind::SnapshotReads);
        let meta = self.catalog.table(table)?;
        let primary = self.primary(table)?;
        let rid = match time_section(TimeCategory::Work, || primary.get_rid(key)) {
            Some(rid) => rid,
            // The entry may have been removed physically by a committer after
            // our horizon; the version store keeps a note of where it lived.
            None => match snapshot.store().unlinked_rid(table, key) {
                Some(rid) => rid,
                None => return Ok(None),
            },
        };
        let row = match self.snapshot_row(snapshot, table, rid) {
            Ok(Some(row)) => row,
            Err(corrupt @ DbError::Corruption(_)) => return Err(corrupt),
            // Invisible at the horizon — or primordial and the slot vanished
            // between index probe and heap read; to this snapshot the key
            // simply does not exist.
            Ok(None) | Err(_) => return Ok(None),
        };
        // Guard against RID slot reuse: the chain may describe a different
        // key that later recycled this slot.
        if meta.schema.primary_key_of(&row) != *key {
            return Ok(None);
        }
        Ok(Some((rid, row)))
    }

    /// Resolves a RID read against a snapshot horizon.
    fn snapshot_read_rid(&self, snapshot: &Snapshot, table: TableId, rid: Rid) -> DbResult<Row> {
        incr(CounterKind::SnapshotReads);
        match self.snapshot_row(snapshot, table, rid)? {
            Some(row) => Ok(row),
            None => Err(DbError::NotFound {
                table,
                detail: format!("rid {rid:?} invisible at snapshot horizon"),
            }),
        }
    }

    /// The row at `rid` as of the snapshot's horizon, `None` if it shows no
    /// row there. Heap first, chain second: a row without a chain holds
    /// committed bytes *until* a writer seeds its chain and only then mutates
    /// it, so a row decoded before a chain lookup that still finds nothing is
    /// the committed one — while the other order lets a writer seed and
    /// mutate between the two reads and hands out its uncommitted bytes. (A
    /// scan is safe either way: it asks the chains under the page latch.)
    /// The heap record is decoded in place, before the chain is asked; for a
    /// chained row that decode goes unused.
    fn snapshot_row(&self, snapshot: &Snapshot, table: TableId, rid: Rid) -> DbResult<Option<Row>> {
        let heap_row = time_section(TimeCategory::Work, || {
            self.heap(table)?.read_with(rid, Value::decode_row)
        });
        self.faults().park_while_held(FaultSite::SnapshotReadGap);
        match snapshot.store().read_at(table, rid, snapshot.horizon()) {
            ChainRead::Primordial => heap_row.map(Some),
            ChainRead::Invisible => Ok(None),
            ChainRead::Visible(bytes) => Value::decode_row(&bytes).map(Some),
        }
    }

    /// Scans a table as of a snapshot horizon: every row visible at the
    /// horizon is emitted exactly once, regardless of concurrent writers.
    fn snapshot_scan(
        &self,
        snapshot: &Snapshot,
        table: TableId,
        f: &mut impl FnMut(Rid, &Row),
    ) -> DbResult<()> {
        let store = snapshot.store();
        let horizon = snapshot.horizon();
        let mut visited = HashSet::new();
        let mut rows = 0u64;
        // Pass 1: walk the heap; each slot is either untouched (emit the heap
        // bytes) or chained (let the chain decide which image, if any).
        self.heap(table)?.scan(|rid, bytes| {
            visited.insert(rid);
            match store.read_at(table, rid, horizon) {
                ChainRead::Primordial => {
                    if let Ok(row) = Value::decode_row(bytes) {
                        rows += 1;
                        f(rid, &row);
                    }
                }
                ChainRead::Visible(version) => {
                    if let Ok(row) = Value::decode_row(&version) {
                        rows += 1;
                        f(rid, &row);
                    }
                }
                ChainRead::Invisible => {}
            }
        })?;
        // Pass 2: rows deleted from the heap after the horizon no longer
        // show up in the heap scan, but their chains still hold the image
        // this snapshot is entitled to.
        for (rid, bytes) in store.visible_chain_rows(table, horizon, &visited) {
            if let Ok(row) = Value::decode_row(&bytes) {
                rows += 1;
                f(rid, &row);
            }
        }
        incr_by(CounterKind::SnapshotReads, rows);
        Ok(())
    }

    /// A primary-key range read as of a snapshot horizon: the snapshot scan
    /// filtered by `range`, sorted by key and cut at `limit`. The index alone
    /// cannot answer it, since a key deleted after the horizon has left it.
    fn snapshot_range(
        &self,
        snapshot: &Snapshot,
        table: TableId,
        range: &KeyRange,
        limit: usize,
    ) -> DbResult<Vec<(Rid, Row)>> {
        let meta = self.catalog.table(table)?;
        let mut rows = Vec::new();
        self.snapshot_scan(snapshot, table, &mut |rid, row| {
            let key = meta.schema.primary_key_of(row);
            if range.contains(&key) {
                rows.push((key, rid, row.clone()));
            }
        })?;
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(rows
            .into_iter()
            .take(limit)
            .map(|(_, rid, row)| (rid, row))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ColumnDef;

    fn accounts_db() -> (Arc<Database>, TableId) {
        let db = Database::for_tests();
        let table = db
            .create_table(TableSchema::new(
                "accounts",
                vec![
                    ColumnDef::new("id", ValueType::Int),
                    ColumnDef::new("owner", ValueType::Text),
                    ColumnDef::new("balance", ValueType::Float),
                ],
                vec![0],
            ))
            .unwrap();
        (db, table)
    }

    fn account_row(id: i64, owner: &str, balance: f64) -> Row {
        vec![
            Value::Int(id),
            Value::Text(owner.into()),
            Value::Float(balance),
        ]
    }

    /// `accounts` behind another table, so its id is not `TableId(0)`, with
    /// a unique secondary index on `owner`.
    fn accounts_with_unique_owner() -> (Arc<Database>, TableId, IndexId) {
        let db = Database::for_tests();
        db.create_table(TableSchema::new(
            "other",
            vec![ColumnDef::new("id", ValueType::Int)],
            vec![0],
        ))
        .unwrap();
        let table = db
            .create_table(TableSchema::new(
                "accounts",
                vec![
                    ColumnDef::new("id", ValueType::Int),
                    ColumnDef::new("owner", ValueType::Text),
                    ColumnDef::new("balance", ValueType::Float),
                ],
                vec![0],
            ))
            .unwrap();
        let by_owner = db
            .create_index(IndexSpec {
                name: "accounts_by_owner".into(),
                table,
                key_columns: vec![1],
                unique: true,
            })
            .unwrap();
        (db, table, by_owner)
    }

    #[test]
    fn a_unique_secondary_rejects_a_duplicate_and_keeps_no_entry_of_it() {
        let (db, table, by_owner) = accounts_with_unique_owner();
        let txn = db.begin();
        db.insert(&txn, table, account_row(1, "alice", 1.0), CcMode::Full)
            .unwrap();
        let duplicate = db.insert(&txn, table, account_row(2, "alice", 2.0), CcMode::Full);
        assert!(
            matches!(duplicate, Err(DbError::DuplicateKey { table: t, .. }) if t == table),
            "a second `alice` must be a duplicate in `accounts`: {duplicate:?}"
        );
        // The rejected row left no primary entry behind: its key is free.
        let probe = db.probe_primary(&txn, table, &Key::int(2), false, CcMode::Full);
        assert!(matches!(probe, Ok(None)), "{probe:?}");
        db.insert(&txn, table, account_row(2, "bob", 2.0), CcMode::Full)
            .unwrap();
        db.commit(&txn).unwrap();

        let txn = db.begin();
        let owner = |name: &str| Key::from_values([name]);
        let alice = db
            .probe_secondary(&txn, by_owner, &owner("alice"), CcMode::Full)
            .unwrap();
        assert_eq!(alice.len(), 1);
        let (_, row) = db
            .probe_primary(&txn, table, &Key::int(2), false, CcMode::Full)
            .unwrap()
            .expect("the re-inserted key");
        assert_eq!(row, account_row(2, "bob", 2.0));
        db.commit(&txn).unwrap();
    }

    #[test]
    fn a_rejected_bulk_load_row_leaves_no_entry_or_row() {
        let (db, table, _) = accounts_with_unique_owner();
        db.load_row(table, account_row(1, "alice", 1.0)).unwrap();
        let duplicate = db.load_row(table, account_row(2, "alice", 2.0));
        assert!(
            matches!(duplicate, Err(DbError::DuplicateKey { table: t, .. }) if t == table),
            "{duplicate:?}"
        );
        assert_eq!(db.row_count(table).unwrap(), 1);
        db.load_row(table, account_row(2, "bob", 2.0)).unwrap();
        let txn = db.begin();
        let hit = db
            .probe_primary(&txn, table, &Key::int(2), false, CcMode::Full)
            .unwrap();
        assert_eq!(hit.map(|(_, row)| row), Some(account_row(2, "bob", 2.0)));
        db.commit(&txn).unwrap();
    }

    #[test]
    fn insert_probe_update_delete_commit() {
        let (db, table) = accounts_db();
        let txn = db.begin();
        db.insert(&txn, table, account_row(1, "alice", 100.0), CcMode::Full)
            .unwrap();
        db.insert(&txn, table, account_row(2, "bob", 50.0), CcMode::Full)
            .unwrap();
        db.commit(&txn).unwrap();

        let txn = db.begin();
        let (_, row) = db
            .probe_primary(&txn, table, &Key::int(1), false, CcMode::Full)
            .unwrap()
            .unwrap();
        assert_eq!(row[1], Value::Text("alice".into()));
        db.update_primary(&txn, table, &Key::int(1), CcMode::Full, |row| {
            row[2] = Value::Float(75.0);
            Ok(())
        })
        .unwrap();
        db.delete_primary(&txn, table, &Key::int(2), CcMode::Full)
            .unwrap();
        db.commit(&txn).unwrap();

        let txn = db.begin();
        let (_, row) = db
            .probe_primary(&txn, table, &Key::int(1), false, CcMode::Full)
            .unwrap()
            .unwrap();
        assert_eq!(row[2], Value::Float(75.0));
        assert!(db
            .probe_primary(&txn, table, &Key::int(2), false, CcMode::Full)
            .unwrap()
            .is_none());
        db.commit(&txn).unwrap();
        assert_eq!(db.row_count(table).unwrap(), 1);
    }

    #[test]
    fn abort_rolls_back_all_changes() {
        let (db, table) = accounts_db();
        let setup = db.begin();
        db.insert(&setup, table, account_row(1, "alice", 100.0), CcMode::Full)
            .unwrap();
        db.commit(&setup).unwrap();

        let txn = db.begin();
        db.insert(&txn, table, account_row(2, "bob", 10.0), CcMode::Full)
            .unwrap();
        db.update_primary(&txn, table, &Key::int(1), CcMode::Full, |row| {
            row[2] = Value::Float(0.0);
            Ok(())
        })
        .unwrap();
        db.delete_primary(&txn, table, &Key::int(1), CcMode::Full)
            .unwrap();
        db.abort(&txn).unwrap();

        let check = db.begin();
        let (_, row) = db
            .probe_primary(&check, table, &Key::int(1), false, CcMode::Full)
            .unwrap()
            .unwrap();
        assert_eq!(
            row[2],
            Value::Float(100.0),
            "update and delete must both be undone"
        );
        assert!(db
            .probe_primary(&check, table, &Key::int(2), false, CcMode::Full)
            .unwrap()
            .is_none());
        db.commit(&check).unwrap();
        assert_eq!(db.row_count(table).unwrap(), 1);
    }

    #[test]
    fn concurrent_insert_cannot_steal_the_slot_of_an_uncommitted_delete() {
        // Regression for the TPC-C NewOrder/Delivery race: Delivery deletes a
        // new_order row, a concurrent NewOrder insert reuses the freed slot,
        // then Delivery aborts and its rollback finds the slot occupied —
        // which used to bail out of abort() with the locks still held.
        let (db, table) = accounts_db();
        let setup = db.begin();
        db.insert(&setup, table, account_row(1, "alice", 100.0), CcMode::Full)
            .unwrap();
        db.commit(&setup).unwrap();

        // DORA-mode delete (RowOnly): only the RID is locked centrally, so a
        // concurrent insert of a different key is not blocked.
        let deleter = db.begin();
        db.delete_primary(&deleter, table, &Key::int(1), CcMode::RowOnly)
            .unwrap();

        // The insert must land in a fresh slot, not the deleted row's.
        let inserter = db.begin();
        let rid = db
            .insert(
                &inserter,
                table,
                account_row(2, "bob", 10.0),
                CcMode::RowOnly,
            )
            .unwrap();
        db.commit(&inserter).unwrap();

        // The deleter can still roll back: its slot was reserved, not stolen.
        db.abort(&deleter).unwrap();

        let check = db.begin();
        let (restored_rid, row) = db
            .probe_primary(&check, table, &Key::int(1), false, CcMode::Full)
            .unwrap()
            .unwrap();
        assert_eq!(row[2], Value::Float(100.0));
        assert_ne!(rid, restored_rid, "insert must not have reused the slot");
        db.commit(&check).unwrap();
        assert_eq!(db.row_count(table).unwrap(), 2);
    }

    #[test]
    fn committed_delete_frees_its_slot_for_reuse() {
        let (db, table) = accounts_db();
        let setup = db.begin();
        let old_rid = db
            .insert(&setup, table, account_row(1, "alice", 100.0), CcMode::Full)
            .unwrap();
        db.commit(&setup).unwrap();

        let deleter = db.begin();
        db.delete_primary(&deleter, table, &Key::int(1), CcMode::Full)
            .unwrap();
        db.commit(&deleter).unwrap();

        // After the delete committed its slot is recycled by the next insert.
        let inserter = db.begin();
        let new_rid = db
            .insert(&inserter, table, account_row(2, "bob", 10.0), CcMode::Full)
            .unwrap();
        db.commit(&inserter).unwrap();
        assert_eq!(old_rid, new_rid);
    }

    #[test]
    fn duplicate_primary_key_is_rejected() {
        let (db, table) = accounts_db();
        let txn = db.begin();
        db.insert(&txn, table, account_row(1, "alice", 1.0), CcMode::Full)
            .unwrap();
        let result = db.insert(&txn, table, account_row(1, "imposter", 2.0), CcMode::Full);
        assert!(matches!(result, Err(DbError::DuplicateKey { .. })));
        db.commit(&txn).unwrap();
    }

    #[test]
    fn secondary_index_probe_and_deferred_delete_flag() {
        let (db, table) = accounts_db();
        let index = db
            .create_index(IndexSpec {
                name: "accounts_by_owner".into(),
                table,
                key_columns: vec![1],
                unique: false,
            })
            .unwrap();
        let txn = db.begin();
        db.insert(&txn, table, account_row(1, "alice", 1.0), CcMode::Full)
            .unwrap();
        db.insert(&txn, table, account_row(2, "alice", 2.0), CcMode::Full)
            .unwrap();
        db.commit(&txn).unwrap();

        let txn = db.begin();
        let hits = db
            .probe_secondary(&txn, index, &Key::from_values(["alice"]), CcMode::Full)
            .unwrap();
        assert_eq!(hits.len(), 2);
        // Routing fields (account id) travel with the entry, so a DORA
        // executor could route the record access.
        assert!(hits.iter().all(|e| e.routing.len() == 1));
        db.commit(&txn).unwrap();

        // DORA-style delete: the entry is flagged only after commit.
        let txn = db.begin();
        db.delete_primary(&txn, table, &Key::int(1), CcMode::RowOnly)
            .unwrap();
        let during = db
            .probe_secondary(&txn, index, &Key::from_values(["alice"]), CcMode::None)
            .unwrap();
        assert_eq!(during.len(), 2, "entry must remain visible until commit");
        db.commit(&txn).unwrap();
        let txn = db.begin();
        let after = db
            .probe_secondary(&txn, index, &Key::from_values(["alice"]), CcMode::None)
            .unwrap();
        assert_eq!(after.len(), 1, "flagged entry is filtered after commit");
        db.commit(&txn).unwrap();
    }

    #[test]
    fn aborted_dora_delete_leaves_secondary_entries_untouched() {
        let (db, table) = accounts_db();
        let index = db
            .create_index(IndexSpec {
                name: "by_owner".into(),
                table,
                key_columns: vec![1],
                unique: false,
            })
            .unwrap();
        let txn = db.begin();
        db.insert(&txn, table, account_row(7, "carol", 5.0), CcMode::Full)
            .unwrap();
        db.commit(&txn).unwrap();

        let txn = db.begin();
        db.delete_primary(&txn, table, &Key::int(7), CcMode::RowOnly)
            .unwrap();
        db.abort(&txn).unwrap();

        let check = db.begin();
        let hits = db
            .probe_secondary(&check, index, &Key::from_values(["carol"]), CcMode::None)
            .unwrap();
        assert_eq!(hits.len(), 1, "rollback must leave the index entry live");
        let (_, row) = db
            .probe_primary(&check, table, &Key::int(7), false, CcMode::Full)
            .unwrap()
            .unwrap();
        assert_eq!(row[2], Value::Float(5.0));
        db.commit(&check).unwrap();
    }

    #[test]
    fn cc_none_operations_skip_the_lock_manager() {
        // Use the calling thread's own counters so concurrently running tests
        // in this process cannot perturb the exact-zero assertions.
        use dora_metrics::{current_thread_snapshot, CounterKind};
        let (db, table) = accounts_db();
        let txn = db.begin();
        db.insert(&txn, table, account_row(1, "alice", 1.0), CcMode::Full)
            .unwrap();
        db.commit(&txn).unwrap();

        let before = current_thread_snapshot();
        let txn = db.begin();
        let _ = db
            .probe_primary(&txn, table, &Key::int(1), false, CcMode::None)
            .unwrap();
        db.update_primary(&txn, table, &Key::int(1), CcMode::None, |row| {
            row[2] = Value::Float(3.0);
            Ok(())
        })
        .unwrap();
        db.commit(&txn).unwrap();
        let delta = current_thread_snapshot().since(&before);
        assert_eq!(delta.counter(CounterKind::RowLevelLock), 0);
        assert_eq!(delta.counter(CounterKind::HigherLevelLock), 0);
    }

    #[test]
    fn concurrent_transfers_preserve_total_balance() {
        let (db, table) = accounts_db();
        let accounts = 10i64;
        let txn = db.begin();
        for id in 0..accounts {
            db.insert(&txn, table, account_row(id, "holder", 100.0), CcMode::Full)
                .unwrap();
        }
        db.commit(&txn).unwrap();

        let threads = 4;
        let transfers = 100;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    let mut rng = t as i64;
                    for i in 0..transfers {
                        rng = rng
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let from = (rng.unsigned_abs() % accounts as u64) as i64;
                        let to = ((rng.unsigned_abs() >> 8) % accounts as u64) as i64;
                        if from == to {
                            continue;
                        }
                        let txn = db.begin();
                        let result = (|| -> DbResult<()> {
                            db.update_primary(&txn, table, &Key::int(from), CcMode::Full, |row| {
                                let balance = row[2].as_float()?;
                                row[2] = Value::Float(balance - 1.0);
                                Ok(())
                            })?;
                            db.update_primary(&txn, table, &Key::int(to), CcMode::Full, |row| {
                                let balance = row[2].as_float()?;
                                row[2] = Value::Float(balance + 1.0);
                                Ok(())
                            })?;
                            Ok(())
                        })();
                        match result {
                            Ok(()) => db.commit(&txn).unwrap(),
                            Err(_) => db.abort(&txn).unwrap(),
                        }
                        let _ = i;
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }

        let check = db.begin();
        let mut total = 0.0;
        db.scan_table(&check, table, CcMode::Full, |_, row| {
            total += row[2].as_float().unwrap();
        })
        .unwrap();
        db.commit(&check).unwrap();
        assert_eq!(
            total,
            accounts as f64 * 100.0,
            "money must be conserved across transfers"
        );
    }

    fn accounts_db_with(durability: DurabilityConfig) -> (Arc<Database>, TableId) {
        let config = SystemConfig {
            durability,
            ..SystemConfig::for_tests()
        };
        let db = Database::new(config);
        let table = db
            .create_table(TableSchema::new(
                "accounts",
                vec![
                    ColumnDef::new("id", ValueType::Int),
                    ColumnDef::new("owner", ValueType::Text),
                    ColumnDef::new("balance", ValueType::Float),
                ],
                vec![0],
            ))
            .unwrap();
        (db, table)
    }

    #[test]
    fn elr_releases_locks_at_precommit_before_durability() {
        // Holding the flusher site keeps any device write from hardening
        // anything until the hold drops, so the pre-durable state is
        // observable.
        let (db, table) = accounts_db_with(DurabilityConfig::default());
        let hold = db.faults().hold(FaultSite::FlusherStall);
        let txn = db.begin();
        db.insert(&txn, table, account_row(1, "alice", 1.0), CcMode::Full)
            .unwrap();
        assert!(!txn.state.held.lock().is_empty());
        let handle = db.precommit(&txn).unwrap();
        assert!(handle.early_released());
        let (_, lsn) = handle.commit.expect("data change must log a commit record");
        assert_eq!(
            txn.state.held.lock().len(),
            0,
            "ELR must release locks at precommit"
        );
        assert_eq!(txn.state.status(), TxnStatus::Committed);
        assert!(
            db.log_manager().flushed_lsn() < lsn,
            "commit record must not be durable yet"
        );
        drop(hold);
        db.commit_wait(&txn, handle).unwrap();
        assert!(db.log_manager().flushed_lsn() >= lsn);
    }

    #[test]
    fn without_elr_locks_are_held_until_durable() {
        let (db, table) = accounts_db_with(DurabilityConfig::group_commit_only());
        let txn = db.begin();
        db.insert(&txn, table, account_row(1, "alice", 1.0), CcMode::Full)
            .unwrap();
        let handle = db.precommit(&txn).unwrap();
        assert!(!handle.early_released());
        assert!(
            !txn.state.held.lock().is_empty(),
            "without ELR, locks outlive precommit"
        );
        assert_eq!(txn.state.status(), TxnStatus::Active);
        db.commit_wait(&txn, handle).unwrap();
        assert_eq!(txn.state.held.lock().len(), 0);
        assert_eq!(txn.state.status(), TxnStatus::Committed);
    }

    #[test]
    fn commit_async_completes_from_the_flusher() {
        let (db, table) = accounts_db();
        let txn = db.begin();
        db.insert(&txn, table, account_row(1, "alice", 1.0), CcMode::Full)
            .unwrap();
        let handle = db.precommit(&txn).unwrap();
        let (_, lsn) = handle.commit.expect("a write logs a commit record");
        let done = Arc::new((parking_lot::Mutex::new(false), parking_lot::Condvar::new()));
        let done2 = Arc::clone(&done);
        let db2 = Arc::clone(&db);
        db.commit_async(&txn, handle, move |durable| {
            assert!(durable, "no faults configured, so the commit hardens");
            assert!(db2.log_manager().flushed_lsn() >= lsn);
            let mut flag = done2.0.lock();
            *flag = true;
            done2.1.notify_all();
        });
        let mut flag = done.0.lock();
        while !*flag {
            done.1.wait(&mut flag);
        }
        assert_eq!(txn.state.status(), TxnStatus::Committed);
    }

    #[test]
    fn begin_record_is_lazy_and_read_only_txns_log_nothing() {
        let (db, table) = accounts_db();
        let log = db.log_manager();

        // Read-only commit: zero log records.
        let reader = db.begin();
        db.commit(&reader).unwrap();
        assert!(log.is_empty());

        // Read-only abort: still zero log records.
        let reader = db.begin();
        db.abort(&reader).unwrap();
        assert!(log.is_empty());

        // First data change appends Begin + the change; later changes only
        // append themselves.
        let writer = db.begin();
        db.insert(&writer, table, account_row(1, "alice", 1.0), CcMode::Full)
            .unwrap();
        assert_eq!(log.len(), 2, "lazy Begin plus the insert");
        db.insert(&writer, table, account_row(2, "bob", 2.0), CcMode::Full)
            .unwrap();
        assert_eq!(log.len(), 3);
        db.commit(&writer).unwrap();
        assert_eq!(log.len(), 4, "commit record closes the transaction");
    }

    #[test]
    fn recovery_replays_only_committed_transactions() {
        let (db, table) = accounts_db();
        let txn = db.begin();
        db.insert(&txn, table, account_row(1, "alice", 10.0), CcMode::Full)
            .unwrap();
        db.insert(&txn, table, account_row(2, "bob", 20.0), CcMode::Full)
            .unwrap();
        db.commit(&txn).unwrap();
        let txn = db.begin();
        db.update_primary(&txn, table, &Key::int(1), CcMode::Full, |row| {
            row[2] = Value::Float(99.0);
            Ok(())
        })
        .unwrap();
        db.commit(&txn).unwrap();
        // An uncommitted transaction whose changes must NOT survive recovery.
        let doomed = db.begin();
        db.insert(&doomed, table, account_row(3, "ghost", 1.0), CcMode::Full)
            .unwrap();

        let (fresh, fresh_table) = accounts_db();
        assert_eq!(fresh_table, table);
        db.recover_into(&fresh).unwrap();
        let check = fresh.begin();
        let (_, row) = fresh
            .probe_primary(&check, table, &Key::int(1), false, CcMode::Full)
            .unwrap()
            .unwrap();
        assert_eq!(row[2], Value::Float(99.0));
        assert!(fresh
            .probe_primary(&check, table, &Key::int(3), false, CcMode::Full)
            .unwrap()
            .is_none());
        fresh.commit(&check).unwrap();
        assert_eq!(fresh.row_count(table).unwrap(), 2);
    }

    /// Replay runs page by page, so a key deleted on one page and inserted
    /// again on an earlier one is re-inserted before the replay removes its
    /// old entry: the unique index must take it.
    #[test]
    fn recovery_replays_a_key_that_moved_to_an_earlier_page() {
        // Two rows per page.
        let wide = |id: i64| account_row(id, &"x".repeat(3_000), 0.0);
        let (db, table) = accounts_db();
        let txn = db.begin();
        let rids: Vec<Rid> = (1..=4)
            .map(|id| db.insert(&txn, table, wide(id), CcMode::Full).unwrap())
            .collect();
        db.commit(&txn).unwrap();
        // Free a slot on row 3's page, then one on row 1's: an insert tries
        // the most recently freed page first.
        for id in [3, 1] {
            let txn = db.begin();
            db.delete_primary(&txn, table, &Key::int(id), CcMode::Full)
                .unwrap();
            db.commit(&txn).unwrap();
        }
        let txn = db.begin();
        let moved = db.insert(&txn, table, wide(3), CcMode::Full).unwrap();
        db.commit(&txn).unwrap();
        assert!(
            moved.page < rids[2].page,
            "row 3 moved from {:?} to {moved:?}",
            rids[2]
        );

        let (fresh, _) = accounts_db();
        db.recover_into(&fresh).unwrap();
        let check = fresh.begin();
        for (id, present) in [(1, false), (2, true), (3, true), (4, true)] {
            let found = fresh
                .probe_primary(&check, table, &Key::int(id), false, CcMode::Full)
                .unwrap();
            assert_eq!(found.is_some(), present, "row {id}");
        }
        fresh.commit(&check).unwrap();
        assert_eq!(fresh.row_count(table).unwrap(), 3);
    }

    #[test]
    fn snapshot_reads_are_stable_and_lock_free() {
        let (db, table) = accounts_db();
        let writer = db.begin();
        db.insert(&writer, table, account_row(1, "alice", 100.0), CcMode::Full)
            .unwrap();
        db.commit(&writer).unwrap();

        let snapshot = Arc::new(db.snapshot());
        let reader = db.begin_snapshot(Arc::clone(&snapshot));
        let (_, row) = db
            .probe_primary(&reader, table, &Key::int(1), false, CcMode::Full)
            .unwrap()
            .unwrap();
        assert_eq!(row[2], Value::Float(100.0));

        // A writer commits a newer version after the snapshot was pinned.
        let writer = db.begin();
        db.update_primary(&writer, table, &Key::int(1), CcMode::Full, |row| {
            row[2] = Value::Float(42.0);
            Ok(())
        })
        .unwrap();
        db.commit(&writer).unwrap();

        // Repeatable read: the pinned snapshot still sees the old image, and
        // never takes a single centralized lock doing so.
        let (_, row) = db
            .probe_primary(&reader, table, &Key::int(1), false, CcMode::Full)
            .unwrap()
            .unwrap();
        assert_eq!(row[2], Value::Float(100.0));
        assert_eq!(
            reader.state.held.lock().len(),
            0,
            "snapshot reads take no locks"
        );
        db.commit(&reader).unwrap();

        // A fresh snapshot observes the newer commit.
        let fresh = db.begin_snapshot(Arc::new(db.snapshot()));
        let (_, row) = db
            .probe_primary(&fresh, table, &Key::int(1), false, CcMode::Full)
            .unwrap()
            .unwrap();
        assert_eq!(row[2], Value::Float(42.0));
        db.commit(&fresh).unwrap();
    }

    #[test]
    fn snapshot_transactions_reject_writes() {
        let (db, table) = accounts_db();
        let writer = db.begin();
        db.insert(&writer, table, account_row(1, "alice", 1.0), CcMode::Full)
            .unwrap();
        db.commit(&writer).unwrap();

        let reader = db.begin_snapshot(Arc::new(db.snapshot()));
        assert!(matches!(
            db.insert(&reader, table, account_row(2, "bob", 2.0), CcMode::Full),
            Err(DbError::InvalidOperation(_))
        ));
        assert!(matches!(
            db.update_primary(&reader, table, &Key::int(1), CcMode::Full, |_| Ok(())),
            Err(DbError::InvalidOperation(_))
        ));
        assert!(matches!(
            db.delete_primary(&reader, table, &Key::int(1), CcMode::Full),
            Err(DbError::InvalidOperation(_))
        ));
        assert!(matches!(
            db.probe_primary(&reader, table, &Key::int(1), true, CcMode::Full),
            Err(DbError::InvalidOperation(_))
        ));
        db.commit(&reader).unwrap();
    }

    #[test]
    fn snapshot_does_not_see_uncommitted_writes() {
        let (db, table) = accounts_db();
        let setup = db.begin();
        db.insert(&setup, table, account_row(1, "alice", 100.0), CcMode::Full)
            .unwrap();
        db.commit(&setup).unwrap();

        // In-flight writer: heap bytes already changed, version unpublished.
        let writer = db.begin();
        db.update_primary(&writer, table, &Key::int(1), CcMode::None, |row| {
            row[2] = Value::Float(-1.0);
            Ok(())
        })
        .unwrap();

        let reader = db.begin_snapshot(Arc::new(db.snapshot()));
        let (_, row) = db
            .probe_primary(&reader, table, &Key::int(1), false, CcMode::Full)
            .unwrap()
            .unwrap();
        assert_eq!(
            row[2],
            Value::Float(100.0),
            "snapshot must see the committed pre-image, not in-flight bytes"
        );
        db.commit(&reader).unwrap();
        db.commit(&writer).unwrap();
    }

    #[test]
    fn snapshot_probe_and_scan_survive_a_later_delete() {
        let (db, table) = accounts_db();
        let setup = db.begin();
        db.insert(&setup, table, account_row(1, "alice", 1.0), CcMode::Full)
            .unwrap();
        db.insert(&setup, table, account_row(2, "bob", 2.0), CcMode::Full)
            .unwrap();
        db.commit(&setup).unwrap();

        let old = Arc::new(db.snapshot());
        let deleter = db.begin();
        db.delete_primary(&deleter, table, &Key::int(2), CcMode::Full)
            .unwrap();
        db.commit(&deleter).unwrap();

        // Probe: the primary-index entry is physically gone, but the old
        // snapshot resolves the key through the unlinked breadcrumb.
        let reader = db.begin_snapshot(Arc::clone(&old));
        let (_, row) = db
            .probe_primary(&reader, table, &Key::int(2), false, CcMode::Full)
            .unwrap()
            .unwrap();
        assert_eq!(row[1], Value::Text("bob".into()));
        // Scan: pass 2 recovers the deleted row from its chain.
        let mut seen = Vec::new();
        db.scan_table(&reader, table, CcMode::Full, |_, row| {
            seen.push(row[0].clone());
        })
        .unwrap();
        seen.sort_by_key(|v| match v {
            Value::Int(i) => *i,
            _ => 0,
        });
        assert_eq!(seen, vec![Value::Int(1), Value::Int(2)]);
        db.commit(&reader).unwrap();

        // A snapshot pinned after the delete no longer sees the row.
        let reader = db.begin_snapshot(Arc::new(db.snapshot()));
        assert!(db
            .probe_primary(&reader, table, &Key::int(2), false, CcMode::Full)
            .unwrap()
            .is_none());
        let mut count = 0;
        db.scan_table(&reader, table, CcMode::Full, |_, _| count += 1)
            .unwrap();
        assert_eq!(count, 1);
        db.commit(&reader).unwrap();
    }

    #[test]
    fn aborted_writes_never_become_visible_to_snapshots() {
        let (db, table) = accounts_db();
        let setup = db.begin();
        db.insert(&setup, table, account_row(1, "alice", 10.0), CcMode::Full)
            .unwrap();
        db.commit(&setup).unwrap();

        let doomed = db.begin();
        db.update_primary(&doomed, table, &Key::int(1), CcMode::Full, |row| {
            row[2] = Value::Float(-99.0);
            Ok(())
        })
        .unwrap();
        db.insert(&doomed, table, account_row(2, "ghost", 0.0), CcMode::Full)
            .unwrap();
        db.abort(&doomed).unwrap();

        let reader = db.begin_snapshot(Arc::new(db.snapshot()));
        let (_, row) = db
            .probe_primary(&reader, table, &Key::int(1), false, CcMode::Full)
            .unwrap()
            .unwrap();
        assert_eq!(row[2], Value::Float(10.0));
        assert!(db
            .probe_primary(&reader, table, &Key::int(2), false, CcMode::Full)
            .unwrap()
            .is_none());
        let mut count = 0;
        db.scan_table(&reader, table, CcMode::Full, |_, _| count += 1)
            .unwrap();
        assert_eq!(count, 1, "the aborted insert must not appear in a scan");
        db.commit(&reader).unwrap();
    }

    /// `lines(w, o, amount)` keyed by `(w, o)` and routed on `w`, holding
    /// orders 1..=10 of warehouses 1 and 2, loaded newest first.
    fn lines_db() -> (Arc<Database>, TableId) {
        let db = Database::for_tests();
        let table = db
            .create_table(TableSchema::new(
                "lines",
                vec![
                    ColumnDef::new("w", ValueType::Int),
                    ColumnDef::new("o", ValueType::Int),
                    ColumnDef::new("amount", ValueType::Float),
                ],
                vec![0, 1],
            ))
            .unwrap();
        let txn = db.begin();
        for w in 1..=2 {
            for o in (1..=10).rev() {
                db.insert(&txn, table, line_row(w, o), CcMode::Full)
                    .unwrap();
            }
        }
        db.commit(&txn).unwrap();
        (db, table)
    }

    fn line_row(w: i64, o: i64) -> Row {
        vec![Value::Int(w), Value::Int(o), Value::Float(o as f64)]
    }

    fn orders_of(rows: &[(Rid, Row)]) -> Vec<(i64, i64)> {
        rows.iter()
            .map(|(_, row)| (row[0].as_int().unwrap(), row[1].as_int().unwrap()))
            .collect()
    }

    fn w_range(w: i64, from: i64, to: i64) -> KeyRange {
        KeyRange::new(Some(Key::int2(w, from)), Some(Key::int2(w, to)))
    }

    #[test]
    fn range_primary_reads_a_half_open_window_in_key_order_up_to_limit() {
        let (db, table) = lines_db();
        let txn = db.begin();
        let all = db
            .range_primary(&txn, table, &w_range(1, 3, 8), usize::MAX, CcMode::Full)
            .unwrap();
        assert_eq!(orders_of(&all), (3..8).map(|o| (1, o)).collect::<Vec<_>>());
        let first_two = db
            .range_primary(&txn, table, &w_range(1, 3, 8), 2, CcMode::Full)
            .unwrap();
        assert_eq!(orders_of(&first_two), vec![(1, 3), (1, 4)]);
        // The RIDs are the rows' own.
        for (rid, row) in &all {
            assert_eq!(
                db.read_rid(&txn, table, *rid, false, CcMode::Full).unwrap(),
                *row
            );
        }
        db.commit(&txn).unwrap();
    }

    #[test]
    fn range_primary_skips_a_row_its_own_transaction_deleted() {
        let (db, table) = lines_db();
        let txn = db.begin();
        db.delete_primary(&txn, table, &Key::int2(1, 4), CcMode::RowOnly)
            .unwrap();
        let rows = db
            .range_primary(&txn, table, &w_range(1, 3, 7), usize::MAX, CcMode::None)
            .unwrap();
        assert_eq!(orders_of(&rows), vec![(1, 3), (1, 5), (1, 6)]);
        db.commit(&txn).unwrap();
    }

    #[test]
    fn range_primary_under_full_holds_the_table_s_lock() {
        let (db, table) = lines_db();
        let txn = db.begin();
        db.range_primary(&txn, table, &w_range(1, 1, 3), usize::MAX, CcMode::Full)
            .unwrap();
        assert_eq!(txn.state.held.lock().len(), 2, "database IS and table S");
        assert_eq!(
            txn.state.held.lock().mode(&LockId::Table(table)),
            Some(LockMode::S)
        );
        db.commit(&txn).unwrap();
    }

    #[test]
    fn range_primary_under_none_must_fix_the_routing_fields() {
        let (db, table) = lines_db();
        let txn = db.begin();
        let rows = db
            .range_primary(&txn, table, &w_range(2, 9, 100), usize::MAX, CcMode::None)
            .unwrap();
        assert_eq!(orders_of(&rows), vec![(2, 9), (2, 10)]);
        assert_eq!(txn.state.held.lock().len(), 0);
        let crossing = [
            KeyRange::new(Some(Key::int2(1, 9)), Some(Key::int2(2, 2))),
            KeyRange::new(Some(Key::int2(1, 9)), None),
            KeyRange::new(None, Some(Key::int2(1, 2))),
            KeyRange::all(),
        ];
        for range in &crossing {
            assert!(
                matches!(
                    db.range_primary(&txn, table, range, usize::MAX, CcMode::None),
                    Err(DbError::InvalidOperation(_))
                ),
                "{range:?}"
            );
        }
        db.commit(&txn).unwrap();
    }

    #[test]
    fn snapshot_range_matches_the_locked_range_as_of_its_horizon() {
        let (db, table) = lines_db();
        let range = w_range(1, 0, 100);
        let locked = |limit| {
            let txn = db.begin();
            let rows = db
                .range_primary(&txn, table, &range, limit, CcMode::Full)
                .unwrap();
            db.commit(&txn).unwrap();
            rows
        };
        let snapshot = Arc::new(db.snapshot());
        let reader = db.begin_snapshot(Arc::clone(&snapshot));
        for limit in [3, usize::MAX] {
            assert_eq!(
                db.range_primary(&reader, table, &range, limit, CcMode::None)
                    .unwrap(),
                locked(limit)
            );
        }

        let writer = db.begin();
        db.delete_primary(&writer, table, &Key::int2(1, 5), CcMode::Full)
            .unwrap();
        db.insert(&writer, table, line_row(1, 50), CcMode::Full)
            .unwrap();
        db.commit(&writer).unwrap();

        let seen = db
            .range_primary(&reader, table, &range, usize::MAX, CcMode::None)
            .unwrap();
        assert_eq!(
            orders_of(&seen),
            (1..=10).map(|o| (1, o)).collect::<Vec<_>>()
        );
        assert_eq!(reader.state.held.lock().len(), 0);
        db.commit(&reader).unwrap();
        let now = orders_of(&locked(usize::MAX));
        assert!(now.contains(&(1, 50)) && !now.contains(&(1, 5)));
    }
}
