//! ARIES-style write-ahead logging: one log, leader/follower group commit
//! and background fuzzy checkpoints.
//!
//! The log buffers its records in memory (the paper keeps the log on an
//! in-memory file system) behind one mutex, which also assigns each record
//! its LSN: its position in the log, dense from 1. The paper names the log
//! manager the next bottleneck once lock contention is gone (Section 5.4);
//! its authors' answer, Aether, pipelines *one* log rather than splitting
//! it, and so does this one: one buffer, one flush claim, one simulated
//! device.
//!
//! **Commit order is log order.** A committing transaction appends one
//! commit record (`LogManager::append_commit`) carrying its **commit
//! sequence**, drawn under the same mutex that assigns the record's LSN, so
//! sequences increase with LSN and every prefix of the log holds exactly the
//! sequences `1..=k` for some `k`. The record is appended while the
//! transaction's locks are still held, so a dependent — which can run only
//! once those locks drop, early lock release included — commits at a larger
//! LSN. Recovery ([`LogManager::redo`]) behind a cut therefore replays
//! exactly the transactions whose commit record lies inside the cut: no torn
//! transaction (the commit record follows all of its data records), no ELR
//! ghost, and no dependent without the transaction it read from.
//!
//! One durability path, and the thread that waits drives it. The device
//! takes one write at a time, and a write hardens everything appended before
//! it starts, so the group forms by itself from whatever arrived during the
//! previous write:
//!
//! * A committer that must **block** ([`LogManager::flush`]) takes the flush
//!   claim if it is free and performs the device write itself — the
//!   *leader*; nobody is woken to start the write and nobody to report it.
//!   One that finds the claim held is a *follower*: it returns as soon as a
//!   leader's horizon covers its LSN, and otherwise takes the claim when it
//!   frees (yield-polling for about one device latency, then parking).
//! * A commit **nobody blocks on** (`LogManager::submit_commit`, which
//!   fires a callback once the commit record is durable) is queued for
//!   whoever hardens it next, and the `log-flusher` daemon — spawned by the
//!   first such commit — makes sure somebody does, by the same
//!   leader/follower rule.
//!
//! The log manager also takes **fuzzy checkpoints**: the committed history
//! is folded into a net-effect snapshot per `(table, rid)` plus a low-water
//! LSN, and moved out of the log. Recovery ([`LogManager::redo`]) therefore
//! always starts from the latest checkpoint, bulk-applies it and replays
//! only the tail past it — O(tail), not O(history) — and a cut below the
//! low-water mark asks for records that no longer exist. A checkpoint is
//! background work:
//!
//! * *Who builds.* The precommit path (`LogManager::maybe_checkpoint`)
//!   compares a counter; the one committer per
//!   [`DurabilityConfig::checkpoint_interval`] records that resets it wakes
//!   the `log-checkpointer` thread (spawned at the first crossing, joined on
//!   drop) and goes on. No committer ever builds.
//!   [`LogManager::take_checkpoint`] runs the same body on its caller.
//! * *The cut.* The log is cut at its **floor** — just below the first
//!   buffered record of a transaction that has neither committed nor aborted,
//!   whose undo chain must stay in the buffer — and the prefix below the floor
//!   is *moved* out of the log (`LogCore::cut`): the `records` mutex is held
//!   for O(live transactions + records past the floor), with no allocation,
//!   no copy of the prefix and no drop under it. The floor is the
//!   checkpoint's low-water mark, so log space is reclaimed by the cut itself.
//! * *The fold.* The moved records and the previous checkpoint's undecided
//!   ones are analysed, the committed data changes are ordered by commit
//!   sequence with one stable sort and folded **into the previous checkpoint
//!   in place**; the rest is dropped or carried. O(interval) work, whatever
//!   the size of the database.
//! * *Consistency.* The checkpoint mutex is held from before the cut until
//!   the checkpoint is complete. Recovery reads checkpoint and log under it
//!   and therefore finds every record in exactly one of the two.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use dora_common::prelude::*;
use dora_metrics::{incr, incr_by, record_time, CounterKind, TimeCategory, ValueHistogram};

/// Log sequence number: a record's position in the log, dense from 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lsn(pub u64);

/// The name of the log's only stream. Kept for the repository's benchmark
/// harness (`benchmark/src/sut.rs`), whose commit probe passes
/// `&[StreamId(0)]` to [`LogManager::append_commit_fences`]; nothing else
/// uses it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct StreamId(pub usize);

/// What a log record describes.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecordKind {
    /// Transaction begin. Appended lazily, immediately before the
    /// transaction's first data-change record — read-only transactions
    /// generate zero log traffic.
    Begin,
    /// A record insert: `after` holds the row image.
    Insert {
        table: TableId,
        rid: Rid,
        after: Vec<u8>,
    },
    /// A record update: both images are kept for undo/redo.
    Update {
        table: TableId,
        rid: Rid,
        before: Vec<u8>,
        after: Vec<u8>,
    },
    /// A record delete: `before` holds the row image for undo.
    Delete {
        table: TableId,
        rid: Rid,
        before: Vec<u8>,
    },
    /// Transaction commit: the transaction's last record. Recovery behind a
    /// cut replays the transaction iff this record lies inside it.
    Commit {
        /// Commit-order sequence, dense from 1 and drawn under the mutex that
        /// assigns the record's LSN, so it increases with LSN.
        seq: u64,
    },
    /// Transaction abort (all updates undone).
    Abort,
}

impl LogRecordKind {
    /// `true` for the record kinds recovery replays (insert/update/delete).
    fn is_data_change(&self) -> bool {
        matches!(
            self,
            LogRecordKind::Insert { .. }
                | LogRecordKind::Update { .. }
                | LogRecordKind::Delete { .. }
        )
    }

    /// The row a data-change record touches (`None` for begin/commit/abort).
    pub(crate) fn row_key(&self) -> Option<(TableId, Rid)> {
        match self {
            LogRecordKind::Insert { table, rid, .. }
            | LogRecordKind::Update { table, rid, .. }
            | LogRecordKind::Delete { table, rid, .. } => Some((*table, *rid)),
            _ => None,
        }
    }
}

/// A single log record.
#[derive(Debug, Clone, PartialEq)]
pub struct LogRecord {
    /// This record's LSN.
    pub lsn: Lsn,
    /// Owning transaction.
    pub txn: TxnId,
    /// Previous LSN written by the same transaction ([`Lsn`] 0 if none): the
    /// backward chain rollback walks.
    pub prev_lsn: Lsn,
    /// Payload.
    pub kind: LogRecordKind,
}

/// Completion callback fired once a submitted commit's fate is decided:
/// `true` means durable, `false` means the device writes failed past the
/// retry budget and this commit can never harden (durability lost). Runs on
/// whichever thread hardens the commit record — a committer leading the
/// device write, or the daemon — or inline on the submitter when the fate is
/// already known; must not block on the log.
pub(crate) type DurableCallback = Box<dyn FnOnce(bool) + Send + 'static>;

/// One commit nobody blocks on, waiting for its completion callback.
struct PendingCommit {
    lsn: Lsn,
    callback: DurableCallback,
}

/// The queued callbacks, shared between submitters, leaders and the daemon.
#[derive(Default)]
struct FlusherQueue {
    pending: Vec<PendingCommit>,
    shutdown: bool,
}

/// Runs a durability callback. The durability work for the callback's group is
/// already done (horizon advanced, followers woken), so a panicking callback
/// must not take the thread that hardened it down — a dead daemon would leave
/// every later callback unanswered, and a committer would lose its own
/// commit's outcome. Panics are swallowed, counted
/// ([`CounterKind::CallbackPanics`]) and reported once per process.
fn fire_callback(callback: DurableCallback, durable: bool) {
    if let Err(panic) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| callback(durable)))
    {
        incr(CounterKind::CallbackPanics);
        static WARNED: AtomicBool = AtomicBool::new(false);
        if !WARNED.swap(true, Ordering::Relaxed) {
            eprintln!(
                "log: durability callback panicked (counted as callback-panics, \
                 reported once): {panic:?}"
            );
        }
    }
}

/// Deadline-polls for `duration` (see [`LogCore::device_write_once`] for
/// why polling, not sleeping), yielding so other threads keep running.
fn busy_wait(duration: Duration) {
    if duration.is_zero() {
        return;
    }
    let deadline = Instant::now() + duration;
    while Instant::now() < deadline {
        std::thread::yield_now();
    }
}

/// The in-memory record buffer with a reclaimable prefix.
///
/// LSNs are stable identities, the buffer is not: fuzzy checkpoints may
/// truncate an already-folded prefix, after which the record with LSN `n`
/// lives at buffered index `n - 1 - base`. `base` counts the truncated
/// records, so `total()` keeps reporting the full appended history and LSN
/// assignment stays dense across reclamation.
#[derive(Default)]
struct LogBuffer {
    /// Records reclaimed (truncated) off the front at checkpoints.
    base: u64,
    /// The retained suffix, in LSN order.
    buffered: Vec<LogRecord>,
    /// Commit records ever appended, which is also the last commit sequence
    /// drawn. Read together with `total()` by whoever starts a device write,
    /// so every commit is counted in exactly one group.
    commits: u64,
}

impl LogBuffer {
    /// Total records ever appended (reclaimed + retained).
    fn total(&self) -> u64 {
        self.base + self.buffered.len() as u64
    }

    /// Buffered index of `lsn`. Panics (via slice indexing at the caller)
    /// only if the record was reclaimed — which the checkpoint's live-
    /// transaction floor rules out for every chain still walked.
    fn index_of(&self, lsn: Lsn) -> usize {
        debug_assert!(lsn.0 > self.base, "LSN {lsn:?} was reclaimed");
        (lsn.0 - 1 - self.base) as usize
    }

    /// The retained records with `low` < LSN ≤ `cut` (`low` ≤ `cut`).
    /// Clamping to the base is exact for the *latest* checkpoint's low-water
    /// mark only — a build moves the records between an older mark and the
    /// base into the checkpoint — which is why recovery reads both under the
    /// checkpoint mutex.
    fn between(&self, low: Lsn, cut: Lsn) -> &[LogRecord] {
        let index = |lsn: Lsn| (lsn.0.saturating_sub(self.base) as usize).min(self.buffered.len());
        &self.buffered[index(low)..index(cut)]
    }
}

/// The log itself: its record buffer and LSN space, its durable horizon and
/// flush claim, and the daemon that serves the callbacks nobody blocks on —
/// shared by the [`LogManager`], the daemon, the watchdog and the checkpoint
/// builder.
///
/// Like a DORA executor, the flusher is a role, not a thread. The log has
/// one device, so one write is in flight at a time, and whoever holds the
/// `claimed` flag performs it ([`Self::write_group`]): a committer that must
/// block for durability and finds the claim free (the *leader*), or the
/// `log-flusher` daemon on behalf of queued callbacks. A committer that
/// finds the claim held is a *follower*: the write in flight covers its LSN,
/// or it leads the next one.
struct LogCore {
    /// The records in LSN order, behind a reclaimable prefix (LSNs and
    /// commit sequences are assigned under this mutex).
    records: Mutex<LogBuffer>,
    /// Per-transaction backward chain heads.
    last_lsn_per_txn: Mutex<HashMap<TxnId, Lsn>>,
    /// Highest LSN known durable. Written by the claim holder only.
    flushed_lsn: AtomicU64,
    /// The flush claim.
    claimed: AtomicBool,
    /// Commit records counted into a flush group so far (claim holder only).
    commits_hardened: AtomicU64,
    /// What followers sleep on `durable_cond` with. Their conditions
    /// (`flushed_lsn`, `claimed`, `failed`) are atomics written outside it,
    /// so whoever changes one locks and releases it before notifying — else
    /// a follower between its check and its sleep misses the wake-up.
    followers: Mutex<()>,
    durable_cond: Condvar,
    queue: Mutex<FlusherQueue>,
    work_cond: Condvar,
    /// Simulated log-device latency per write.
    flush_latency: Duration,
    /// Commit records hardened per device write.
    group_sizes: Mutex<ValueHistogram>,
    /// The deterministic fault schedule device writes draw from.
    faults: Arc<FaultPlan>,
    /// Set once the device writes failed past the retry budget: nothing will
    /// ever harden again, and every current and future durability wait
    /// resolves to "lost".
    failed: AtomicBool,
    /// The `log-flusher` daemon, spawned lazily by the first callback that
    /// has to queue and joined on drop.
    flusher: Mutex<Option<JoinHandle<()>>>,
}

impl LogCore {
    fn new(flush_latency_micros: u64, faults: Arc<FaultPlan>) -> Self {
        Self {
            records: Mutex::new(LogBuffer::default()),
            last_lsn_per_txn: Mutex::new(HashMap::new()),
            flushed_lsn: AtomicU64::new(0),
            claimed: AtomicBool::new(false),
            commits_hardened: AtomicU64::new(0),
            followers: Mutex::new(()),
            durable_cond: Condvar::new(),
            queue: Mutex::new(FlusherQueue::default()),
            work_cond: Condvar::new(),
            flush_latency: Duration::from_micros(flush_latency_micros),
            group_sizes: Mutex::new(ValueHistogram::new()),
            faults,
            failed: AtomicBool::new(false),
            flusher: Mutex::new(None),
        }
    }

    /// Appends a record for `txn` under the held buffer mutex, returning its
    /// LSN.
    fn push(&self, records: &mut LogBuffer, txn: TxnId, kind: LogRecordKind) -> Lsn {
        let lsn = Lsn(records.total() + 1);
        let prev_lsn = self
            .last_lsn_per_txn
            .lock()
            .insert(txn, lsn)
            .unwrap_or(Lsn(0));
        records.buffered.push(LogRecord {
            lsn,
            txn,
            prev_lsn,
            kind,
        });
        lsn
    }

    /// Simulates the log-device write latency. Deadline-polling rather than
    /// sleep — sleeping rounds up to scheduler granularity and would
    /// distort the microsecond-scale latencies we are simulating — but
    /// yielding inside the loop, because a device write is I/O, not
    /// compute: while the write is in flight, the executors and committers
    /// feeding the log must keep running even when hardware contexts are
    /// scarce. On an idle core the yield returns immediately, preserving
    /// accuracy.
    ///
    /// The fault plan can make one attempt take a latency spike or fail
    /// outright (`false`); a failed attempt still pays its device latency,
    /// like a real write that errors only at completion.
    fn device_write_once(&self) -> bool {
        let mut latency = self.flush_latency;
        if self.faults.enabled() && self.faults.should_inject(FaultSite::DeviceLatencySpike) {
            incr(CounterKind::FaultsInjected);
            latency += Duration::from_micros(self.faults.config().device_spike_micros);
        }
        busy_wait(latency);
        if self.faults.enabled() && self.faults.should_inject(FaultSite::DeviceWriteError) {
            incr(CounterKind::FaultsInjected);
            return false;
        }
        true
    }

    /// One *logical* device write: retries transient failures with capped
    /// exponential backoff up to the configured retry budget. Returns
    /// `false` only when the budget is exhausted — the caller must then
    /// declare the log's durability lost. With `max_write_retries == 0`
    /// (self-healing off) the first transient failure is final.
    fn device_write_with_retry(&self) -> bool {
        let config = self.faults.config();
        let mut attempt: u32 = 0;
        loop {
            if self.device_write_once() {
                return true;
            }
            if attempt >= config.max_write_retries {
                return false;
            }
            incr(CounterKind::FlushRetries);
            // Exponential backoff, capped at 32x the base so a deep retry
            // chain never holds the claim for longer than the workload.
            let backoff = config
                .retry_backoff_micros
                .saturating_mul(1u64 << attempt.min(5));
            busy_wait(Duration::from_micros(backoff));
            attempt += 1;
        }
    }

    fn try_claim(&self) -> bool {
        !self.claimed.load(Ordering::Relaxed)
            && self
                .claimed
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
    }

    /// Blocks until the log is durable up to (at least) `lsn`; `false`
    /// means durability was lost for good before `lsn` hardened. The caller
    /// drives the log itself: it takes the flush claim if it is free and
    /// performs the device write (no wake in either direction); otherwise it
    /// follows — it returns once a holder's horizon covers `lsn`, and takes
    /// the claim when it frees, yield-polling for about one device latency
    /// before it parks. `led` says the caller is a committer, not the daemon.
    fn flush(&self, lsn: Lsn, led: bool) -> bool {
        let poll_until = Instant::now() + self.flush_latency;
        loop {
            if self.flushed_lsn.load(Ordering::Acquire) >= lsn.0 {
                return true;
            }
            if self.failed.load(Ordering::Acquire) {
                return false;
            }
            if self.try_claim() {
                self.write_group(lsn, led);
            } else if Instant::now() < poll_until {
                std::thread::yield_now();
            } else {
                self.park(lsn);
            }
        }
    }

    /// Sleeps until the claim holder lets go. The conditions are re-read
    /// under the mutex the holder touches after it has published them and
    /// before it notifies, so the wake-up cannot be lost.
    fn park(&self, lsn: Lsn) {
        let mut followers = self.followers.lock();
        if self.flushed_lsn.load(Ordering::Acquire) < lsn.0
            && self.claimed.load(Ordering::Acquire)
            && !self.failed.load(Ordering::Acquire)
        {
            self.durable_cond.wait(&mut followers);
        }
    }

    /// One device write by the claim holder, for everything appended so far
    /// (at least up to `target`): write, publish the new durable horizon (or
    /// the log's failure), release the claim, wake parked followers, and fire
    /// the queued callbacks the write decided.
    fn write_group(&self, target: Lsn, led: bool) {
        if self.faults.enabled() && self.faults.should_inject(FaultSite::FlusherStall) {
            incr(CounterKind::FaultsInjected);
            std::thread::sleep(Duration::from_micros(
                self.faults.config().flusher_stall_micros,
            ));
        }
        // A test holding the site keeps everything appended so far undurable.
        self.faults.park_while_held(FaultSite::FlusherStall);
        let (horizon, commits) = {
            let records = self.records.lock();
            (records.total().max(target.0), records.commits)
        };
        let start = Instant::now();
        let wrote = self.device_write_with_retry();
        record_time(TimeCategory::LogWait, start.elapsed());
        if wrote {
            incr(CounterKind::LogFlushes);
            incr(CounterKind::GroupCommits);
            if led {
                incr(CounterKind::LeaderFlushes);
            }
            let counted = self.commits_hardened.swap(commits, Ordering::Relaxed);
            self.group_sizes.lock().record(commits - counted);
            self.flushed_lsn.fetch_max(horizon, Ordering::AcqRel);
        } else {
            self.failed.store(true, Ordering::Release);
        }
        self.claimed.store(false, Ordering::Release);
        drop(self.followers.lock());
        self.durable_cond.notify_all();
        self.fire_decided();
    }

    /// Fires every queued callback whose fate is known: its commit record is
    /// under the durable horizon, or the log has failed.
    fn fire_decided(&self) {
        let failed = self.failed.load(Ordering::Acquire);
        let flushed = self.flushed_lsn.load(Ordering::Acquire);
        let decided: Vec<PendingCommit> = {
            let mut queue = self.queue.lock();
            queue
                .pending
                .extract_if(.., |commit| failed || commit.lsn.0 <= flushed)
                .collect()
        };
        for commit in decided {
            fire_callback(commit.callback, commit.lsn.0 <= flushed);
        }
    }

    /// The daemon's loop: sleep until a callback is queued, then harden the
    /// newest queued commit the way a committer would — lead the write, or
    /// follow whoever holds the claim. It never runs for a commit somebody
    /// blocks on.
    fn run_flusher(self: Arc<Self>) {
        loop {
            let target = {
                let mut queue = self.queue.lock();
                loop {
                    if let Some(newest) = queue.pending.iter().map(|commit| commit.lsn).max() {
                        break newest;
                    }
                    if queue.shutdown {
                        return;
                    }
                    self.work_cond.wait(&mut queue);
                }
            };
            self.flush(target, false);
            // A callback queued after a leader had looked at the queue,
            // for a commit that leader's write covered, is still there.
            self.fire_decided();
        }
    }

    /// Registers `callback` to fire once the log is durable up to `lsn` — or
    /// once that can never happen — without blocking the caller: the commit
    /// is queued for whoever hardens it next, and the daemon is woken to make
    /// sure somebody does. Already-durable LSNs and an already-failed log
    /// complete inline on the calling thread.
    fn submit_commit(self: &Arc<Self>, lsn: Lsn, callback: DurableCallback) {
        if self.flushed_lsn.load(Ordering::Acquire) >= lsn.0 {
            callback(true);
            return;
        }
        if self.failed.load(Ordering::Acquire) {
            callback(false);
            return;
        }
        {
            let mut flusher = self.flusher.lock();
            if flusher.is_none() {
                // Spawning fails only when the OS refuses a thread, which is
                // fatal here as it is for `std::thread::spawn`.
                let log = Arc::clone(self);
                *flusher = Some(
                    std::thread::Builder::new()
                        .name("log-flusher".into())
                        .spawn(move || log.run_flusher())
                        .expect("spawn log-flusher"),
                );
            }
        }
        self.queue
            .lock()
            .pending
            .push(PendingCommit { lsn, callback });
        self.work_cond.notify_one();
    }

    /// The checkpoint cut: *moves* the records below the floor out of the log
    /// and hands them to the builder, with the floor and how long the
    /// `records` mutex was held. The floor is the last record below the first
    /// buffered record of any *live* transaction (one still in
    /// `last_lsn_per_txn`, i.e. not yet committed or aborted), found by
    /// walking those few `prev_lsn` chains — rollback walks the same chains
    /// through buffered indices, so nothing a live transaction wrote may
    /// leave the buffer. The tail is shifted into a buffer allocated before
    /// the lock and the two are swapped, so the mutex covers O(tail) moves
    /// and neither an allocation nor a drop.
    fn cut(&self) -> (Lsn, Vec<LogRecord>, Duration) {
        // The replacement keeps the old capacity, so the appends of the next
        // interval do not re-grow it under the mutex.
        let mut kept = Vec::with_capacity(self.records.lock().buffered.capacity());
        let mut buffer = self.records.lock();
        let locked = Instant::now();
        let mut floor = buffer.total();
        for &last in self.last_lsn_per_txn.lock().values() {
            let mut first = last;
            loop {
                let prev = buffer.buffered[buffer.index_of(first)].prev_lsn;
                if prev.0 == 0 {
                    break;
                }
                first = prev;
            }
            floor = floor.min(first.0 - 1);
        }
        let at = (floor - buffer.base) as usize;
        kept.extend(buffer.buffered.drain(at..));
        buffer.base = floor;
        let moved = std::mem::replace(&mut buffer.buffered, kept);
        drop(buffer);
        (Lsn(floor), moved, locked.elapsed())
    }

    fn shutdown(&self) {
        let handle = self.flusher.lock().take();
        if let Some(handle) = handle {
            self.queue.lock().shutdown = true;
            self.work_cond.notify_one();
            // A durability callback can own the last reference to the
            // database, so this drop chain may run ON the flusher thread.
            // Joining yourself is a deadlock; detach instead — the thread
            // has already seen `shutdown` and exits on its own.
            if handle.thread().id() != std::thread::current().id() {
                let _ = handle.join();
            }
        }
    }
}

/// A fuzzy checkpoint: the committed history up to `seq_horizon`, folded
/// into net-effect records per row, plus the records of transactions that
/// were still undecided when the checkpoint was cut (carried forward so a
/// commit record landing after the low-water mark loses nothing).
///
/// `Clone` exists for the builder's [`Arc::make_mut`] alone: it copies the
/// previous checkpoint only while a reader still holds it.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The cut: this checkpoint covers records with LSN ≤ `low_water`;
    /// recovery replays only the tail past it.
    low_water: Lsn,
    /// Commit sequences ≤ this are folded into `rows`.
    seq_horizon: u64,
    /// Net effect per row, as the minimal record list replay must apply
    /// (usually one record; two for delete-then-reinsert slot reuse).
    rows: HashMap<(TableId, Rid), Vec<LogRecord>>,
    /// Records (below the low-water mark) of transactions neither committed
    /// ≤ `seq_horizon` nor aborted at build time.
    pending: Vec<LogRecord>,
}

impl Checkpoint {
    /// The LSN this checkpoint's folded state already covers.
    pub fn low_water(&self) -> Lsn {
        self.low_water
    }

    /// Highest commit sequence folded into the checkpoint.
    pub fn seq_horizon(&self) -> u64 {
        self.seq_horizon
    }

    /// Number of distinct rows with folded state.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Carried records of transactions undecided at build time.
    pub fn pending(&self) -> &[LogRecord] {
        &self.pending
    }
}

/// What recovery replays ([`LogManager::redo`]).
#[derive(Debug)]
pub struct Redo {
    /// The records to apply to a freshly loaded database, in an order that is
    /// correct for every row: the checkpoint's net-effect rows first, then
    /// the data changes of each recovered transaction past it, grouped per
    /// transaction in commit-sequence order. Different rows commute, so the
    /// records may be applied sharded by page.
    pub records: Vec<LogRecord>,
    /// Commit sequences `1..=seq_horizon` are what the records rebuild: the
    /// checkpoint's horizon extended over every commit record past it.
    pub seq_horizon: u64,
}

/// Result of scanning a candidate record set for commit and abort records.
struct Analysis {
    /// Transaction → its commit sequence, for every commit record found.
    committed: HashMap<TxnId, u64>,
    /// The highest commit sequence found (the base horizon if none).
    horizon: u64,
    aborted: HashSet<TxnId>,
}

/// Folds one data-change record into a row's net-effect slot
/// (insert+update → insert, update+update → latest, insert+delete →
/// nothing, update+delete → delete; delete-then-insert keeps both).
fn fold_row(slot: &mut Vec<LogRecord>, record: LogRecord) {
    use LogRecordKind as K;
    enum Action {
        Push,
        Pop,
        ReplaceKind(LogRecordKind),
        ReplaceRecord,
    }
    let action = match (slot.last().map(|r| &r.kind), &record.kind) {
        (Some(K::Insert { .. }), K::Delete { .. }) => Action::Pop,
        (Some(K::Insert { table, rid, .. }), K::Update { after, .. }) => {
            Action::ReplaceKind(K::Insert {
                table: *table,
                rid: *rid,
                after: after.clone(),
            })
        }
        // Replay only applies `after`, so the intermediate `before` image
        // the replacing record carries is irrelevant.
        (Some(K::Update { .. }), K::Update { .. }) | (Some(K::Update { .. }), K::Delete { .. }) => {
            Action::ReplaceRecord
        }
        _ => Action::Push,
    };
    // `ReplaceKind` and `ReplaceRecord` are chosen only when `slot.last()`
    // is `Some`.
    match action {
        Action::Push => slot.push(record),
        Action::Pop => {
            slot.pop();
        }
        Action::ReplaceKind(kind) => slot.last_mut().expect("slot non-empty").kind = kind,
        Action::ReplaceRecord => *slot.last_mut().expect("slot non-empty") = record,
    }
}

/// Name of the thread that builds checkpoints in the background.
pub const CHECKPOINTER_THREAD: &str = "log-checkpointer";

/// What checkpointing has cost so far ([`LogManager::checkpoint_stats`]).
#[derive(Debug, Clone, Default)]
pub struct CheckpointStats {
    /// Checkpoints built.
    pub builds: u64,
    /// Of those, the ones built on the `log-checkpointer` thread (the rest
    /// are [`LogManager::take_checkpoint`] calls).
    pub background_builds: u64,
    /// Duration of the latest build.
    pub last_build: Duration,
    /// Duration of the longest build.
    pub max_build: Duration,
    /// Committed data changes folded into row slots, all builds.
    pub records_folded: u64,
    /// Rows with folded state in the latest checkpoint.
    pub rows_held: usize,
    /// The longest single hold of the log's `records` mutex by a build.
    pub max_lock_hold: Duration,
}

/// The builder thread's mailbox. One condvar serves both directions: the
/// builder sleeps until `requested` passes `served`, and
/// [`LogManager::checkpoint_snapshot`] until `served` catches up.
#[derive(Default)]
struct Wake {
    /// Interval crossings so far.
    requested: u64,
    /// Crossings a finished build has answered.
    served: u64,
    shutdown: bool,
}

/// The checkpoint and everything its builder needs, shared between the
/// [`LogManager`] and the `log-checkpointer` thread.
struct Checkpointer {
    log: Arc<LogCore>,
    /// The latest checkpoint. Held for a whole build — from before the first
    /// record leaves the log until the checkpoint that holds it is complete
    /// — which serialises builds and makes checkpoint + log one consistent
    /// read for whoever holds it. No committer ever takes it.
    current: Mutex<Option<Arc<Checkpoint>>>,
    stats: Mutex<CheckpointStats>,
    wake: Mutex<Wake>,
    wake_cond: Condvar,
}

impl Checkpointer {
    /// The `log-checkpointer` thread: one build per batch of crossings.
    fn run(&self) {
        let mut wake = self.wake.lock();
        loop {
            if wake.shutdown {
                return;
            }
            if wake.served == wake.requested {
                self.wake_cond.wait(&mut wake);
                continue;
            }
            let serving = wake.requested;
            drop(wake);
            self.build();
            wake = self.wake.lock();
            wake.served = serving;
            self.wake_cond.notify_all();
        }
    }

    /// Folds everything committed since the previous checkpoint into it, in
    /// place. The cut is *fuzzy* ([`LogCore::cut`]), which is safe because
    /// undecided transactions' records are carried in `pending` and
    /// re-examined next time. The work is O(interval): nothing is copied but
    /// the cut, and every record dropped is dropped here, outside the log's
    /// mutex.
    fn build(&self) {
        let started = Instant::now();
        let mut current = self.current.lock();
        let checkpoint = Arc::make_mut(current.get_or_insert_with(|| {
            Arc::new(Checkpoint {
                low_water: Lsn(0),
                seq_horizon: 0,
                rows: HashMap::new(),
                pending: Vec::new(),
            })
        }));
        let carried = std::mem::take(&mut checkpoint.pending);
        let (floor, moved, lock_hold) = self.log.cut();
        checkpoint.low_water = floor;
        if self.log.faults.park_while_held(FaultSite::CheckpointStall) {
            incr(CounterKind::FaultsInjected);
        }
        let analysis = LogManager::analyze(carried.iter().chain(&moved), checkpoint.seq_horizon);
        let mut committed: Vec<(u64, LogRecord)> = Vec::new();
        for record in carried.into_iter().chain(moved) {
            if let Some(&seq) = analysis.committed.get(&record.txn) {
                if record.kind.is_data_change() {
                    committed.push((seq, record));
                }
            } else if !analysis.aborted.contains(&record.txn) {
                checkpoint.pending.push(record);
            }
        }
        // Commit-sequence order; stable, and the records are in log order,
        // so a transaction's records keep their log position.
        committed.sort_by_key(|&(seq, _)| seq);
        let folded = committed.len() as u64;
        for (_, record) in committed {
            // `committed` holds only data changes, and each names a row.
            let key = record.kind.row_key().expect("data record has a row");
            let slot = checkpoint.rows.entry(key).or_default();
            fold_row(slot, record);
            if slot.is_empty() {
                checkpoint.rows.remove(&key);
            }
        }
        checkpoint.seq_horizon = analysis.horizon;
        let rows_held = checkpoint.rows.len();
        drop(current);

        let build = started.elapsed();
        incr(CounterKind::CheckpointsTaken);
        incr_by(CounterKind::CheckpointBuildMicros, build.as_micros() as u64);
        incr_by(
            CounterKind::CheckpointLockHoldMicros,
            lock_hold.as_micros() as u64,
        );
        let mut stats = self.stats.lock();
        stats.builds += 1;
        if std::thread::current().name() == Some(CHECKPOINTER_THREAD) {
            stats.background_builds += 1;
        }
        stats.last_build = build;
        stats.max_build = stats.max_build.max(build);
        stats.records_folded += folded;
        stats.rows_held = rows_held;
        stats.max_lock_hold = stats.max_lock_hold.max(lock_hold);
    }
}

/// The write-ahead log.
pub struct LogManager {
    log: Arc<LogCore>,
    /// The checkpoint, its builder's state and statistics — shared with the
    /// `log-checkpointer` thread.
    checkpointer: Arc<Checkpointer>,
    /// The `log-checkpointer` thread, spawned by the first interval crossing
    /// and joined on drop.
    checkpointer_thread: Mutex<Option<JoinHandle<()>>>,
    /// Records appended since the last interval crossing.
    records_since_checkpoint: AtomicU64,
    durability: DurabilityConfig,
    /// Tells the watchdog thread to exit.
    watchdog_stop: Arc<AtomicBool>,
    /// The `log-watchdog` thread, spawned only when faults are enabled;
    /// joined on drop.
    watchdog: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for LogManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let records = self.log.records.lock();
        f.debug_struct("LogManager")
            .field("records", &records.total())
            .field("commits", &records.commits)
            .finish()
    }
}

impl LogManager {
    /// Creates a log manager whose device writes take `flush_latency_micros`
    /// simulated microseconds, with the default [`DurabilityConfig`].
    pub fn new(flush_latency_micros: u64) -> Self {
        Self::with_durability(flush_latency_micros, DurabilityConfig::default())
    }

    /// Creates a log manager with explicit durability knobs.
    pub fn with_durability(flush_latency_micros: u64, durability: DurabilityConfig) -> Self {
        Self::with_faults(
            flush_latency_micros,
            durability,
            Arc::new(FaultPlan::disabled()),
        )
    }

    /// [`Self::with_durability`] plus a live fault schedule for the simulated
    /// device. When the plan can fire, a `log-watchdog` thread is also
    /// spawned: it samples the flush horizon and, when a write is claimed or
    /// callbacks are queued but the horizon stopped advancing, re-nudges the
    /// log's condvars (and counts the nudge) — the safety net against a
    /// stalled or wakeup-starved writer wedging every committer behind it.
    pub(crate) fn with_faults(
        flush_latency_micros: u64,
        durability: DurabilityConfig,
        faults: Arc<FaultPlan>,
    ) -> Self {
        let log = Arc::new(LogCore::new(flush_latency_micros, Arc::clone(&faults)));
        let watchdog_stop = Arc::new(AtomicBool::new(false));
        // Spawning fails only when the OS refuses a thread, which is fatal
        // here as it is for `std::thread::spawn`.
        let watchdog = if faults.enabled() {
            let watched = Arc::clone(&log);
            let stop = Arc::clone(&watchdog_stop);
            Some(
                std::thread::Builder::new()
                    .name("log-watchdog".into())
                    .spawn(move || run_watchdog(watched, stop))
                    .expect("spawn log-watchdog"),
            )
        } else {
            None
        };
        Self {
            checkpointer: Arc::new(Checkpointer {
                log: Arc::clone(&log),
                current: Mutex::new(None),
                stats: Mutex::new(CheckpointStats::default()),
                wake: Mutex::new(Wake::default()),
                wake_cond: Condvar::new(),
            }),
            checkpointer_thread: Mutex::new(None),
            records_since_checkpoint: AtomicU64::new(0),
            log,
            durability,
            watchdog_stop,
            watchdog: Mutex::new(watchdog),
        }
    }

    /// The fault schedule this log's device draws from.
    pub(crate) fn faults(&self) -> &Arc<FaultPlan> {
        &self.log.faults
    }

    /// `true` once the log's durability has been lost for good.
    pub fn failed(&self) -> bool {
        self.log.failed.load(Ordering::Acquire)
    }

    /// Appends a record for `txn`, returning its LSN. Commit records go
    /// through `Self::append_commit`, which draws their sequence.
    pub fn append(&self, txn: TxnId, kind: LogRecordKind) -> Lsn {
        debug_assert!(
            !matches!(kind, LogRecordKind::Commit { .. }),
            "commit records are appended by append_commit"
        );
        let lsn = self.log.push(&mut self.log.records.lock(), txn, kind);
        incr(CounterKind::LogRecords);
        self.records_since_checkpoint
            .fetch_add(1, Ordering::Relaxed);
        lsn
    }

    /// Appends `txn`'s commit record and returns its commit sequence and
    /// LSN. The sequence is drawn under the mutex that assigns the LSN, so
    /// sequence order is log order and every log prefix holds a dense run of
    /// sequences. Must be called while the transaction's locks are still
    /// held, so dependents commit at strictly larger LSNs.
    pub(crate) fn append_commit(&self, txn: TxnId) -> (u64, Lsn) {
        let mut records = self.log.records.lock();
        records.commits += 1;
        let seq = records.commits;
        let lsn = self
            .log
            .push(&mut records, txn, LogRecordKind::Commit { seq });
        drop(records);
        incr(CounterKind::LogRecords);
        incr(CounterKind::CommitFences);
        self.records_since_checkpoint
            .fetch_add(1, Ordering::Relaxed);
        (seq, lsn)
    }

    /// `Self::append_commit` under its former multi-stream signature, kept
    /// for the repository's benchmark harness (`benchmark/src/sut.rs`), which
    /// probes the commit path through it. `_streams` is ignored: the log has
    /// one stream. Nothing else may call this.
    pub fn append_commit_fences(&self, txn: TxnId, _streams: &[StreamId]) -> (u64, Lsn) {
        self.append_commit(txn)
    }

    /// Blocks until the log is durable up to (at least) `lsn`; `false` means
    /// durability was lost for good first — a commit waiting on it is then a
    /// ghost and must surface [`DbError::DurabilityLost`].
    ///
    /// The calling thread drives the log: if nobody is writing the device it
    /// performs the write itself, for everything appended so far, and wakes
    /// nobody on the way in or out; if somebody is, it follows — that write
    /// covers `lsn`, or the caller leads the next one. Threads that find
    /// their LSN already flushed return immediately.
    pub(crate) fn flush(&self, lsn: Lsn) -> bool {
        self.log.flush(lsn, true)
    }

    /// `Self::flush` under its former multi-stream signature, kept for the
    /// repository's benchmark harness (`benchmark/src/sut.rs`), which flushes
    /// what [`Self::append_commit_fences`] returned. Nothing else may call
    /// this.
    pub fn flush_fences(&self, commit: &Lsn) -> bool {
        self.flush(*commit)
    }

    /// Registers `callback` to fire once the log is durable up to `lsn`,
    /// without blocking the caller — the commit path of a transaction nobody
    /// waits on ([`Database::commit_async`]). The callback runs on whichever
    /// thread hardens the commit: the daemon, a committer that led a write
    /// covering it, or the caller itself if it is already durable.
    ///
    /// [`Database::commit_async`]: crate::Database::commit_async
    pub(crate) fn submit_commit(&self, lsn: Lsn, callback: DurableCallback) {
        self.log.submit_commit(lsn, callback);
    }

    /// Highest LSN known to be durable.
    pub fn flushed_lsn(&self) -> Lsn {
        Lsn(self.log.flushed_lsn.load(Ordering::Acquire))
    }

    /// Flush-group sizes observed so far: commit records hardened per device
    /// write, whoever performed it. Every commit is counted in exactly one
    /// group.
    pub fn flush_group_sizes(&self) -> ValueHistogram {
        self.log.group_sizes.lock().clone()
    }

    /// Whether the `log-flusher` daemon was ever needed (a callback had to
    /// queue); blocking committers alone never spawn it.
    pub fn flusher_spawned(&self) -> bool {
        self.log.flusher.lock().is_some()
    }

    /// Total records appended — the full history, including any prefix
    /// already reclaimed at checkpoints (LSNs are stable, so a truncation
    /// never shrinks this). Also the LSN of the last record.
    pub fn len(&self) -> usize {
        self.log.records.lock().total() as usize
    }

    /// `true` if nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records truncated off the log's prefix by checkpoint reclamation.
    pub fn reclaimed_records(&self) -> u64 {
        self.log.records.lock().base
    }

    /// Records currently held in memory (the retained suffix).
    pub fn retained_records(&self) -> usize {
        self.log.records.lock().buffered.len()
    }

    /// Returns the records of `txn` in undo order: the transaction's
    /// `prev_lsn` chain walked backwards from its last record — O(records of
    /// `txn`), not a full-log scan.
    pub(crate) fn records_for_undo(&self, txn: TxnId) -> Vec<LogRecord> {
        let last = self
            .log
            .last_lsn_per_txn
            .lock()
            .get(&txn)
            .copied()
            .unwrap_or(Lsn(0));
        let records = self.log.records.lock();
        let mut chain = Vec::new();
        let mut cursor = last;
        while cursor.0 != 0 {
            // Reclamation never truncates past the first record of a live
            // transaction, so the whole chain is still buffered.
            let record = &records.buffered[records.index_of(cursor)];
            debug_assert_eq!(record.txn, txn, "prev_lsn chain crossed transactions");
            cursor = record.prev_lsn;
            chain.push(record.clone());
        }
        chain
    }

    /// Scans `candidates` — a checkpoint's carried records plus a run of the
    /// log past its low-water mark — for commit and abort records. The
    /// commit sequences found are exactly `base_horizon + 1..=horizon`:
    /// sequences are drawn in log order.
    fn analyze<'a>(
        candidates: impl IntoIterator<Item = &'a LogRecord>,
        base_horizon: u64,
    ) -> Analysis {
        let mut committed = HashMap::new();
        let mut aborted = HashSet::new();
        let mut horizon = base_horizon;
        for record in candidates {
            match record.kind {
                LogRecordKind::Commit { seq } => {
                    committed.insert(record.txn, seq);
                    horizon = horizon.max(seq);
                }
                LogRecordKind::Abort => {
                    aborted.insert(record.txn);
                }
                _ => {}
            }
        }
        debug_assert_eq!(
            horizon - base_horizon,
            committed.len() as u64,
            "commit sequences are dense in log order"
        );
        Analysis {
            committed,
            horizon,
            aborted,
        }
    }

    /// What recovery replays — the one analysis behind
    /// [`Database::recover_into`] and `recover_prefix_into`: the latest
    /// checkpoint's net-effect rows plus the data changes of every
    /// transaction whose commit record lies in its carried records or in the
    /// log past its low-water mark — up to `cut` if given (what survives a
    /// crash that lost everything past the cut). Checkpoint and log are read
    /// once, under the checkpoint mutex, so a concurrent build can move no
    /// record out of sight; only the replayed records are cloned.
    ///
    /// A cut below the low-water mark is an error: the records between the
    /// cut and the mark exist only folded into the checkpoint, so the state
    /// at that cut can no longer be rebuilt.
    ///
    /// [`Database::recover_into`]: crate::Database::recover_into
    pub fn redo(&self, cut: Option<Lsn>) -> DbResult<Redo> {
        let current = self.checkpointer.current.lock();
        let checkpoint = current.as_deref();
        let buffer = self.log.records.lock();
        let low = checkpoint.map_or(Lsn(0), Checkpoint::low_water);
        let cut = cut.unwrap_or(Lsn(u64::MAX));
        if cut < low {
            return Err(DbError::InvalidOperation(format!(
                "cut {} is below the low-water mark {}: the records between are folded \
                 into the checkpoint",
                cut.0, low.0
            )));
        }
        let carried = checkpoint.map_or(&[][..], Checkpoint::pending);
        let past = buffer.between(low, cut);
        let analysis = Self::analyze(
            carried.iter().chain(past),
            checkpoint.map_or(0, Checkpoint::seq_horizon),
        );
        let mut tail: Vec<(u64, &LogRecord)> = carried
            .iter()
            .chain(past)
            .filter(|record| record.kind.is_data_change())
            .filter_map(|record| Some((*analysis.committed.get(&record.txn)?, record)))
            .collect();
        // Stable: a transaction's records keep their log order.
        tail.sort_by_key(|&(seq, _)| seq);
        let mut records: Vec<LogRecord> = checkpoint.map_or_else(Vec::new, |checkpoint| {
            checkpoint.rows.values().flatten().cloned().collect()
        });
        records.extend(tail.into_iter().map(|(_, record)| record.clone()));
        Ok(Redo {
            records,
            seq_horizon: analysis.horizon,
        })
    }

    /// The precommit path's share of checkpointing: a counter compare, and
    /// for the one committer per interval whose swap resets the counter, a
    /// wake-up of the `log-checkpointer` thread (spawned here the first
    /// time). No committer ever builds; with
    /// [`DurabilityConfig::checkpoint_interval`] = 0 the thread never exists.
    pub(crate) fn maybe_checkpoint(&self) {
        let interval = self.durability.checkpoint_interval;
        if interval == 0
            || self.records_since_checkpoint.load(Ordering::Relaxed) < interval
            || self.records_since_checkpoint.swap(0, Ordering::Relaxed) < interval
        {
            return;
        }
        let mut thread = self.checkpointer_thread.lock();
        if thread.is_none() {
            // Spawning fails only when the OS refuses a thread, which is
            // fatal here as it is for `std::thread::spawn`.
            let checkpointer = Arc::clone(&self.checkpointer);
            *thread = Some(
                std::thread::Builder::new()
                    .name(CHECKPOINTER_THREAD.into())
                    .spawn(move || checkpointer.run())
                    .expect("spawn log-checkpointer"),
            );
        }
        drop(thread);
        self.checkpointer.wake.lock().requested += 1;
        self.checkpointer.wake_cond.notify_all();
    }

    /// Takes a fuzzy checkpoint now, on the calling thread: the synchronous
    /// form of the body the `log-checkpointer` thread runs, serialised with
    /// it by the checkpoint mutex (benchmarks and tests).
    pub fn take_checkpoint(&self) {
        self.records_since_checkpoint.store(0, Ordering::Relaxed);
        self.checkpointer.build();
    }

    /// The latest fuzzy checkpoint, if one has been taken — shared, not
    /// copied. Waits for every build already requested by an interval
    /// crossing (and for one in progress: the checkpoint mutex is held for a
    /// whole build), so a caller that saw the crossing sees its checkpoint.
    pub fn checkpoint_snapshot(&self) -> Option<Arc<Checkpoint>> {
        let mut wake = self.checkpointer.wake.lock();
        while wake.served < wake.requested {
            self.checkpointer.wake_cond.wait(&mut wake);
        }
        drop(wake);
        self.checkpointer.current.lock().clone()
    }

    /// What checkpointing has cost so far: builds, their duration, and the
    /// longest the builder held the log's `records` mutex — the only moment a
    /// build stands in a committer's way.
    pub fn checkpoint_stats(&self) -> CheckpointStats {
        self.checkpointer.stats.lock().clone()
    }

    /// Every retained record past `low_water`, in LSN order: the tail
    /// recovery analyses past a checkpoint.
    pub fn records_after(&self, low_water: Lsn) -> Vec<LogRecord> {
        self.log
            .records
            .lock()
            .between(low_water, Lsn(u64::MAX))
            .to_vec()
    }

    /// A point-in-time copy of the *retained* records, in LSN order
    /// (checkpoint reclamation may have truncated a prefix). Diagnostics and
    /// tests (the crash-prefix property test reads commit positions); not a
    /// hot path.
    pub fn records_snapshot(&self) -> Vec<LogRecord> {
        self.log.records.lock().buffered.clone()
    }

    /// Forgets per-transaction bookkeeping for a finished transaction.
    pub(crate) fn forget(&self, txn: TxnId) {
        self.log.last_lsn_per_txn.lock().remove(&txn);
    }
}

impl Drop for LogManager {
    fn drop(&mut self) {
        self.watchdog_stop.store(true, Ordering::Release);
        if let Some(handle) = self.watchdog.lock().take() {
            let _ = handle.join();
        }
        // The builder reads the log: it goes before the daemon shuts down. It
        // owns no reference to the database, so this is never a self-join.
        if let Some(handle) = self.checkpointer_thread.lock().take() {
            self.checkpointer.wake.lock().shutdown = true;
            self.checkpointer.wake_cond.notify_all();
            let _ = handle.join();
        }
        self.log.shutdown();
    }
}

/// The log watchdog main loop: detect a flush horizon that stopped advancing
/// while a write is claimed — by a committer or the daemon — or callbacks are
/// queued, and nudge the sleepers awake. A free claim with an empty queue is
/// an idle log, never a stall. A nudge is deliberately just a condvar
/// broadcast — it cannot *unstick* a writer sleeping inside an injected
/// stall, but it recovers lost-wakeup shapes and, crucially, makes the stall
/// observable ([`CounterKind::WatchdogNudges`]) instead of silent.
fn run_watchdog(log: Arc<LogCore>, stop: Arc<AtomicBool>) {
    let mut last_horizon = 0;
    while !stop.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_micros(500));
        let horizon = log.flushed_lsn.load(Ordering::Acquire);
        let outstanding =
            log.claimed.load(Ordering::Acquire) || !log.queue.lock().pending.is_empty();
        if horizon == last_horizon && outstanding && !log.failed.load(Ordering::Acquire) {
            incr(CounterKind::WatchdogNudges);
            log.work_cond.notify_all();
            drop(log.followers.lock());
            log.durable_cond.notify_all();
        }
        last_horizon = horizon;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn insert_record(table: u32, page: u32, slot: u16, after: Vec<u8>) -> LogRecordKind {
        LogRecordKind::Insert {
            table: TableId(table),
            rid: Rid::new(page, slot),
            after,
        }
    }

    #[test]
    fn lsns_are_monotonic_and_chained_per_txn() {
        let log = LogManager::new(0);
        let a1 = log.append(TxnId(1), LogRecordKind::Begin);
        let b1 = log.append(TxnId(2), LogRecordKind::Begin);
        let a2 = log.append(TxnId(1), insert_record(1, 0, 0, vec![1]));
        assert!(a1 < b1 && b1 < a2);
        let undo = log.records_for_undo(TxnId(1));
        assert_eq!(undo.len(), 2);
        assert_eq!(undo[0].lsn, a2);
        assert_eq!(undo[0].prev_lsn, a1);
        assert_eq!(undo[1].prev_lsn, Lsn(0));
    }

    #[test]
    fn records_for_undo_skips_other_transactions() {
        let log = LogManager::new(0);
        // Interleave records of three transactions; each chain walk must
        // touch only its own records (and never scan the whole log).
        for round in 0..10u64 {
            for txn in 1..=3u64 {
                log.append(
                    TxnId(txn),
                    LogRecordKind::Update {
                        table: TableId(1),
                        rid: Rid::new(0, round as u16),
                        before: vec![txn as u8],
                        after: vec![round as u8],
                    },
                );
            }
        }
        for txn in 1..=3u64 {
            let undo = log.records_for_undo(TxnId(txn));
            assert_eq!(undo.len(), 10);
            assert!(undo.iter().all(|r| r.txn == TxnId(txn)));
            assert!(undo.windows(2).all(|w| w[0].lsn > w[1].lsn));
        }
        assert!(log.records_for_undo(TxnId(99)).is_empty());
    }

    /// The records recovery would replay behind `cut`.
    fn redo(log: &LogManager, cut: Option<Lsn>) -> Vec<LogRecord> {
        log.redo(cut).unwrap().records
    }

    #[test]
    fn flush_advances_flushed_lsn() {
        let log = LogManager::new(0);
        let lsn = log.append(TxnId(1), LogRecordKind::Begin);
        assert!(log.flushed_lsn() < lsn);
        log.flush(lsn);
        assert!(log.flushed_lsn() >= lsn);
        // Second flush of the same LSN is a no-op (piggyback path).
        log.flush(lsn);
    }

    #[test]
    fn redo_excludes_uncommitted_and_aborted() {
        let log = LogManager::new(0);
        log.append(TxnId(1), LogRecordKind::Begin);
        log.append(TxnId(1), insert_record(1, 0, 0, vec![1]));
        log.append_commit(TxnId(1));

        log.append(TxnId(2), LogRecordKind::Begin);
        log.append(TxnId(2), insert_record(1, 0, 1, vec![2]));
        log.append(TxnId(2), LogRecordKind::Abort);

        log.append(TxnId(3), LogRecordKind::Begin);
        log.append(TxnId(3), insert_record(1, 0, 2, vec![3]));

        let committed = log.redo(None).unwrap();
        assert_eq!(committed.seq_horizon, 1);
        assert_eq!(committed.records.len(), 1);
        assert_eq!(committed.records[0].txn, TxnId(1));
    }

    #[test]
    fn prefix_excludes_commits_past_the_crash_point() {
        let log = LogManager::new(0);
        log.append(TxnId(1), insert_record(1, 0, 0, vec![1]));
        let (_, commit1) = log.append_commit(TxnId(1));
        log.append(TxnId(2), insert_record(1, 0, 1, vec![2]));
        log.append_commit(TxnId(2));
        // Crash right after txn 1's commit record: txn 2's insert is in the
        // prefix but its commit record is not — it must not be replayed.
        let prefix = redo(&log, Some(commit1));
        assert_eq!(prefix.len(), 1);
        assert_eq!(prefix[0].txn, TxnId(1));
        assert_eq!(redo(&log, None).len(), 2);
    }

    /// Four threads commit concurrently, each commit one data record followed
    /// by its commit record. Sequences are drawn under the mutex that assigns
    /// LSNs, so they strictly increase with LSN, and recovery cut at any
    /// commit record's LSN returns that transaction's data.
    #[test]
    fn every_commit_inside_a_log_prefix_is_recovered() {
        const THREADS: u64 = 4;
        const COMMITS: u64 = 20_000;
        let log = Arc::new(LogManager::new(0));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    for i in 0..COMMITS {
                        let txn = TxnId(1 + t * COMMITS + i);
                        log.append(txn, insert_record(1, t as u32, i as u16, vec![t as u8]));
                        log.append_commit(txn);
                        log.forget(txn);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let records = log.records_snapshot();
        let commits: Vec<(Lsn, u64, TxnId)> = records
            .iter()
            .filter_map(|record| match record.kind {
                LogRecordKind::Commit { seq } => Some((record.lsn, seq, record.txn)),
                _ => None,
            })
            .collect();
        assert_eq!(commits.len() as u64, THREADS * COMMITS);
        for (n, &(lsn, seq, txn)) in commits.iter().enumerate() {
            assert_eq!(
                seq,
                n as u64 + 1,
                "{txn}: commit record at {lsn:?} is out of sequence order"
            );
        }
        // Each cut replays the transactions committed inside it, this one
        // last. Every cut in the busy start of the run, then a sample: each
        // redo reads the whole prefix.
        let cuts = commits.iter().take(64);
        for &(lsn, seq, txn) in cuts
            .chain(commits.iter().step_by(4_999))
            .chain(commits.last())
        {
            let redo = log.redo(Some(lsn)).unwrap();
            assert_eq!(redo.seq_horizon, seq, "cut at {lsn:?}");
            assert_eq!(redo.records.len() as u64, seq, "cut at {lsn:?}");
            assert_eq!(
                redo.records.last().map(|record| record.txn),
                Some(txn),
                "the cut at {txn}'s own commit record ({lsn:?}) must recover it"
            );
        }
    }

    #[test]
    fn simulated_flush_latency_is_applied() {
        let log = LogManager::new(200);
        let lsn = log.append(TxnId(1), LogRecordKind::Begin);
        let start = Instant::now();
        log.flush(lsn);
        assert!(start.elapsed() >= Duration::from_micros(200));
    }

    #[test]
    fn group_flusher_batches_concurrent_commits() {
        let log = Arc::new(LogManager::new(100));
        let threads = 8;
        let commits_each = 5;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    for _ in 0..commits_each {
                        let lsn = log.append(TxnId(t + 1), LogRecordKind::Begin);
                        log.flush(lsn);
                        assert!(log.flushed_lsn() >= lsn);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let sizes = log.flush_group_sizes();
        // Commits that found their LSN already hardened by an earlier
        // group's horizon never enqueue (the piggyback fast path), so the
        // histogram covers at most — and usually fewer than — all commits.
        assert!(sizes.count() >= 1);
        assert!(
            sizes.total() <= threads * commits_each,
            "never more grouped commits than commits"
        );
    }

    #[test]
    fn submit_commit_fires_after_every_fence_is_durable() {
        let log = Arc::new(LogManager::new(50));
        let done = Arc::new((Mutex::new(0usize), Condvar::new()));
        let count = 4;
        for t in 0..count {
            let txn = TxnId(t as u64 + 1);
            log.append(txn, insert_record(1, 0, t as u16, vec![t as u8]));
            let (_, lsn) = log.append_commit(txn);
            let done = Arc::clone(&done);
            let log2 = Arc::clone(&log);
            log.submit_commit(
                lsn,
                Box::new(move |durable| {
                    assert!(durable, "no faults configured, so every commit hardens");
                    assert!(
                        log2.flushed_lsn() >= lsn,
                        "callback must run only after the commit record is durable"
                    );
                    let mut n = done.0.lock();
                    *n += 1;
                    done.1.notify_all();
                }),
            );
        }
        let mut n = done.0.lock();
        while *n < count {
            done.1.wait(&mut n);
        }
        assert!(log.flusher_spawned(), "queued callbacks need the daemon");
    }

    #[test]
    fn concurrent_appends_have_unique_lsns() {
        let log = Arc::new(LogManager::new(0));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    (0..500)
                        .map(|_| log.append(TxnId(t + 1), LogRecordKind::Begin))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all = Vec::new();
        for handle in handles {
            all.extend(handle.join().unwrap());
        }
        let unique: HashSet<_> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len());
    }

    #[test]
    fn checkpoint_folds_committed_history_to_net_effects() {
        let log = LogManager::new(0);
        // Txn 1 inserts a row; txn 2 updates it; txn 3 inserts and deletes
        // another; txn 4 is still in flight at checkpoint time.
        log.append(TxnId(1), insert_record(1, 0, 0, vec![1]));
        log.append_commit(TxnId(1));
        log.append(
            TxnId(2),
            LogRecordKind::Update {
                table: TableId(1),
                rid: Rid::new(0, 0),
                before: vec![1],
                after: vec![9],
            },
        );
        log.append_commit(TxnId(2));
        log.append(TxnId(3), insert_record(1, 0, 1, vec![3]));
        log.append(
            TxnId(3),
            LogRecordKind::Delete {
                table: TableId(1),
                rid: Rid::new(0, 1),
                before: vec![3],
            },
        );
        log.append_commit(TxnId(3));
        log.append(TxnId(4), insert_record(1, 0, 2, vec![4]));

        // Txns 1–3 are finished (the database calls `forget` when a
        // transaction commits or aborts); txn 4 is still live.
        for txn in 1..=3 {
            log.forget(TxnId(txn));
        }

        log.take_checkpoint();
        let checkpoint = log.checkpoint_snapshot().expect("checkpoint taken");
        assert_eq!(checkpoint.seq_horizon(), 3);
        // The cut is the reclaim floor: it stops below live txn 4's record
        // (lsn 8), which stays in the log where its undo chain can reach it.
        assert_eq!(checkpoint.low_water(), Lsn(log.len() as u64 - 1));
        // Insert+update folded to one insert of the final image; txn 3's
        // insert+delete cancelled out entirely. Recovery replays exactly that
        // (txn 4 has not committed).
        assert_eq!(checkpoint.row_count(), 1);
        let rows = redo(&log, None);
        assert_eq!(rows.len(), 1);
        match &rows[0].kind {
            LogRecordKind::Insert { after, .. } => assert_eq!(after, &vec![9]),
            other => panic!("expected folded insert, got {other:?}"),
        }
        // Txn 4 is undecided: its record is past the cut, not lost.
        assert!(checkpoint.pending().is_empty());
        let tail = log.records_after(checkpoint.low_water());
        assert!(tail.iter().any(|r| r.txn == TxnId(4)));

        // Reclamation moved the folded prefix out — everything up to the
        // cut. LSNs and totals are unaffected.
        assert_eq!(log.reclaimed_records(), 7);
        assert_eq!(log.retained_records(), 1);
        assert_eq!(log.len(), 8, "len() reports the full appended history");
        let undo = log.records_for_undo(TxnId(4));
        assert_eq!(undo.len(), 1, "live undo chain survives reclamation");
        // A cut below the low-water mark asks for records that now exist
        // only folded into the checkpoint.
        assert!(matches!(
            log.redo(Some(Lsn(6))),
            Err(DbError::InvalidOperation(_))
        ));

        // Txn 4 commits after the checkpoint: the folded row, then its
        // insert from the tail past the low-water mark — unless the crash
        // cut sits right at the mark.
        let (seq, lsn) = log.append_commit(TxnId(4));
        assert_eq!(seq, 4);
        assert_eq!(lsn, Lsn(9), "LSNs stay dense across reclamation");
        let replayed = log.redo(None).unwrap();
        assert_eq!(replayed.seq_horizon, 4);
        assert_eq!(replayed.records.len(), 2);
        assert_eq!(replayed.records[1].txn, TxnId(4));
        let at_the_mark = log.redo(Some(checkpoint.low_water())).unwrap();
        assert_eq!(at_the_mark.seq_horizon, 3);
        assert_eq!(at_the_mark.records.len(), 1);
    }

    #[test]
    fn maybe_checkpoint_respects_the_interval() {
        let durability = DurabilityConfig {
            checkpoint_interval: 4,
            ..DurabilityConfig::default()
        };
        let log = LogManager::with_durability(0, durability);
        log.append(TxnId(1), insert_record(1, 0, 0, vec![1]));
        log.maybe_checkpoint();
        assert!(log.checkpoint_snapshot().is_none(), "below the interval");
        for slot in 1..4u16 {
            log.append(TxnId(1), insert_record(1, 0, slot, vec![1]));
        }
        log.maybe_checkpoint();
        assert!(log.checkpoint_snapshot().is_some(), "interval reached");

        let disabled = LogManager::new(0);
        disabled.append(TxnId(1), insert_record(1, 0, 0, vec![1]));
        disabled.maybe_checkpoint();
        assert!(
            disabled.checkpoint_snapshot().is_none(),
            "interval 0 disables checkpointing"
        );
    }

    fn faulty_log(config: FaultConfig) -> (Arc<FaultPlan>, LogManager) {
        let faults = Arc::new(FaultPlan::new(config));
        let log = LogManager::with_faults(10, DurabilityConfig::default(), Arc::clone(&faults));
        (faults, log)
    }

    /// Appends a one-insert transaction and its commit record; returns the
    /// commit record's LSN.
    fn commit_one(log: &LogManager, t: u64) -> Lsn {
        let txn = TxnId(t);
        log.append(txn, insert_record(1, 0, t as u16, vec![t as u8]));
        log.append_commit(txn).1
    }

    #[test]
    fn transient_write_errors_retry_until_the_group_hardens() {
        let (faults, log) = faulty_log(FaultConfig {
            seed: 7,
            device_error_rate: 0.4,
            max_write_retries: 16,
            retry_backoff_micros: 5,
            ..FaultConfig::default()
        });
        for t in 1..=20u64 {
            assert!(
                log.flush(commit_one(&log, t)),
                "retries must ride out transient write errors"
            );
        }
        assert!(!log.failed());
        assert!(
            faults.draws(FaultSite::DeviceWriteError) > 0,
            "error decisions were actually drawn"
        );
    }

    #[test]
    fn exhausted_retries_lose_durability_for_good() {
        let (_, log) = faulty_log(FaultConfig {
            device_error_rate: 1.0,
            max_write_retries: 2,
            retry_backoff_micros: 1,
            ..FaultConfig::default()
        });
        assert!(
            !log.flush(commit_one(&log, 1)),
            "a log past its retry budget must report durability lost"
        );
        assert!(log.failed());

        // Later commits fast-fail through the callback path too.
        let lsn = commit_one(&log, 2);
        let heard = Arc::new((Mutex::new(None::<bool>), Condvar::new()));
        let heard2 = Arc::clone(&heard);
        log.submit_commit(
            lsn,
            Box::new(move |durable| {
                *heard2.0.lock() = Some(durable);
                heard2.1.notify_all();
            }),
        );
        let mut answer = heard.0.lock();
        while answer.is_none() {
            heard.1.wait(&mut answer);
        }
        assert_eq!(*answer, Some(false), "a dead log must not fake durability");
    }

    #[test]
    fn panicking_durability_callback_leaves_the_flusher_alive() {
        silence_injected_panics();
        let before = dora_metrics::global().snapshot();
        let log = LogManager::new(10);
        log.submit_commit(
            commit_one(&log, 1),
            Box::new(|_| std::panic::panic_any(InjectedPanic)),
        );
        // The flusher must survive the client's panic and harden later
        // commits on the very same thread.
        assert!(log.flush(commit_one(&log, 2)), "flusher survived the panic");
        // The panicking callback runs on the flusher thread; txn2's commit
        // hardening does not order after txn1's callback having been
        // *counted*, so poll instead of snapshotting once.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let delta = dora_metrics::global().snapshot().since(&before);
            if delta.counter(CounterKind::CallbackPanics) >= 1 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "the swallowed panic must be counted"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn watchdog_nudges_a_stalled_flusher() {
        let before = dora_metrics::global().snapshot();
        let (_, log) = faulty_log(FaultConfig {
            flusher_stall_rate: 1.0,
            flusher_stall_micros: 20_000,
            ..FaultConfig::default()
        });
        assert!(
            log.flush(commit_one(&log, 1)),
            "a stall delays, never fails"
        );
        // The nudge is counted on the watchdog thread; on a loaded host the
        // stall can expire on its own before the watchdog's count lands, so
        // poll — and keep fresh stalled work in front of the watchdog while
        // waiting (every batch stalls at rate 1.0, so a nudge must arrive).
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut next_txn = 2u64;
        loop {
            let delta = dora_metrics::global().snapshot().since(&before);
            if delta.counter(CounterKind::WatchdogNudges) >= 1 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "the watchdog must notice a horizon that stopped advancing"
            );
            log.flush(commit_one(&log, next_txn));
            next_txn += 1;
        }
    }

    #[test]
    fn same_seed_reproduces_the_same_fault_draws() {
        let run = |seed: u64| {
            let (faults, log) = faulty_log(FaultConfig {
                seed,
                device_error_rate: 0.3,
                retry_backoff_micros: 1,
                ..FaultConfig::default()
            });
            for t in 1..=30u64 {
                log.flush(commit_one(&log, t));
            }
            (faults.draws(FaultSite::DeviceWriteError), log.failed())
        };
        assert_eq!(run(11), run(11), "same seed, same schedule, same fate");
    }
}
