//! ARIES-style write-ahead logging, partitioned into per-executor streams
//! with leader/follower group commit.
//!
//! The log is sharded into [`DurabilityConfig::log_streams`] independent
//! streams. Stream 0 serves unbound threads (baseline workers, clients and
//! secondary actions); DORA executors bind to the remaining streams
//! round-robin ([`with_executor_log_stream`]). Each stream assigns its own
//! dense, stream-local LSNs, buffers records in memory (the paper keeps the
//! log on an in-memory file system), and forms its *own* commit groups on
//! its own simulated device — so commit batching parallelizes across
//! streams instead of serializing behind one mutex (the log manager is the
//! last centralized structure the paper calls out in Section 5.4).
//!
//! Cross-stream ordering is recovered from a cheap global **commit
//! sequence**: at precommit a transaction draws the next sequence number
//! (while its locks are still held, so dependents always draw larger
//! numbers) and appends a **commit fence** carrying that sequence and the
//! full list of streams it touched to *every* one of those streams.
//! Recovery ([`LogManager::redo`]) treats a transaction as committed iff all
//! of its streams contain the fence *and* every smaller sequence number is
//! also fully fenced within the surviving prefixes (the maximal
//! sequence-dense prefix). The density
//! requirement is what makes early lock release safe across streams: a
//! dependent's after-images never replay without the transaction it read
//! from. The flip side — shared with every multi-log design that
//! acknowledges commits at per-stream durability rather than at a global
//! durable horizon — is that a crash can discard a fenced transaction
//! whose concurrently-sequenced neighbour was torn.
//!
//! One durability path per stream, and the thread that waits drives it. A
//! stream's device takes one write at a time, and a write hardens everything
//! appended before it starts, so the group forms by itself from whatever
//! arrived during the previous write:
//!
//! * A committer that must **block** ([`LogManager::flush`],
//!   [`LogManager::flush_fences`]) takes the stream's flush claim if it is
//!   free and performs the device write itself — the *leader*; nobody is
//!   woken to start the write and nobody to report it. One that finds the
//!   claim held is a *follower*: it returns as soon as a leader's horizon
//!   covers its LSN, and otherwise takes the claim when it frees
//!   (yield-polling for about one device latency, then parking).
//! * A commit **nobody blocks on** ([`LogManager::submit_commit`], which
//!   fires a callback once *every* touched stream's fence is durable) is
//!   queued for whoever hardens it next, and the stream's `log-flusher-N`
//!   daemon — spawned by the first such commit — makes sure somebody does,
//!   by the same leader/follower rule.
//!
//! The log manager also takes **fuzzy checkpoints**: the committed history
//! is folded into a net-effect snapshot per `(table, rid)` plus per-stream
//! low-water LSNs, and moved out of the log. Recovery ([`LogManager::redo`])
//! therefore always starts from the latest checkpoint, bulk-applies it and
//! replays only the tail past it — O(tail), not O(history) — and a cut
//! below a low-water mark asks for records that no longer exist. A
//! checkpoint is background work:
//!
//! * *Who builds.* The precommit path ([`LogManager::maybe_checkpoint`])
//!   compares a counter; the one committer per
//!   [`DurabilityConfig::checkpoint_interval`] records that resets it wakes
//!   the `log-checkpointer` thread (spawned at the first crossing, joined on
//!   drop) and goes on. No committer ever builds.
//!   [`LogManager::take_checkpoint`] runs the same body on its caller.
//! * *The cut.* Each stream is cut at its **floor** — just below the first
//!   buffered record of a transaction that has neither committed nor aborted,
//!   whose undo chain must stay in the buffer — and the prefix below the floor
//!   is *moved* out of the stream (`LogStream::cut`): the stream's `records`
//!   mutex is held for O(live transactions + records past the floor), with no
//!   allocation, no copy of the prefix and no drop under it. The floor is the
//!   checkpoint's low-water mark, so log space is reclaimed by the cut itself.
//! * *The fold.* The moved records and the previous checkpoint's undecided
//!   ones are analysed, the committed data changes are ordered by commit
//!   sequence with one stable sort and folded **into the previous checkpoint
//!   in place**; the rest is dropped or carried. O(interval) work, whatever
//!   the size of the database.
//! * *Consistency.* The checkpoint mutex is held from before the first move
//!   until the checkpoint is complete. Recovery reads checkpoint and log
//!   under it and therefore finds every record in exactly one of the two.

use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use dora_common::prelude::*;
use dora_metrics::{incr, incr_by, record_time, CounterKind, TimeCategory, ValueHistogram};

/// Log sequence number, local to one stream (dense from 1 per stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lsn(pub u64);

/// Identifier of a log stream (index into the partitioned log).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct StreamId(pub usize);

thread_local! {
    /// The log stream the current thread appends to (`None` = stream 0).
    static BOUND_STREAM: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Runs `f` with the calling thread bound to `stream`, restoring the
/// previous binding afterwards (unwinding included): every record `f`
/// appends goes to that stream (clamped to the stream count of whichever log
/// it appends to). A DORA executor is a role any thread may hold for the
/// length of a batch, and whoever runs the batch appends to that executor's
/// stream; unbound threads — baseline workers, clients, secondary actions —
/// use stream 0, the dedicated baseline stream.
pub fn with_executor_log_stream<R>(stream: StreamId, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            BOUND_STREAM.with(|bound| bound.set(self.0));
        }
    }
    let _restore = Restore(BOUND_STREAM.with(|bound| bound.replace(Some(stream.0))));
    f()
}

/// The stream the calling thread is bound to, if any.
pub fn bound_log_stream() -> Option<StreamId> {
    BOUND_STREAM.with(|bound| bound.get().map(StreamId))
}

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
    /// Transaction commit fence. Written to *every* stream the transaction
    /// touched; recovery honours it only when all copies survive and the
    /// sequence prefix below `seq` is dense.
    Commit {
        /// Global commit-order sequence (dense from 1; drawn while the
        /// transaction's locks are still held, so dependents order after
        /// their writers).
        seq: u64,
        /// Every stream the transaction wrote (each holds one fence copy).
        streams: Vec<StreamId>,
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
    pub fn row_key(&self) -> Option<(TableId, Rid)> {
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
    /// This record's stream-local LSN.
    pub lsn: Lsn,
    /// The stream the record was appended to.
    pub stream: StreamId,
    /// Owning transaction.
    pub txn: TxnId,
    /// Previous LSN written by the same transaction *on the same stream*
    /// ([`Lsn`] 0 if none): the backward chain rollback walks.
    pub prev_lsn: Lsn,
    /// Payload.
    pub kind: LogRecordKind,
}

/// Completion callback fired once a submitted commit fence's fate is decided:
/// `true` means durable, `false` means the stream's device writes failed past
/// the retry budget and this commit can never harden (durability lost). Runs
/// on whichever thread hardens the fence — a committer leading the stream's
/// device write, or the stream's daemon — or inline on the submitter when the
/// fate is already known; must not block on the log.
pub type DurableCallback = Box<dyn FnOnce(bool) + Send + 'static>;

/// One commit fence nobody blocks on, waiting for its completion callback.
struct PendingCommit {
    lsn: Lsn,
    callback: DurableCallback,
}

/// The callbacks of a stream, shared between submitters, leaders and the
/// daemon.
#[derive(Default)]
struct FlusherQueue {
    pending: Vec<PendingCommit>,
    shutdown: bool,
    /// The daemon is asleep on `work_cond`. Submitters notify only then:
    /// std's futex condvar makes a system call per notify even with nobody
    /// waiting, and a daemon that is awake looks at the queue again anyway.
    parked: bool,
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

/// Deadline-polls for `duration` (see [`LogStream::device_write_once`] for
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

/// One stream's in-memory record buffer with a reclaimable prefix.
///
/// LSNs are stable identities, the buffer is not: fuzzy checkpoints may
/// truncate an already-folded prefix, after which the record with LSN `n`
/// lives at buffered index `n - 1 - base`. `base` counts the truncated
/// records, so `total()` keeps reporting the full appended history and LSN
/// assignment stays dense across reclamation.
#[derive(Default)]
struct StreamBuffer {
    /// Records reclaimed (truncated) off the front at checkpoints.
    base: u64,
    /// The retained suffix, in LSN order.
    buffered: Vec<LogRecord>,
    /// Commit fences ever appended: read together with `total()` by whoever
    /// starts a device write, so every fence is counted in exactly one group.
    fences: u64,
}

impl StreamBuffer {
    /// Total records ever appended to this stream (reclaimed + retained).
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
    /// Clamping to the base
    /// is exact for the *latest* checkpoint's low-water mark only — a build
    /// moves the records between an older mark and the base into the
    /// checkpoint — which is why recovery reads both under the checkpoint
    /// mutex.
    fn between(&self, low: Lsn, cut: Lsn) -> &[LogRecord] {
        let index = |lsn: Lsn| (lsn.0.saturating_sub(self.base) as usize).min(self.buffered.len());
        &self.buffered[index(low)..index(cut)]
    }
}

/// One partition of the log: its record buffer and LSN space, its durable
/// horizon and flush claim, and the daemon that serves the callbacks nobody
/// blocks on.
///
/// Like a DORA executor, the flusher is a role, not a thread. The stream has
/// one device, so one write is in flight at a time, and whoever holds the
/// `claimed` flag performs it ([`Self::write_group`]): a committer that must
/// block for durability and finds the claim free (the *leader*), or the
/// `log-flusher-N` daemon on behalf of queued callbacks. A committer that
/// finds the claim held is a *follower*: the write in flight covers its LSN,
/// or it leads the next one.
struct LogStream {
    id: StreamId,
    /// This stream's records in LSN order, behind a reclaimable prefix
    /// (LSNs are assigned under this mutex).
    records: Mutex<StreamBuffer>,
    /// Per-transaction backward chain heads, for this stream only.
    last_lsn_per_txn: Mutex<HashMap<TxnId, Lsn>>,
    /// Highest LSN known durable. Written by the claim holder only.
    flushed_lsn: AtomicU64,
    /// The flush claim.
    claimed: AtomicBool,
    /// Commit fences counted into a flush group so far (claim holder only).
    fences_hardened: AtomicU64,
    /// Threads inside [`Self::flush`] — with the queued callbacks, the size
    /// of the group forming behind the current write.
    committers: AtomicUsize,
    /// Followers asleep on `durable_cond`; the claim holder broadcasts at
    /// release only when there are any.
    parked: Mutex<usize>,
    durable_cond: Condvar,
    queue: Mutex<FlusherQueue>,
    work_cond: Condvar,
    /// Simulated log-device latency per write.
    flush_latency: Duration,
    durability: DurabilityConfig,
    /// Commit fences hardened per device write.
    group_sizes: Mutex<ValueHistogram>,
    /// The deterministic fault schedule device writes draw from.
    faults: Arc<FaultPlan>,
    /// Set once this stream's device writes failed past the retry budget:
    /// nothing on this stream will ever harden again, and every current and
    /// future durability wait resolves to "lost".
    failed: AtomicBool,
    /// The `log-flusher-N` daemon, spawned lazily by the first callback
    /// that has to queue and joined on drop.
    flusher: Mutex<Option<JoinHandle<()>>>,
}

impl LogStream {
    fn new(
        id: StreamId,
        flush_latency_micros: u64,
        durability: DurabilityConfig,
        faults: Arc<FaultPlan>,
    ) -> Self {
        Self {
            id,
            records: Mutex::new(StreamBuffer::default()),
            last_lsn_per_txn: Mutex::new(HashMap::new()),
            flushed_lsn: AtomicU64::new(0),
            claimed: AtomicBool::new(false),
            fences_hardened: AtomicU64::new(0),
            committers: AtomicUsize::new(0),
            parked: Mutex::new(0),
            durable_cond: Condvar::new(),
            queue: Mutex::new(FlusherQueue::default()),
            work_cond: Condvar::new(),
            flush_latency: Duration::from_micros(flush_latency_micros),
            durability,
            group_sizes: Mutex::new(ValueHistogram::new()),
            faults,
            failed: AtomicBool::new(false),
            flusher: Mutex::new(None),
        }
    }

    /// Appends a record for `txn`, returning its stream-local LSN.
    fn append(&self, txn: TxnId, kind: LogRecordKind) -> Lsn {
        let mut records = self.records.lock();
        let lsn = Lsn(records.total() + 1);
        if matches!(kind, LogRecordKind::Commit { .. }) {
            records.fences += 1;
        }
        let prev_lsn = {
            let mut last = self.last_lsn_per_txn.lock();
            last.insert(txn, lsn).unwrap_or(Lsn(0))
        };
        records.buffered.push(LogRecord {
            lsn,
            stream: self.id,
            txn,
            prev_lsn,
            kind,
        });
        drop(records);
        incr(CounterKind::LogRecords);
        lsn
    }

    /// Simulates the log-device write latency. Deadline-polling rather than
    /// sleep — sleeping rounds up to scheduler granularity and would
    /// distort the microsecond-scale latencies we are simulating — but
    /// yielding inside the loop, because a device write is I/O, not
    /// compute: while one stream's write is in flight, other streams'
    /// writers and the executors feeding them must keep running even when
    /// hardware contexts are scarce. On an idle core the yield returns
    /// immediately, preserving accuracy.
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
    /// declare this stream's durability lost. With `max_write_retries == 0`
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

    /// Blocks until this stream is durable up to (at least) `lsn`; `false`
    /// means durability was lost for good before `lsn` hardened. The caller
    /// drives the log itself: it takes the flush claim if it is free and
    /// performs the device write (no wake in either direction); otherwise it
    /// follows — it returns once a holder's horizon covers `lsn`, and takes
    /// the claim when it frees, yield-polling for about one device latency
    /// before it parks. `led` says the caller is a committer, not the daemon.
    fn flush(&self, lsn: Lsn, led: bool) -> bool {
        if self.flushed_lsn.load(Ordering::Acquire) >= lsn.0 {
            return true;
        }
        self.committers.fetch_add(1, Ordering::Relaxed);
        let poll_until = Instant::now() + self.flush_latency;
        let durable = loop {
            if self.flushed_lsn.load(Ordering::Acquire) >= lsn.0 {
                break true;
            }
            if self.failed.load(Ordering::Acquire) {
                break false;
            }
            if self.try_claim() {
                self.write_group(lsn, led);
            } else if Instant::now() < poll_until {
                std::thread::yield_now();
            } else {
                self.park(lsn);
            }
        };
        self.committers.fetch_sub(1, Ordering::Relaxed);
        durable
    }

    /// Sleeps until the claim holder lets go. The conditions are re-read
    /// under the mutex the holder takes, after it has published them, to
    /// look for sleepers — so the wake-up cannot be lost.
    fn park(&self, lsn: Lsn) {
        let mut parked = self.parked.lock();
        *parked += 1;
        if self.flushed_lsn.load(Ordering::Acquire) < lsn.0
            && self.claimed.load(Ordering::Acquire)
            && !self.failed.load(Ordering::Acquire)
        {
            self.durable_cond.wait(&mut parked);
        }
        *parked -= 1;
    }

    /// One device write by the claim holder, for everything appended so far
    /// (at least up to `target`): wait out the group window unless the group
    /// is already full, write, publish the new durable horizon (or the
    /// stream's failure), release the claim, wake parked followers, and fire
    /// the queued callbacks the write decided.
    fn write_group(&self, target: Lsn, led: bool) {
        let window = Duration::from_micros(self.durability.group_window_micros);
        if !window.is_zero() {
            let deadline = Instant::now() + window;
            let full = self.durability.max_group_size.max(1);
            while self.committers.load(Ordering::Relaxed) + self.queue.lock().pending.len() < full {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                std::thread::sleep((deadline - now).min(Duration::from_micros(200)));
            }
        }
        if self.faults.enabled() && self.faults.should_inject(FaultSite::FlusherStall) {
            incr(CounterKind::FaultsInjected);
            std::thread::sleep(Duration::from_micros(
                self.faults.config().flusher_stall_micros,
            ));
        }
        // A test holding the site keeps everything appended so far undurable.
        self.faults.park_while_held(FaultSite::FlusherStall);
        let (horizon, fences) = {
            let records = self.records.lock();
            (records.total().max(target.0), records.fences)
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
            let counted = self.fences_hardened.swap(fences, Ordering::Relaxed);
            self.group_sizes.lock().record(fences - counted);
            self.flushed_lsn.fetch_max(horizon, Ordering::AcqRel);
        } else {
            self.failed.store(true, Ordering::Release);
        }
        self.claimed.store(false, Ordering::Release);
        if *self.parked.lock() > 0 {
            self.durable_cond.notify_all();
        }
        self.fire_decided();
    }

    /// Fires every queued callback whose fate is known: its fence is under
    /// the durable horizon, or the stream has failed.
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
    /// newest queued fence the way a committer would — lead the write, or
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
                    queue.parked = true;
                    self.work_cond.wait(&mut queue);
                    queue.parked = false;
                }
            };
            self.flush(target, false);
            // A callback queued after a leader had looked at the queue,
            // for a fence that leader's write covered, is still there.
            self.fire_decided();
        }
    }

    /// Registers `callback` to fire once this stream is durable up to `lsn`
    /// — or once that can never happen — without blocking the caller: the
    /// fence is queued for whoever hardens it next, and the daemon is woken
    /// to make sure somebody does. Already-durable LSNs and already-failed
    /// streams complete inline on the calling thread.
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
                let stream = Arc::clone(self);
                *flusher = Some(
                    std::thread::Builder::new()
                        .name(format!("log-flusher-{}", self.id.0))
                        .spawn(move || stream.run_flusher())
                        .expect("spawn log-flusher"),
                );
            }
        }
        let mut queue = self.queue.lock();
        queue.pending.push(PendingCommit { lsn, callback });
        let wake = queue.parked;
        drop(queue);
        if wake {
            self.work_cond.notify_one();
        }
    }

    fn flushed_lsn(&self) -> Lsn {
        Lsn(self.flushed_lsn.load(Ordering::Acquire))
    }

    /// The checkpoint cut of this stream: *moves* the records below the
    /// floor out of the log and hands them to the builder, with the floor and
    /// how long the `records` mutex was held. The floor is the last record
    /// below the first buffered record of any *live* transaction (one still
    /// in `last_lsn_per_txn`, i.e. not yet committed or aborted), found by
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
            // database, so this drop chain may run ON a flusher thread.
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
/// fence landing after the low-water mark loses nothing).
///
/// `Clone` exists for the builder's [`Arc::make_mut`] alone: it copies the
/// previous checkpoint only while a reader still holds it.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Per-stream cut: this checkpoint covers records with LSN ≤
    /// `low_water[stream]`; recovery replays only the tail past it.
    low_water: Vec<Lsn>,
    /// Commit sequences ≤ this are folded into `rows`.
    seq_horizon: u64,
    /// Net effect per row, as the minimal record list replay must apply
    /// (usually one record; two for delete-then-reinsert slot reuse).
    rows: HashMap<(TableId, Rid), Vec<LogRecord>>,
    /// Records (below the low-water marks) of transactions neither
    /// committed ≤ `seq_horizon` nor aborted at build time.
    pending: Vec<LogRecord>,
}

impl Checkpoint {
    /// Per-stream LSNs this checkpoint's folded state already covers.
    pub fn low_water(&self) -> &[Lsn] {
        &self.low_water
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
    /// checkpoint's horizon extended over the dense run of fully fenced
    /// transactions past it.
    pub seq_horizon: u64,
}

/// Result of scanning a candidate record set for commit fences: which
/// transactions are committed (fully fenced with a dense sequence prefix),
/// the new sequence horizon, and which transactions aborted.
struct Analysis {
    /// Transaction → its commit sequence, for every transaction whose
    /// fences all survive and whose sequence is ≤ `horizon`.
    committed: HashMap<TxnId, u64>,
    /// Largest `c` such that every sequence in `(base, c]` belongs to a
    /// fully fenced transaction in the candidate set.
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
    /// The longest single hold of a stream's `records` mutex by a build.
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
    streams: Vec<Arc<LogStream>>,
    /// The latest checkpoint. Held for a whole build — from before the first
    /// record leaves a stream until the checkpoint that holds it is complete
    /// — which serialises builds and makes checkpoint + log one consistent
    /// read for whoever holds it. No committer ever takes it.
    current: Mutex<Option<Arc<Checkpoint>>>,
    stats: Mutex<CheckpointStats>,
    faults: Arc<FaultPlan>,
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
    /// place. The cut is *fuzzy* — each stream is cut at its own floor
    /// ([`LogStream::cut`]) when visited — which is safe because undecided
    /// transactions' records are carried in `pending` and re-examined next
    /// time. The work is O(interval): nothing is copied but the cut, and
    /// every record dropped is dropped here, outside any stream's mutex.
    fn build(&self) {
        let started = Instant::now();
        let mut current = self.current.lock();
        let checkpoint = Arc::make_mut(current.get_or_insert_with(|| {
            Arc::new(Checkpoint {
                low_water: vec![Lsn(0); self.streams.len()],
                seq_horizon: 0,
                rows: HashMap::new(),
                pending: Vec::new(),
            })
        }));
        let mut chunks = vec![std::mem::take(&mut checkpoint.pending)];
        let mut lock_hold = Duration::ZERO;
        for (stream, low) in self.streams.iter().zip(&mut checkpoint.low_water) {
            let (floor, records, held) = stream.cut();
            *low = floor;
            chunks.push(records);
            lock_hold = lock_hold.max(held);
        }
        if self.faults.park_while_held(FaultSite::CheckpointStall) {
            incr(CounterKind::FaultsInjected);
        }
        let analysis = LogManager::analyze(chunks.iter().flatten(), checkpoint.seq_horizon);
        let mut committed: Vec<(u64, LogRecord)> = Vec::new();
        for record in chunks.into_iter().flatten() {
            if let Some(&seq) = analysis.committed.get(&record.txn) {
                if record.kind.is_data_change() {
                    committed.push((seq, record));
                }
            } else if !analysis.aborted.contains(&record.txn) {
                checkpoint.pending.push(record);
            }
        }
        // Commit-sequence order; stable, and the chunks are in log order per
        // stream, so a transaction's records keep their log position.
        committed.sort_by_key(|&(seq, _)| seq);
        let folded = committed.len() as u64;
        for (_, record) in committed {
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

/// The partitioned write-ahead log.
pub struct LogManager {
    streams: Vec<Arc<LogStream>>,
    /// Next global commit sequence − 1 (sequences are dense from 1).
    commit_seq: AtomicU64,
    /// The checkpoint, its builder's state and statistics — shared with the
    /// `log-checkpointer` thread.
    checkpointer: Arc<Checkpointer>,
    /// The `log-checkpointer` thread, spawned by the first interval crossing
    /// and joined on drop.
    checkpointer_thread: Mutex<Option<JoinHandle<()>>>,
    /// Records appended since the last interval crossing.
    records_since_checkpoint: AtomicU64,
    durability: DurabilityConfig,
    /// The deterministic fault schedule all streams draw from.
    faults: Arc<FaultPlan>,
    /// Tells the watchdog thread to exit.
    watchdog_stop: Arc<AtomicBool>,
    /// The `log-watchdog` thread, spawned only when faults are enabled under
    /// group commit; joined on drop.
    watchdog: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for LogManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogManager")
            .field("streams", &self.streams.len())
            .field("commit_seq", &self.commit_seq.load(Ordering::Relaxed))
            .finish()
    }
}

impl LogManager {
    /// Creates a log manager whose device writes take `flush_latency_micros`
    /// simulated microseconds, with the default [`DurabilityConfig`]
    /// (asynchronous group commit, a single stream).
    pub fn new(flush_latency_micros: u64) -> Self {
        Self::with_durability(flush_latency_micros, DurabilityConfig::default())
    }

    /// Creates a log manager with explicit durability knobs;
    /// [`DurabilityConfig::log_streams`] sets the partition count.
    pub fn with_durability(flush_latency_micros: u64, durability: DurabilityConfig) -> Self {
        Self::with_faults(
            flush_latency_micros,
            durability,
            Arc::new(FaultPlan::disabled()),
        )
    }

    /// [`Self::with_durability`] plus a live fault schedule shared by every
    /// stream's simulated device. When the plan can fire, a `log-watchdog`
    /// thread is also spawned: it samples each stream's flush horizon and,
    /// when a stream has a write claimed or callbacks queued but a horizon
    /// that stopped advancing, re-nudges the stream's condvars (and counts
    /// the nudge) — the safety net against a stalled or wakeup-starved
    /// writer wedging every committer behind it.
    pub fn with_faults(
        flush_latency_micros: u64,
        durability: DurabilityConfig,
        faults: Arc<FaultPlan>,
    ) -> Self {
        let count = durability.log_streams.max(1);
        let streams: Vec<Arc<LogStream>> = (0..count)
            .map(|s| {
                Arc::new(LogStream::new(
                    StreamId(s),
                    flush_latency_micros,
                    durability.clone(),
                    Arc::clone(&faults),
                ))
            })
            .collect();
        let watchdog_stop = Arc::new(AtomicBool::new(false));
        let watchdog = if faults.enabled() {
            let watched = streams.clone();
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
            commit_seq: AtomicU64::new(0),
            checkpointer: Arc::new(Checkpointer {
                streams: streams.clone(),
                current: Mutex::new(None),
                stats: Mutex::new(CheckpointStats::default()),
                faults: Arc::clone(&faults),
                wake: Mutex::new(Wake::default()),
                wake_cond: Condvar::new(),
            }),
            checkpointer_thread: Mutex::new(None),
            records_since_checkpoint: AtomicU64::new(0),
            streams,
            durability,
            faults,
            watchdog_stop,
            watchdog: Mutex::new(watchdog),
        }
    }

    /// The fault schedule this log's devices draw from.
    pub fn faults(&self) -> &Arc<FaultPlan> {
        &self.faults
    }

    /// `true` if any stream's durability has been lost for good.
    pub fn any_stream_failed(&self) -> bool {
        self.streams
            .iter()
            .any(|s| s.failed.load(Ordering::Acquire))
    }

    /// The durability knobs this log runs with.
    pub fn durability(&self) -> &DurabilityConfig {
        &self.durability
    }

    /// Number of log streams.
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// The stream serving executor number `index` (spawn order across all
    /// tables): round-robin over streams 1.., keeping stream 0 as the
    /// dedicated baseline/unbound stream — unless there is only one.
    pub fn executor_stream(&self, index: usize) -> StreamId {
        let count = self.streams.len();
        if count <= 1 {
            StreamId(0)
        } else {
            StreamId(1 + index % (count - 1))
        }
    }

    /// The stream the calling thread appends to.
    fn current_stream(&self) -> &LogStream {
        let bound = bound_log_stream().map_or(0, |stream| stream.0);
        &self.streams[bound % self.streams.len()]
    }

    /// Appends a record for `txn` to the calling thread's stream, returning
    /// where it landed. Per stream, the in-memory log is always a dense,
    /// LSN-ordered sequence (record `n` at index `n - 1`).
    pub fn append(&self, txn: TxnId, kind: LogRecordKind) -> (StreamId, Lsn) {
        let stream = self.current_stream();
        let lsn = stream.append(txn, kind);
        self.records_since_checkpoint
            .fetch_add(1, Ordering::Relaxed);
        (stream.id, lsn)
    }

    /// Draws the next global commit sequence and appends one commit fence
    /// (carrying the sequence and the full `touched` list) to every touched
    /// stream. Must be called while the transaction's locks are still held,
    /// so dependents draw strictly larger sequences. Returns the sequence
    /// and the per-stream fence LSNs the commit must flush.
    pub fn append_commit_fences(
        &self,
        txn: TxnId,
        touched: &[StreamId],
    ) -> (u64, Vec<(StreamId, Lsn)>) {
        let seq = self.commit_seq.fetch_add(1, Ordering::AcqRel) + 1;
        let mut streams: Vec<StreamId> = touched.to_vec();
        streams.sort_unstable();
        streams.dedup();
        let mut fences = Vec::with_capacity(streams.len());
        for &stream in &streams {
            let lsn = self.stream(stream).append(
                txn,
                LogRecordKind::Commit {
                    seq,
                    streams: streams.clone(),
                },
            );
            self.records_since_checkpoint
                .fetch_add(1, Ordering::Relaxed);
            incr(CounterKind::CommitFences);
            fences.push((stream, lsn));
        }
        (seq, fences)
    }

    fn stream(&self, stream: StreamId) -> &Arc<LogStream> {
        &self.streams[stream.0 % self.streams.len()]
    }

    /// Blocks until `stream` is durable up to (at least) `lsn`; `false`
    /// means the stream's durability was lost for good first.
    ///
    /// The calling thread drives the log: if nobody is writing the stream's
    /// device it performs the write itself, for everything appended so far,
    /// and wakes nobody on the way in or out; if somebody is, it follows —
    /// that write covers `lsn`, or the caller leads the next one. Threads
    /// that find their LSN already flushed return immediately.
    pub fn flush(&self, stream: StreamId, lsn: Lsn) -> bool {
        self.stream(stream).flush(lsn, true)
    }

    /// Flushes every fence of a commit (the multi-stream commit wait). The
    /// caller leads one stream's write itself; the fences on the other
    /// streams are first handed to those streams' daemons, so all the device
    /// writes overlap and a commit that fenced N streams waits for the
    /// slowest of them, not for N writes back to back. Returns `false` if
    /// any touched stream lost durability before its fence hardened — the
    /// commit is then a ghost and must surface [`DbError::DurabilityLost`].
    pub fn flush_fences(&self, fences: &[(StreamId, Lsn)]) -> bool {
        let Some((&(own, own_lsn), others)) = fences.split_last() else {
            return true;
        };
        for &(stream, lsn) in others {
            self.stream(stream).submit_commit(lsn, Box::new(|_| {}));
        }
        let mut ok = self.stream(own).flush(own_lsn, true);
        for &(stream, lsn) in others {
            ok &= self.stream(stream).flush(lsn, true);
        }
        ok
    }

    /// Registers `callback` to fire once *every* fence in `fences` is
    /// durable, without blocking the caller — the commit path of a
    /// transaction nobody waits on ([`Database::commit_async`]). The
    /// callback runs on whichever thread hardens the last fence: a stream's
    /// daemon, a committer that led a write covering it, or the caller
    /// itself if every fence is already durable.
    ///
    /// [`Database::commit_async`]: crate::Database::commit_async
    pub fn submit_commit(&self, fences: Vec<(StreamId, Lsn)>, callback: DurableCallback) {
        match fences.len() {
            0 => callback(true),
            1 => {
                let (stream, lsn) = fences[0];
                self.stream(stream).submit_commit(lsn, callback);
            }
            count => {
                let remaining = Arc::new(AtomicU64::new(count as u64));
                let all_durable = Arc::new(AtomicBool::new(true));
                let shared = Arc::new(Mutex::new(Some(callback)));
                for (stream, lsn) in fences {
                    let remaining = Arc::clone(&remaining);
                    let all_durable = Arc::clone(&all_durable);
                    let shared = Arc::clone(&shared);
                    self.stream(stream).submit_commit(
                        lsn,
                        Box::new(move |durable| {
                            if !durable {
                                all_durable.store(false, Ordering::Release);
                            }
                            if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                                if let Some(callback) = shared.lock().take() {
                                    callback(all_durable.load(Ordering::Acquire));
                                }
                            }
                        }),
                    );
                }
            }
        }
    }

    /// Highest LSN known to be flushed on `stream`.
    pub fn flushed_lsn(&self, stream: StreamId) -> Lsn {
        self.stream(stream).flushed_lsn()
    }

    /// Flush-group sizes observed so far across all streams: commit fences
    /// hardened per device write, whoever performed it. Every fence is
    /// counted in exactly one group.
    pub fn flush_group_sizes(&self) -> ValueHistogram {
        let mut merged = ValueHistogram::new();
        for stream in &self.streams {
            merged.merge(&stream.group_sizes.lock());
        }
        merged
    }

    /// Per-stream durability statistics (record counts, durable horizons,
    /// flush-group histograms) for reporting.
    pub fn stream_stats(&self) -> Vec<StreamStats> {
        self.streams
            .iter()
            .map(|stream| {
                let buffer = stream.records.lock();
                StreamStats {
                    stream: stream.id,
                    records: buffer.total() as usize,
                    reclaimed: buffer.base,
                    flushed_lsn: stream.flushed_lsn(),
                    group_sizes: stream.group_sizes.lock().clone(),
                    daemon_spawned: stream.flusher.lock().is_some(),
                }
            })
            .collect()
    }

    /// Total records appended across all streams — the full history,
    /// including any prefix already reclaimed at checkpoints (LSNs are
    /// stable, so a truncation never shrinks this).
    pub fn len(&self) -> usize {
        self.streams
            .iter()
            .map(|s| s.records.lock().total() as usize)
            .sum()
    }

    /// `true` if nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records truncated off stream prefixes by checkpoint reclamation.
    pub fn reclaimed_records(&self) -> u64 {
        self.streams.iter().map(|s| s.records.lock().base).sum()
    }

    /// Records currently held in memory (the retained suffixes).
    pub fn retained_records(&self) -> usize {
        self.streams
            .iter()
            .map(|s| s.records.lock().buffered.len())
            .sum()
    }

    /// Current length of each stream, as the cut vector that covers the
    /// whole log right now.
    pub fn stream_lens(&self) -> Vec<Lsn> {
        self.streams
            .iter()
            .map(|s| Lsn(s.records.lock().total()))
            .collect()
    }

    /// Returns the records of `txn` in undo order: per stream, the
    /// transaction's `prev_lsn` chain walked backwards from its last record
    /// — O(records of `txn`), not a full-log scan. Streams are concatenated;
    /// within a transaction each row is written via a single executor and
    /// therefore a single stream, so cross-stream undo order is immaterial.
    pub fn records_for_undo(&self, txn: TxnId) -> Vec<LogRecord> {
        let mut chain = Vec::new();
        for stream in &self.streams {
            let last = stream
                .last_lsn_per_txn
                .lock()
                .get(&txn)
                .copied()
                .unwrap_or(Lsn(0));
            let records = stream.records.lock();
            let mut cursor = last;
            while cursor.0 != 0 {
                // Reclamation never truncates past the first record of a
                // live transaction, so the whole chain is still buffered.
                let record = &records.buffered[records.index_of(cursor)];
                debug_assert_eq!(record.txn, txn, "prev_lsn chain crossed transactions");
                cursor = record.prev_lsn;
                chain.push(record.clone());
            }
        }
        chain
    }

    /// Scans `candidates` for commit fences and aborts, extending the dense
    /// sequence horizon upward from `base_horizon`.
    fn analyze<'a>(
        candidates: impl IntoIterator<Item = &'a LogRecord>,
        base_horizon: u64,
    ) -> Analysis {
        struct Fence {
            seq: u64,
            required: usize,
            seen: usize,
        }
        let mut fences: HashMap<TxnId, Fence> = HashMap::new();
        let mut aborted = HashSet::new();
        for record in candidates {
            match &record.kind {
                LogRecordKind::Commit { seq, streams } => {
                    let fence = fences.entry(record.txn).or_insert(Fence {
                        seq: *seq,
                        required: streams.len(),
                        seen: 0,
                    });
                    fence.seen += 1;
                }
                LogRecordKind::Abort => {
                    aborted.insert(record.txn);
                }
                _ => {}
            }
        }
        let mut fenced: Vec<(u64, TxnId)> = fences
            .iter()
            .filter(|(_, fence)| fence.seen >= fence.required)
            .map(|(txn, fence)| (fence.seq, *txn))
            .collect();
        fenced.sort_unstable();
        let mut horizon = base_horizon;
        let mut committed = HashMap::new();
        for (seq, txn) in fenced {
            if seq == horizon + 1 {
                horizon = seq;
                committed.insert(txn, seq);
            } else if seq > horizon + 1 {
                break;
            }
        }
        Analysis {
            committed,
            horizon,
            aborted,
        }
    }

    /// What recovery replays — the one analysis behind
    /// [`Database::recover_into`] and `recover_prefixes_into`: the latest
    /// checkpoint's net-effect rows plus the data changes of every
    /// transaction recovered from its carried records and the log tail past
    /// its low-water marks — with each stream cut at `cuts[s]` if given
    /// (what survives a crash that lost everything past the cut; streams
    /// past the end of `cuts` keep everything). A transaction is recovered
    /// iff all its commit fences survive and every smaller sequence is also
    /// recovered. Checkpoint and log are read once, under the checkpoint
    /// mutex, so a concurrent build can move no record out of sight; only
    /// the replayed records are cloned.
    ///
    /// A cut below a stream's low-water mark is an error: the records between
    /// the cut and the mark exist only folded into the checkpoint, so the
    /// state at that cut can no longer be rebuilt.
    ///
    /// [`Database::recover_into`]: crate::Database::recover_into
    pub fn redo(&self, cuts: Option<&[Lsn]>) -> DbResult<Redo> {
        let current = self.checkpointer.current.lock();
        let checkpoint = current.as_deref();
        // Every stream lock, in stream order: whoever writes a stream's
        // device only ever locks that stream, so no cycle.
        let buffers: Vec<_> = self
            .streams
            .iter()
            .map(|stream| stream.records.lock())
            .collect();
        let mut candidates: Vec<&LogRecord> =
            checkpoint.map_or_else(Vec::new, |checkpoint| checkpoint.pending.iter().collect());
        for (s, buffer) in buffers.iter().enumerate() {
            let low = checkpoint.map_or(Lsn(0), |checkpoint| checkpoint.low_water[s]);
            let cut = cuts
                .and_then(|cuts| cuts.get(s))
                .copied()
                .unwrap_or(Lsn(u64::MAX));
            if cut < low {
                return Err(DbError::InvalidOperation(format!(
                    "cut {} of stream {s} is below its low-water mark {}: the records \
                     between are folded into the checkpoint",
                    cut.0, low.0
                )));
            }
            candidates.extend(buffer.between(low, cut));
        }
        let analysis = Self::analyze(
            candidates.iter().copied(),
            checkpoint.map_or(0, Checkpoint::seq_horizon),
        );
        let mut tail: Vec<(u64, &LogRecord)> = candidates
            .into_iter()
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
    pub fn maybe_checkpoint(&self) {
        let interval = self.durability.checkpoint_interval;
        if interval == 0
            || self.records_since_checkpoint.load(Ordering::Relaxed) < interval
            || self.records_since_checkpoint.swap(0, Ordering::Relaxed) < interval
        {
            return;
        }
        let mut thread = self.checkpointer_thread.lock();
        if thread.is_none() {
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
    /// longest the builder held any stream's `records` mutex — the only
    /// moment a build stands in a committer's way.
    pub fn checkpoint_stats(&self) -> CheckpointStats {
        self.checkpointer.stats.lock().clone()
    }

    /// Every record past the per-stream `low_water` marks, stream-major
    /// (per-stream append order preserved): the tail recovery analyses past
    /// a checkpoint.
    pub fn records_after(&self, low_water: &[Lsn]) -> Vec<LogRecord> {
        let mut out = Vec::new();
        for (s, stream) in self.streams.iter().enumerate() {
            let records = stream.records.lock();
            let from = low_water.get(s).copied().unwrap_or(Lsn(0));
            out.extend_from_slice(records.between(from, Lsn(u64::MAX)));
        }
        out
    }

    /// A point-in-time copy of each stream's *retained* records, in LSN
    /// order (checkpoint reclamation may have truncated a prefix).
    /// Diagnostics and tests (the crash-prefix property test inspects
    /// fence positions); not a hot path.
    pub fn records_snapshot(&self) -> Vec<Vec<LogRecord>> {
        self.streams
            .iter()
            .map(|stream| stream.records.lock().buffered.clone())
            .collect()
    }

    /// Forgets per-transaction bookkeeping for a finished transaction.
    pub fn forget(&self, txn: TxnId) {
        for stream in &self.streams {
            stream.last_lsn_per_txn.lock().remove(&txn);
        }
    }
}

/// Point-in-time durability statistics of one log stream.
#[derive(Debug, Clone)]
pub struct StreamStats {
    /// Which stream.
    pub stream: StreamId,
    /// Records appended so far (full history, including any reclaimed
    /// prefix).
    pub records: usize,
    /// Records truncated off the front by checkpoint reclamation.
    pub reclaimed: u64,
    /// Durable horizon.
    pub flushed_lsn: Lsn,
    /// Flush-group size histogram of this stream's device writes.
    pub group_sizes: ValueHistogram,
    /// Whether the stream's `log-flusher-N` daemon was ever needed (a
    /// callback had to queue); blocking committers alone never spawn it.
    pub daemon_spawned: bool,
}

impl Drop for LogManager {
    fn drop(&mut self) {
        self.watchdog_stop.store(true, Ordering::Release);
        if let Some(handle) = self.watchdog.lock().take() {
            let _ = handle.join();
        }
        // The builder reads the streams: it goes before they shut down. It
        // owns no reference to the database, so this is never a self-join.
        if let Some(handle) = self.checkpointer_thread.lock().take() {
            self.checkpointer.wake.lock().shutdown = true;
            self.checkpointer.wake_cond.notify_all();
            let _ = handle.join();
        }
        for stream in &self.streams {
            stream.shutdown();
        }
    }
}

/// The log watchdog main loop: detect streams whose flush horizon stopped
/// advancing while a write is claimed — by a committer or the daemon — or
/// callbacks are queued, and nudge their sleepers awake. A free claim with an
/// empty queue is an idle stream, never a stall. A nudge is deliberately just
/// a condvar broadcast — it cannot *unstick* a writer sleeping inside an
/// injected stall, but it recovers lost-wakeup shapes and, crucially, makes
/// the stall observable ([`CounterKind::WatchdogNudges`]) instead of silent.
fn run_watchdog(streams: Vec<Arc<LogStream>>, stop: Arc<AtomicBool>) {
    let mut last_horizon: Vec<u64> = vec![0; streams.len()];
    while !stop.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_micros(500));
        for (i, stream) in streams.iter().enumerate() {
            let horizon = stream.flushed_lsn.load(Ordering::Acquire);
            let outstanding =
                stream.claimed.load(Ordering::Acquire) || !stream.queue.lock().pending.is_empty();
            let stalled =
                horizon == last_horizon[i] && outstanding && !stream.failed.load(Ordering::Acquire);
            if stalled {
                incr(CounterKind::WatchdogNudges);
                stream.work_cond.notify_all();
                let _parked = stream.parked.lock();
                stream.durable_cond.notify_all();
            }
            last_horizon[i] = horizon;
        }
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

    fn streams_config(streams: usize) -> DurabilityConfig {
        DurabilityConfig::default().with_log_streams(streams)
    }

    #[test]
    fn lsns_are_monotonic_and_chained_per_txn() {
        let log = LogManager::new(0);
        let (_, a1) = log.append(TxnId(1), LogRecordKind::Begin);
        let (_, b1) = log.append(TxnId(2), LogRecordKind::Begin);
        let (stream, a2) = log.append(TxnId(1), insert_record(1, 0, 0, vec![1]));
        assert_eq!(stream, StreamId(0), "unbound threads use stream 0");
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

    #[test]
    fn bound_threads_append_to_their_stream() {
        let log = Arc::new(LogManager::with_durability(0, streams_config(3)));
        let handles: Vec<_> = (0..3)
            .map(|s| {
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    with_executor_log_stream(StreamId(s), || {
                        assert_eq!(bound_log_stream(), Some(StreamId(s)));
                        let (stream, _) = log.append(TxnId(s as u64 + 1), LogRecordKind::Begin);
                        assert_eq!(stream, StreamId(s));
                        let (stream, _) =
                            log.append(TxnId(s as u64 + 1), insert_record(1, 0, s as u16, vec![1]));
                        assert_eq!(stream, StreamId(s));
                    });
                    assert_eq!(bound_log_stream(), None, "the binding is scoped");
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        // Per-stream LSNs are dense from 1; undo chains span streams.
        for snapshot in log.records_snapshot() {
            for (i, record) in snapshot.iter().enumerate() {
                assert_eq!(record.lsn, Lsn(i as u64 + 1));
            }
        }
        assert_eq!(log.len(), 6);
    }

    #[test]
    fn records_for_undo_spans_streams() {
        let log = Arc::new(LogManager::with_durability(0, streams_config(2)));
        log.append(TxnId(1), insert_record(1, 0, 0, vec![1]));
        let log2 = Arc::clone(&log);
        std::thread::spawn(move || {
            with_executor_log_stream(StreamId(1), || {
                log2.append(TxnId(1), insert_record(1, 0, 1, vec![2]))
            });
        })
        .join()
        .unwrap();
        let undo = log.records_for_undo(TxnId(1));
        assert_eq!(undo.len(), 2);
        let streams: HashSet<StreamId> = undo.iter().map(|r| r.stream).collect();
        assert_eq!(streams.len(), 2, "undo must cover both streams");
    }

    #[test]
    fn executor_stream_round_robins_past_the_baseline_stream() {
        let single = LogManager::with_durability(0, streams_config(1));
        assert_eq!(single.executor_stream(0), StreamId(0));
        assert_eq!(single.executor_stream(7), StreamId(0));
        let sharded = LogManager::with_durability(0, streams_config(3));
        assert_eq!(sharded.executor_stream(0), StreamId(1));
        assert_eq!(sharded.executor_stream(1), StreamId(2));
        assert_eq!(sharded.executor_stream(2), StreamId(1));
        assert!(
            (0..16).all(|k| sharded.executor_stream(k) != StreamId(0)),
            "stream 0 is reserved for unbound threads"
        );
    }

    /// The records recovery would replay behind `cuts`.
    fn redo(log: &LogManager, cuts: Option<&[Lsn]>) -> Vec<LogRecord> {
        log.redo(cuts).unwrap().records
    }

    #[test]
    fn flush_advances_flushed_lsn() {
        for streams in [1usize, 2] {
            let log = LogManager::with_durability(0, streams_config(streams));
            let (stream, lsn) = log.append(TxnId(1), LogRecordKind::Begin);
            assert!(log.flushed_lsn(stream) < lsn);
            log.flush(stream, lsn);
            assert!(log.flushed_lsn(stream) >= lsn);
            // Second flush of the same LSN is a no-op (piggyback path).
            log.flush(stream, lsn);
        }
    }

    #[test]
    fn redo_excludes_uncommitted_and_aborted() {
        let log = LogManager::new(0);
        log.append(TxnId(1), LogRecordKind::Begin);
        log.append(TxnId(1), insert_record(1, 0, 0, vec![1]));
        log.append_commit_fences(TxnId(1), &[StreamId(0)]);

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
    fn torn_fence_on_any_stream_discards_the_transaction() {
        let log = LogManager::with_durability(0, streams_config(2));
        // Txn 1 writes on stream 0 and fences both streams (as if it had
        // touched rows owned by an executor on stream 1 too).
        log.append(TxnId(1), insert_record(1, 0, 0, vec![1]));
        let (seq1, fences1) = log.append_commit_fences(TxnId(1), &[StreamId(0), StreamId(1)]);
        assert_eq!(seq1, 1);
        assert_eq!(fences1.len(), 2);
        // Txn 2 writes and fences only stream 0.
        log.append(TxnId(2), insert_record(1, 0, 1, vec![2]));
        let (seq2, _) = log.append_commit_fences(TxnId(2), &[StreamId(0)]);
        assert_eq!(seq2, 2);

        // Cut stream 1 to zero: txn 1's second fence is torn. Txn 1 must
        // not replay — and neither may txn 2, whose sequence sits past the
        // hole (it could depend on txn 1 via early lock release).
        let torn = redo(&log, Some(&[Lsn(4), Lsn(0)]));
        assert!(
            torn.is_empty(),
            "a torn fence and everything sequenced after it must vanish"
        );

        // With both streams intact, both transactions replay, ordered by
        // commit sequence.
        let full = redo(&log, None);
        assert_eq!(full.len(), 2);
        assert_eq!(full[0].txn, TxnId(1));
        assert_eq!(full[1].txn, TxnId(2));
    }

    #[test]
    fn prefix_excludes_commits_past_the_crash_point() {
        let log = LogManager::new(0);
        log.append(TxnId(1), insert_record(1, 0, 0, vec![1]));
        let (_, fences1) = log.append_commit_fences(TxnId(1), &[StreamId(0)]);
        log.append(TxnId(2), insert_record(1, 0, 1, vec![2]));
        log.append_commit_fences(TxnId(2), &[StreamId(0)]);
        // Crash right after txn 1's fence: txn 2's insert is in the prefix
        // but its fence is not — it must not be replayed.
        let commit1 = fences1[0].1;
        let prefix = redo(&log, Some(&[commit1]));
        assert_eq!(prefix.len(), 1);
        assert_eq!(prefix[0].txn, TxnId(1));
        assert_eq!(redo(&log, None).len(), 2);
    }

    #[test]
    fn simulated_flush_latency_is_applied() {
        let log = LogManager::new(200);
        let (stream, lsn) = log.append(TxnId(1), LogRecordKind::Begin);
        let start = Instant::now();
        log.flush(stream, lsn);
        assert!(start.elapsed() >= Duration::from_micros(200));
    }

    #[test]
    fn group_flusher_batches_concurrent_commits() {
        let log = Arc::new(LogManager::with_durability(100, streams_config(1)));
        let threads = 8;
        let commits_each = 5;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    for _ in 0..commits_each {
                        let (stream, lsn) = log.append(TxnId(t + 1), LogRecordKind::Begin);
                        log.flush(stream, lsn);
                        assert!(log.flushed_lsn(stream) >= lsn);
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
        let log = Arc::new(LogManager::with_durability(50, streams_config(2)));
        let done = Arc::new((Mutex::new(0usize), Condvar::new()));
        let count = 4;
        for t in 0..count {
            let txn = TxnId(t as u64 + 1);
            log.append(txn, insert_record(1, 0, t as u16, vec![t as u8]));
            let (_, fences) = log.append_commit_fences(txn, &[StreamId(0), StreamId(1)]);
            assert_eq!(fences.len(), 2);
            let done = Arc::clone(&done);
            let log2 = Arc::clone(&log);
            let check = fences.clone();
            log.submit_commit(
                fences,
                Box::new(move |durable| {
                    assert!(durable, "no faults configured, so every fence hardens");
                    for &(stream, lsn) in &check {
                        assert!(
                            log2.flushed_lsn(stream) >= lsn,
                            "callback must run only after every fence is durable"
                        );
                    }
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
    }

    #[test]
    fn group_window_holds_the_first_commit_for_the_group() {
        let durability = DurabilityConfig {
            group_window_micros: 20_000,
            ..DurabilityConfig::default()
        };
        let log = LogManager::with_durability(0, durability);
        let (stream, lsn) = log.append(TxnId(1), LogRecordKind::Begin);
        let start = Instant::now();
        log.flush(stream, lsn);
        assert!(
            start.elapsed() >= Duration::from_micros(15_000),
            "a lone commit must wait out (most of) the group window"
        );
    }

    #[test]
    fn concurrent_appends_have_unique_lsns() {
        let log = Arc::new(LogManager::new(0));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    (0..500)
                        .map(|_| log.append(TxnId(t + 1), LogRecordKind::Begin).1)
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
        log.append_commit_fences(TxnId(1), &[StreamId(0)]);
        log.append(
            TxnId(2),
            LogRecordKind::Update {
                table: TableId(1),
                rid: Rid::new(0, 0),
                before: vec![1],
                after: vec![9],
            },
        );
        log.append_commit_fences(TxnId(2), &[StreamId(0)]);
        log.append(TxnId(3), insert_record(1, 0, 1, vec![3]));
        log.append(
            TxnId(3),
            LogRecordKind::Delete {
                table: TableId(1),
                rid: Rid::new(0, 1),
                before: vec![3],
            },
        );
        log.append_commit_fences(TxnId(3), &[StreamId(0)]);
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
        assert_eq!(checkpoint.low_water(), &[Lsn(log.len() as u64 - 1)]);
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
            log.redo(Some(&[Lsn(6)])),
            Err(DbError::InvalidOperation(_))
        ));

        // Txn 4 commits after the checkpoint: the folded row, then its
        // insert from the tail past the low-water mark — unless the crash
        // cut sits right at the mark.
        let (_, fences) = log.append_commit_fences(TxnId(4), &[StreamId(0)]);
        assert_eq!(fences.len(), 1);
        assert_eq!(fences[0].1, Lsn(9), "LSNs stay dense across reclamation");
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

    fn faulty_log(
        config: FaultConfig,
        durability: DurabilityConfig,
    ) -> (Arc<FaultPlan>, LogManager) {
        let faults = Arc::new(FaultPlan::new(config));
        let log = LogManager::with_faults(10, durability, Arc::clone(&faults));
        (faults, log)
    }

    #[test]
    fn transient_write_errors_retry_until_the_group_hardens() {
        let (faults, log) = faulty_log(
            FaultConfig {
                seed: 7,
                device_error_rate: 0.4,
                max_write_retries: 16,
                retry_backoff_micros: 5,
                ..FaultConfig::default()
            },
            streams_config(1),
        );
        for t in 1..=20u64 {
            let txn = TxnId(t);
            log.append(txn, insert_record(1, 0, t as u16, vec![t as u8]));
            let (_, fences) = log.append_commit_fences(txn, &[StreamId(0)]);
            assert!(
                log.flush_fences(&fences),
                "retries must ride out transient write errors"
            );
        }
        assert!(!log.any_stream_failed());
        assert!(
            faults.draws(FaultSite::DeviceWriteError) > 0,
            "error decisions were actually drawn"
        );
    }

    #[test]
    fn exhausted_retries_lose_durability_for_good() {
        let (_, log) = faulty_log(
            FaultConfig {
                device_error_rate: 1.0,
                max_write_retries: 2,
                retry_backoff_micros: 1,
                ..FaultConfig::default()
            },
            streams_config(1),
        );
        let txn = TxnId(1);
        log.append(txn, insert_record(1, 0, 0, vec![1]));
        let (_, fences) = log.append_commit_fences(txn, &[StreamId(0)]);
        assert!(
            !log.flush_fences(&fences),
            "a stream past its retry budget must report durability lost"
        );
        assert!(log.any_stream_failed());

        // Later commits fast-fail through the callback path too.
        let txn2 = TxnId(2);
        log.append(txn2, insert_record(1, 0, 1, vec![2]));
        let (_, fences2) = log.append_commit_fences(txn2, &[StreamId(0)]);
        let heard = Arc::new((Mutex::new(None::<bool>), Condvar::new()));
        let heard2 = Arc::clone(&heard);
        log.submit_commit(
            fences2,
            Box::new(move |durable| {
                *heard2.0.lock() = Some(durable);
                heard2.1.notify_all();
            }),
        );
        let mut answer = heard.0.lock();
        while answer.is_none() {
            heard.1.wait(&mut answer);
        }
        assert_eq!(
            *answer,
            Some(false),
            "dead streams must not fake durability"
        );
    }

    #[test]
    fn panicking_durability_callback_leaves_the_flusher_alive() {
        silence_injected_panics();
        let before = dora_metrics::global().snapshot();
        let log = LogManager::with_durability(10, streams_config(1));
        let txn = TxnId(1);
        log.append(txn, insert_record(1, 0, 0, vec![1]));
        let (_, fences) = log.append_commit_fences(txn, &[StreamId(0)]);
        log.submit_commit(fences, Box::new(|_| std::panic::panic_any(InjectedPanic)));
        // The flusher must survive the client's panic and harden later
        // commits on the very same thread.
        let txn2 = TxnId(2);
        log.append(txn2, insert_record(1, 0, 1, vec![2]));
        let (_, fences2) = log.append_commit_fences(txn2, &[StreamId(0)]);
        assert!(log.flush_fences(&fences2), "flusher survived the panic");
        // The panicking callback runs on the flusher thread; txn2's fence
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
        let (_, log) = faulty_log(
            FaultConfig {
                flusher_stall_rate: 1.0,
                flusher_stall_micros: 20_000,
                ..FaultConfig::default()
            },
            streams_config(1),
        );
        let txn = TxnId(1);
        log.append(txn, insert_record(1, 0, 0, vec![1]));
        let (_, fences) = log.append_commit_fences(txn, &[StreamId(0)]);
        assert!(log.flush_fences(&fences), "a stall delays, never fails");
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
            let txn = TxnId(next_txn);
            next_txn += 1;
            log.append(txn, insert_record(1, 0, 1, vec![2]));
            let (_, fences) = log.append_commit_fences(txn, &[StreamId(0)]);
            log.flush_fences(&fences);
        }
    }

    #[test]
    fn same_seed_reproduces_the_same_fault_draws() {
        let run = |seed: u64| {
            let (faults, log) = faulty_log(
                FaultConfig {
                    seed,
                    device_error_rate: 0.3,
                    retry_backoff_micros: 1,
                    ..FaultConfig::default()
                },
                streams_config(1),
            );
            for t in 1..=30u64 {
                let txn = TxnId(t);
                log.append(txn, insert_record(1, 0, t as u16, vec![1]));
                let (_, fences) = log.append_commit_fences(txn, &[StreamId(0)]);
                log.flush_fences(&fences);
            }
            (
                faults.draws(FaultSite::DeviceWriteError),
                log.any_stream_failed(),
            )
        };
        assert_eq!(run(11), run(11), "same seed, same schedule, same fate");
    }
}
