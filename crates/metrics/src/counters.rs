//! Event counters.

/// Kinds of counted events.
///
/// The first three mirror Figure 5 of the paper, which plots locks acquired
/// per 100 transactions split into *row-level* centralized locks,
/// *higher-level* centralized locks (intention locks on tables, pages and the
/// database) and *DORA thread-local* locks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum CounterKind {
    /// Row-level (record) locks acquired through the centralized lock manager.
    RowLevelLock = 0,
    /// Centralized locks that are not row-level: database, table and page
    /// intention locks.
    HigherLevelLock = 1,
    /// Locks acquired in DORA's thread-local lock tables.
    DoraLocalLock = 2,
    /// Transactions committed.
    TxnCommitted = 3,
    /// Transactions aborted (for any reason).
    TxnAborted = 4,
    /// Transactions aborted specifically as deadlock victims.
    DeadlockVictim = 5,
    /// DORA actions executed.
    ActionsExecuted = 6,
    /// Latch acquisitions that succeeded without spinning.
    LatchFastPath = 7,
    /// Latch acquisitions that had to spin at least once.
    LatchContended = 8,
    /// Logical lock requests that had to wait for an incompatible holder.
    LockWaits = 9,
    /// Log records appended.
    LogRecords = 10,
    /// Log-device writes performed, whoever performed them.
    LogFlushes = 11,
    /// Buffer-pool page hits.
    BufferHits = 12,
    /// Buffer-pool page misses (page had to be materialized / "read").
    BufferMisses = 13,
    /// Actions from already-aborted transactions whose execution was wasted
    /// (relevant to the Figure 11 experiment).
    WastedActions = 14,
    /// Messages exchanged between DORA threads (dispatch, RVP hand-offs and
    /// commit notifications) — the "additional inter-core communication" the
    /// appendix mentions.
    DoraMessages = 15,
    /// Routing-rule resizes completed (the drain/swap protocol of
    /// Appendix A.2.1), whether triggered manually or by the adaptive
    /// repartitioning controller.
    RoutingResizes = 16,
    /// Producer-side executor-inbox pushes: one per lock acquisition on a
    /// destination queue (a push may carry many messages).
    /// `DoraMessages / DispatchBatches` is the average producer batch size.
    DispatchBatches = 17,
    /// Consumer-side executor-inbox drains: one per batch of messages run
    /// under a claim, whoever held it (the executor's resident thread or a
    /// dispatcher). `DoraMessages / InboxDrains` is the average drain batch
    /// size.
    InboxDrains = 18,
    /// Transactions that exhausted a conventional engine's deadlock-retry
    /// budget (the `GaveUp` outcome). Kept separate from [`TxnAborted`]
    /// (workload aborts) so retry exhaustion is visible in reports.
    ///
    /// [`TxnAborted`]: CounterKind::TxnAborted
    TxnGaveUp = 19,
    /// Flush groups hardened: one per simulated device write, whoever
    /// performed it (a committer leading the log's write, or the
    /// log-flusher daemon). `LogRecords`-independent; divide the
    /// commit-record count by this for the mean flush-group size (the log
    /// manager also keeps a histogram).
    GroupCommits = 20,
    /// Transactions whose locks (centralized and DORA thread-local) were
    /// released at precommit, before their commit record was durable —
    /// early lock release in action.
    ElrEarlyReleases = 21,
    /// Fuzzy checkpoints taken by the log manager (each folds the committed
    /// history into a net-effect snapshot and advances the low-water mark
    /// that bounds recovery replay).
    CheckpointsTaken = 22,
    /// Commit records appended: one per transaction that wrote anything
    /// (read-only commits append none).
    CommitFences = 23,
    /// Transactions rejected outright by the admission controller (load
    /// shedding at saturation): never executed, reported to the client as
    /// shed.
    TxnShed = 24,
    /// Transactions the admission controller parked in its bounded queue
    /// before granting a slot (each queued admission is counted once, when
    /// it first queues).
    TxnQueued = 25,
    /// Client sessions opened against a serving front-end.
    SessionsOpened = 26,
    /// Faults fired by the deterministic injector (all sites: device write
    /// errors, latency spikes, flusher stalls, executor panics).
    FaultsInjected = 27,
    /// Log-device writes retried by a flusher after a transient failure
    /// (the self-healing capped-backoff path).
    FlushRetries = 28,
    /// Commits whose durability was lost for good: the log device's writes
    /// failed past the retry budget. With early lock release
    /// these are ghost commits — applied in memory, never durable.
    DurabilityLost = 29,
    /// Action-body panics caught by supervision, whichever thread ran the
    /// body (an executor's claim holder or the thread dispatching the
    /// phase): the owning transaction was aborted and quarantined while the
    /// thread went on.
    ExecutorPanicsRecovered = 30,
    /// Submissions that exceeded their admission deadline while queued.
    TxnTimedOut = 31,
    /// Aborted submissions re-run by the serving front-end's retry policy.
    TxnRetried = 32,
    /// Durability-callback panics swallowed (and survived) by a log flusher.
    CallbackPanics = 33,
    /// Stalled-flusher nudges issued by the log watchdog after it observed a
    /// the log's flush horizon stop advancing with work pending.
    WatchdogNudges = 34,
    /// Row versions installed in the multi-version store (one per committed
    /// write, plus the copy-on-write base version seeded the first time a
    /// bulk-loaded row is touched transactionally).
    VersionsCreated = 35,
    /// Row versions pruned by the version-chain garbage collector once no
    /// live snapshot could still read them.
    VersionsReclaimed = 36,
    /// Snapshot handles taken (each pins a commit-ticket horizon until it is
    /// dropped, bounding what the version GC may reclaim).
    SnapshotsTaken = 37,
    /// Reads served from a snapshot: point probes and scanned rows resolved
    /// against a pinned horizon with no lock-manager or local-lock-table
    /// traffic at all.
    SnapshotReads = 38,
    /// Local-lock-table probes skipped entirely because the bind-time
    /// conflict matrix proved the step's template conflicts with nothing in
    /// the workload (static conflict analysis / probe elision): one per
    /// probe-free body run, on the thread that dispatched its phase, and
    /// none for a wasted action of an aborted transaction.
    LockProbesElided = 39,
    /// Actions dispatched as *undeclared* secondary fallbacks: their step
    /// carried no routing key the bound routing fields could cover, so they
    /// ran unrouted on the submitting thread. Declared-secondary steps are
    /// intentional and not counted.
    SecondaryFallbacks = 40,
    /// Actions executed under a dispatcher-held claim: the dispatching
    /// thread found the destination executor idle and ran the batch itself
    /// instead of waking the executor's resident thread. A subset of
    /// [`ActionsExecuted`](CounterKind::ActionsExecuted).
    ActionsInlined = 41,
    /// Log-device writes performed by a committer under the log's flush
    /// claim — the thread that had to wait for the write did it, and no
    /// thread was woken for it. A subset of
    /// [`LogFlushes`](CounterKind::LogFlushes); the rest are the log-flusher
    /// daemon's, on behalf of commits nobody blocks on.
    LeaderFlushes = 42,
    /// Microseconds spent building fuzzy checkpoints, on whichever thread
    /// built them — background time, none of it on a commit path.
    CheckpointBuildMicros = 43,
    /// Microseconds a checkpoint build held the log's `records` mutex (the
    /// longest hold of each build) — the foreground stall a build can cause.
    CheckpointLockHoldMicros = 44,
}

/// Number of [`CounterKind`] variants; sizes the per-thread arrays.
pub const COUNTER_KIND_COUNT: usize = 45;

/// All counters, in `repr` order.
pub const ALL_COUNTER_KINDS: [CounterKind; COUNTER_KIND_COUNT] = [
    CounterKind::RowLevelLock,
    CounterKind::HigherLevelLock,
    CounterKind::DoraLocalLock,
    CounterKind::TxnCommitted,
    CounterKind::TxnAborted,
    CounterKind::DeadlockVictim,
    CounterKind::ActionsExecuted,
    CounterKind::LatchFastPath,
    CounterKind::LatchContended,
    CounterKind::LockWaits,
    CounterKind::LogRecords,
    CounterKind::LogFlushes,
    CounterKind::BufferHits,
    CounterKind::BufferMisses,
    CounterKind::WastedActions,
    CounterKind::DoraMessages,
    CounterKind::RoutingResizes,
    CounterKind::DispatchBatches,
    CounterKind::InboxDrains,
    CounterKind::TxnGaveUp,
    CounterKind::GroupCommits,
    CounterKind::ElrEarlyReleases,
    CounterKind::CheckpointsTaken,
    CounterKind::CommitFences,
    CounterKind::TxnShed,
    CounterKind::TxnQueued,
    CounterKind::SessionsOpened,
    CounterKind::FaultsInjected,
    CounterKind::FlushRetries,
    CounterKind::DurabilityLost,
    CounterKind::ExecutorPanicsRecovered,
    CounterKind::TxnTimedOut,
    CounterKind::TxnRetried,
    CounterKind::CallbackPanics,
    CounterKind::WatchdogNudges,
    CounterKind::VersionsCreated,
    CounterKind::VersionsReclaimed,
    CounterKind::SnapshotsTaken,
    CounterKind::SnapshotReads,
    CounterKind::LockProbesElided,
    CounterKind::SecondaryFallbacks,
    CounterKind::ActionsInlined,
    CounterKind::LeaderFlushes,
    CounterKind::CheckpointBuildMicros,
    CounterKind::CheckpointLockHoldMicros,
];

impl CounterKind {
    /// Stable index into the per-thread arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short label used by the text reports.
    pub fn label(self) -> &'static str {
        match self {
            CounterKind::RowLevelLock => "row-level-locks",
            CounterKind::HigherLevelLock => "higher-level-locks",
            CounterKind::DoraLocalLock => "dora-local-locks",
            CounterKind::TxnCommitted => "txn-committed",
            CounterKind::TxnAborted => "txn-aborted",
            CounterKind::DeadlockVictim => "deadlock-victims",
            CounterKind::ActionsExecuted => "actions-executed",
            CounterKind::LatchFastPath => "latch-fast-path",
            CounterKind::LatchContended => "latch-contended",
            CounterKind::LockWaits => "lock-waits",
            CounterKind::LogRecords => "log-records",
            CounterKind::LogFlushes => "log-flushes",
            CounterKind::BufferHits => "buffer-hits",
            CounterKind::BufferMisses => "buffer-misses",
            CounterKind::WastedActions => "wasted-actions",
            CounterKind::DoraMessages => "dora-messages",
            CounterKind::RoutingResizes => "routing-resizes",
            CounterKind::DispatchBatches => "dispatch-batches",
            CounterKind::InboxDrains => "inbox-drains",
            CounterKind::TxnGaveUp => "txn-gave-up",
            CounterKind::GroupCommits => "group-commits",
            CounterKind::ElrEarlyReleases => "elr-early-releases",
            CounterKind::CheckpointsTaken => "checkpoints-taken",
            CounterKind::CommitFences => "commit-fences",
            CounterKind::TxnShed => "txn-shed",
            CounterKind::TxnQueued => "txn-queued",
            CounterKind::SessionsOpened => "sessions-opened",
            CounterKind::FaultsInjected => "faults-injected",
            CounterKind::FlushRetries => "flush-retries",
            CounterKind::DurabilityLost => "durability-lost",
            CounterKind::ExecutorPanicsRecovered => "executor-panics-recovered",
            CounterKind::TxnTimedOut => "txn-timed-out",
            CounterKind::TxnRetried => "txn-retried",
            CounterKind::CallbackPanics => "callback-panics",
            CounterKind::WatchdogNudges => "watchdog-nudges",
            CounterKind::VersionsCreated => "versions-created",
            CounterKind::VersionsReclaimed => "versions-reclaimed",
            CounterKind::SnapshotsTaken => "snapshots-taken",
            CounterKind::SnapshotReads => "snapshot-reads",
            CounterKind::LockProbesElided => "lock-probes-elided",
            CounterKind::SecondaryFallbacks => "secondary-fallbacks",
            CounterKind::ActionsInlined => "actions-inlined",
            CounterKind::LeaderFlushes => "leader-flushes",
            CounterKind::CheckpointBuildMicros => "checkpoint-build-micros",
            CounterKind::CheckpointLockHoldMicros => "checkpoint-lock-hold-micros",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_indices_match_array_order() {
        for (i, kind) in ALL_COUNTER_KINDS.iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
    }

    #[test]
    fn labels_are_unique() {
        use std::collections::HashSet;
        let labels: HashSet<_> = ALL_COUNTER_KINDS.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), COUNTER_KIND_COUNT);
    }
}
