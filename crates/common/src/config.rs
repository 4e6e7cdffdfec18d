//! Run-time configuration shared by the baseline and DORA engines.

use std::time::Duration;

use crate::fault::FaultConfig;

/// Which execution architecture a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Conventional thread-to-transaction execution: each worker thread runs
    /// whole transactions against the storage manager with full centralized
    /// concurrency control. This is the paper's "Baseline" (Shore-MT).
    Baseline,
    /// Data-oriented thread-to-data execution (the paper's contribution).
    Dora,
}

impl EngineKind {
    /// Every registered execution architecture, in the order the paper's
    /// figures list them. Sweeps, equivalence tests and examples iterate
    /// this instead of hard-coding engines, so a new architecture only has
    /// to be appended here (and given a factory arm in `dora-engine`).
    pub const ALL: [EngineKind; 2] = [EngineKind::Baseline, EngineKind::Dora];

    /// Human-readable label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Baseline => "Baseline",
            EngineKind::Dora => "DORA",
        }
    }
}

/// Concurrency-control mode for an individual storage operation.
///
/// The paper (Section 4.3) describes the prototype's only Shore-MT
/// modifications: an extra flag telling the storage manager to skip
/// concurrency control for reads/updates executed by DORA executors, and a
/// flag to acquire only the row-level lock (not the whole hierarchy) for
/// inserts and deletes. `CcMode` models exactly those three behaviours.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CcMode {
    /// Acquire the full hierarchy of intention locks plus the record lock —
    /// what the conventional engine does for every access.
    Full,
    /// Acquire only the row-level lock, skipping the intention-lock
    /// hierarchy — what DORA does for record inserts and deletes
    /// (Section 4.2.1).
    RowOnly,
    /// Skip the centralized lock manager entirely — what DORA does for
    /// probes and updates, because its executor serializes them via the
    /// thread-local lock table.
    None,
}

impl CcMode {
    /// `true` if this mode touches the centralized lock manager at all.
    pub fn uses_lock_manager(self) -> bool {
        !matches!(self, CcMode::None)
    }
}

/// Global knobs for a run. Defaults are sized so that unit and integration
/// tests finish quickly; the benchmark harness overrides them.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Number of worker threads the baseline engine uses / number of client
    /// threads generating load.
    pub worker_threads: usize,
    /// Number of hardware contexts the "machine" is assumed to have; offered
    /// CPU load is reported relative to this (the paper's x-axes).
    pub hardware_contexts: usize,
    /// Buffer pool capacity in pages.
    pub buffer_pool_pages: usize,
    /// Page size in bytes for the slotted heap pages.
    pub page_size: usize,
    /// Simulated latency of a log flush, in microseconds. The paper stores
    /// the log on an in-memory file system; a small non-zero value models the
    /// memcpy + fsync-to-tmpfs cost and creates the group-commit pressure the
    /// paper mentions for TPC-C NewOrder/Payment.
    pub log_flush_micros: u64,
    /// Upper bound on spin iterations before a latch acquisition starts
    /// yielding the CPU (preemption-resistant MCS-style behaviour).
    pub latch_spin_limit: u32,
    /// Whether the lock manager runs deadlock detection on conflict.
    pub deadlock_detection: bool,
    /// Maximum number of retries for transactions aborted by deadlocks.
    pub max_retries: usize,
    /// Commit-path durability knobs: group commit and early lock release.
    pub durability: DurabilityConfig,
    /// Deterministic fault-injection knobs (inert by default): transient log
    /// device errors, latency spikes, flusher stalls and executor panics.
    pub faults: FaultConfig,
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self {
            worker_threads: 4,
            hardware_contexts: num_cpus(),
            buffer_pool_pages: 4096,
            page_size: 8192,
            log_flush_micros: 0,
            latch_spin_limit: 64,
            deadlock_detection: true,
            max_retries: 10,
            durability: DurabilityConfig::default(),
            faults: FaultConfig::default(),
        }
    }
}

impl SystemConfig {
    /// Configuration for quick unit tests: tiny buffer pool, no log latency.
    pub fn for_tests() -> Self {
        Self {
            worker_threads: 2,
            buffer_pool_pages: 256,
            ..Self::default()
        }
    }

    /// Offered CPU load (percent) when `threads` client threads run on this
    /// configuration, following the paper's definition (measured utilization
    /// plus time spent runnable): with a CPU-bound workload every client
    /// thread contributes one context worth of demand.
    pub fn offered_load_percent(&self, threads: usize) -> f64 {
        100.0 * threads as f64 / self.hardware_contexts as f64
    }

    /// Number of client threads that produces approximately `percent` offered
    /// CPU load (at least one).
    pub fn threads_for_load(&self, percent: f64) -> usize {
        ((percent / 100.0) * self.hardware_contexts as f64)
            .round()
            .max(1.0) as usize
    }
}

/// Commit-path durability knobs: group commit and early lock release (ELR).
///
/// The paper notes (Section 5.4) that once lock-manager contention is gone
/// the log manager becomes the next bottleneck for write-heavy workloads.
/// The standard fixes from the same research line are modelled here:
///
/// * **Group commit** — one simulated device write hardens every commit
///   record appended before it starts, so log-device latency is paid once
///   per *group*, not once per transaction. The committer that has to wait
///   drives the write (leader); committers that arrive while it is in
///   flight follow — the write covers them, or one of them leads the next.
///   A log-flusher daemon exists only for commits nobody blocks on, which
///   hand it a completion callback.
/// * **Early lock release** — a transaction's locks (centralized and DORA
///   thread-local) are released as soon as its commit record is *in the log
///   buffer*, before it is durable. Dependent transactions draw strictly
///   larger commit sequence numbers (the sequence is taken while the
///   writer's locks are still held), and recovery only replays a
///   sequence-dense prefix of fully fenced transactions — no "ELR ghosts".
/// * **Partitioned log streams** — the log itself can be sharded into
///   independent streams (one per DORA executor plus a dedicated stream for
///   the baseline/secondary path), each with its own buffer, flush claim
///   and simulated device, so commit batching parallelizes instead of
///   serializing behind one mutex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Run a log-flusher daemon per stream for the commits nobody blocks on
    /// (`commit_async`: DORA transactions submitted without a waiting
    /// client, and all but one fence of a multi-stream commit wait). A
    /// committer that blocks never uses it: it takes the stream's flush
    /// claim and performs the device write itself, or follows the thread
    /// that holds the claim — one path, whatever this says. When `false`
    /// there is no daemon and a commit nobody blocks on is hardened by the
    /// thread that submits it, before it returns — an executor then pays
    /// the device latency under its claim, the synchronous baseline for A/B
    /// measurements.
    pub group_commit: bool,
    /// How long whoever leads a device write — a committer or the daemon —
    /// waits after taking the flush claim for more commits to accumulate,
    /// in microseconds. Zero writes at once — groups then form *naturally*
    /// from the commits that arrive while earlier groups occupy the device,
    /// which adds no idle latency and is the right default; a positive
    /// window trades commit latency for larger groups on slow devices.
    pub group_window_micros: u64,
    /// Commits waiting on the stream (blocked committers plus queued
    /// callbacks) past which the leader stops waiting out the window and
    /// writes immediately (bounds group latency under load).
    pub max_group_size: usize,
    /// Release transaction locks at precommit (commit record appended)
    /// instead of after the record is durable. Off = strict two-phase
    /// commit-duration locking, kept as the A/B baseline.
    pub early_lock_release: bool,
    /// Number of independent log streams the write-ahead log is sharded
    /// into. Stream 0 serves unbound threads (baseline workers, clients,
    /// secondary actions); DORA executor threads are spread round-robin over
    /// the remaining streams. `1` (the default) reproduces the classic
    /// single-log behaviour exactly.
    pub log_streams: usize,
    /// Log records appended between two fuzzy checkpoints. A checkpoint
    /// folds the committed history into a net-effect snapshot with
    /// per-stream low-water LSNs, so recovery replays only the delta since
    /// the last checkpoint. Built by a background thread the committer that
    /// crosses the interval wakes; no committer builds. `0` (the default)
    /// disables checkpointing and the thread never exists.
    pub checkpoint_interval: u64,
    /// Reclaim log space at each fuzzy checkpoint: the builder *moves* every
    /// stream's prefix below its low-water mark (which never passes the
    /// first record of a still-live transaction, whose undo chain must
    /// survive) out of the log instead of cloning it. On by default — a
    /// no-op unless checkpoints actually run — but switched off by harnesses
    /// that deliberately measure *full-history* replay after a checkpoint
    /// was taken.
    pub reclaim_log_at_checkpoint: bool,
    /// Per-stream simulated device write latencies, in microseconds. Stream
    /// `s` uses `stream_flush_micros[s]` when present and falls back to the
    /// system-wide `log_flush_micros` otherwise, so a heterogeneous log
    /// farm (one fast NVMe stream, several slow SATA streams) can be
    /// modelled without giving up the single shared default. Empty (the
    /// default) keeps every stream on the shared value.
    pub stream_flush_micros: Vec<u64>,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        Self {
            group_commit: true,
            group_window_micros: 0,
            max_group_size: 64,
            early_lock_release: true,
            log_streams: 1,
            checkpoint_interval: 0,
            reclaim_log_at_checkpoint: true,
            stream_flush_micros: Vec::new(),
        }
    }
}

impl DurabilityConfig {
    /// Synchronous commit: no flusher daemon (every commit is hardened by
    /// the thread that commits or submits it), locks held until durable.
    /// The measurement baseline the `repro commit` experiment compares
    /// against.
    pub fn sync_commit() -> Self {
        Self {
            group_commit: false,
            early_lock_release: false,
            ..Self::default()
        }
    }

    /// Group commit with locks held until durable (isolates the batching
    /// win from the lock-hold-time win in A/B runs).
    pub fn group_commit_only() -> Self {
        Self {
            early_lock_release: false,
            ..Self::default()
        }
    }

    /// This configuration with the log sharded into `streams` streams (the
    /// other knobs untouched), for sweeping the stream-count axis.
    pub fn with_log_streams(self, streams: usize) -> Self {
        Self {
            log_streams: streams.max(1),
            ..self
        }
    }

    /// This configuration with per-stream device write latencies. Stream `s`
    /// takes `micros[s]`; streams past the end of the slice keep the shared
    /// system-wide latency.
    pub fn with_stream_device_micros(self, micros: Vec<u64>) -> Self {
        Self {
            stream_flush_micros: micros,
            ..self
        }
    }

    /// Device write latency for stream `index`: the per-stream override when
    /// one is configured, the shared `default_micros` otherwise.
    pub fn device_micros_for(&self, index: usize, default_micros: u64) -> u64 {
        self.stream_flush_micros
            .get(index)
            .copied()
            .unwrap_or(default_micros)
    }
}

/// Tuning knobs for adaptive skew-aware repartitioning (Appendix A.2.1).
///
/// The resource manager samples per-executor serviced-action counts and
/// queue depths into a sliding window; when the busiest executor's windowed
/// load exceeds the average by [`imbalance_threshold`](Self::imbalance_threshold),
/// it synthesizes a rebalanced routing rule (splitting hot ranges, merging
/// cold ones) and drives the dataset-resize drain protocol while
/// transactions stay in flight.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveConfig {
    /// Whether the engine spawns the adaptive repartitioning controller when
    /// a workload is bound.
    pub enabled: bool,
    /// Interval between two load samples.
    pub sample_interval: Duration,
    /// Number of samples in the sliding window the skew detector evaluates.
    /// Imbalance is computed over the served-action delta across the window,
    /// so larger windows react more slowly but resist noise.
    pub window: usize,
    /// Ratio of busiest executor's windowed load to the average past which a
    /// rebalance is triggered (must be > 1.0).
    pub imbalance_threshold: f64,
    /// Minimum width (in routing-key values) of any range a rebalance may
    /// produce; prevents the detector from shrinking a hot range below the
    /// granularity at which routing stays meaningful.
    pub min_range_width: i64,
    /// Minimum time between two resizes of the same table. Each resize
    /// drains the table's executors, so back-to-back resizes would stall the
    /// pipeline; the cooldown also gives the window time to refill with
    /// samples taken under the new rule.
    pub cooldown: Duration,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            sample_interval: Duration::from_millis(50),
            window: 3,
            imbalance_threshold: 1.5,
            min_range_width: 1,
            cooldown: Duration::from_millis(200),
        }
    }
}

impl AdaptiveConfig {
    /// An enabled configuration that reacts quickly — suitable for tests and
    /// the short measured intervals of the quick benchmark scale.
    pub fn eager() -> Self {
        Self {
            enabled: true,
            sample_interval: Duration::from_millis(10),
            window: 2,
            imbalance_threshold: 1.2,
            min_range_width: 1,
            cooldown: Duration::from_millis(40),
        }
    }
}

/// Number of logical CPUs visible to the process.
pub fn num_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cc_mode_lock_manager_usage() {
        assert!(CcMode::Full.uses_lock_manager());
        assert!(CcMode::RowOnly.uses_lock_manager());
        assert!(!CcMode::None.uses_lock_manager());
    }

    #[test]
    fn offered_load_round_trips_thread_count() {
        let config = SystemConfig {
            hardware_contexts: 8,
            ..SystemConfig::default()
        };
        assert_eq!(config.threads_for_load(100.0), 8);
        assert_eq!(config.threads_for_load(50.0), 4);
        assert_eq!(config.threads_for_load(1.0), 1);
        assert!((config.offered_load_percent(4) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn adaptive_defaults_are_sane() {
        let config = AdaptiveConfig::default();
        assert!(!config.enabled, "adaptivity must be opt-in");
        assert!(config.imbalance_threshold > 1.0);
        assert!(config.window >= 2, "imbalance needs at least two samples");
        assert!(config.min_range_width >= 1);
        let eager = AdaptiveConfig::eager();
        assert!(eager.enabled);
        assert!(eager.sample_interval < config.sample_interval);
    }

    #[test]
    fn durability_defaults_and_ab_presets() {
        let config = DurabilityConfig::default();
        assert!(config.group_commit);
        assert!(config.early_lock_release);
        assert!(config.max_group_size >= 1);
        assert_eq!(config.log_streams, 1, "single stream is the default");
        assert_eq!(config.checkpoint_interval, 0, "checkpointing is opt-in");
        assert!(
            config.reclaim_log_at_checkpoint,
            "reclamation rides checkpoints by default"
        );
        let sync = DurabilityConfig::sync_commit();
        assert!(!sync.group_commit && !sync.early_lock_release);
        let group = DurabilityConfig::group_commit_only();
        assert!(group.group_commit && !group.early_lock_release);
        assert_eq!(SystemConfig::default().durability, config);
        // Sync commit composes with multiple streams (per-stream
        // caller-driven flush), keeping the A/B baseline available on the
        // stream-count axis.
        let sharded_sync = DurabilityConfig::sync_commit().with_log_streams(4);
        assert!(!sharded_sync.group_commit);
        assert_eq!(sharded_sync.log_streams, 4);
        assert_eq!(
            DurabilityConfig::default().with_log_streams(0).log_streams,
            1,
            "stream counts clamp to at least one"
        );
        assert!(
            config.stream_flush_micros.is_empty(),
            "per-stream device latencies are opt-in"
        );
        let mixed = DurabilityConfig::default()
            .with_log_streams(3)
            .with_stream_device_micros(vec![5, 80]);
        assert_eq!(mixed.device_micros_for(0, 25), 5);
        assert_eq!(mixed.device_micros_for(1, 25), 80);
        assert_eq!(
            mixed.device_micros_for(2, 25),
            25,
            "streams past the override slice keep the shared default"
        );
    }

    #[test]
    fn engine_labels_match_paper() {
        assert_eq!(EngineKind::Baseline.label(), "Baseline");
        assert_eq!(EngineKind::Dora.label(), "DORA");
    }
}
