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

/// Global knobs for a run. Defaults are sized so that unit and integration
/// tests finish quickly; the benchmark harness overrides them.
#[derive(Debug, Clone)]
pub struct SystemConfig {
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
            hardware_contexts: num_cpus(),
            buffer_pool_pages: 4096,
            page_size: 8192,
            log_flush_micros: 0,
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
            buffer_pool_pages: 256,
            ..Self::default()
        }
    }
}

/// Commit-path durability knobs: early lock release (ELR) and checkpoints.
///
/// The paper notes (Section 5.4) that once lock-manager contention is gone
/// the log manager becomes the next bottleneck for write-heavy workloads.
/// The standard fixes from the same research line are modelled here, each as
/// the one path the log always takes — the knobs only size it:
///
/// * **Group commit** (always on, no knob) — one simulated device write
///   hardens every commit record appended to the one log before it starts,
///   so log-device latency is paid once per *group*, not once per
///   transaction. The committer that has to wait drives the write (leader);
///   committers that arrive while it is in flight follow — the write covers
///   them, or one of them leads the next. A log-flusher daemon exists only
///   for commits nobody blocks on, which hand it a completion callback.
/// * **Early lock release** — a transaction's locks (centralized and DORA
///   thread-local) are released as soon as its commit record is *in the log
///   buffer*, before it is durable. The record is appended while the locks
///   are still held, so a dependent transaction commits at a larger LSN,
///   and recovery behind a crash replays exactly the commit records that
///   survived — no "ELR ghosts".
/// * **Fuzzy checkpoints** — the committed history is folded into a
///   net-effect snapshot and moved out of the log, so log space is reclaimed
///   and recovery replays the snapshot plus the tail past it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Release transaction locks at precommit (commit record appended)
    /// instead of after the record is durable. Off = strict two-phase
    /// commit-duration locking, kept as the A/B baseline.
    pub early_lock_release: bool,
    /// Log records appended between two fuzzy checkpoints. A checkpoint
    /// folds the committed history into a net-effect snapshot with a
    /// low-water LSN, so recovery replays only the delta since
    /// the last checkpoint. Built by a background thread the committer that
    /// crosses the interval wakes; no committer builds. `0` (the default)
    /// disables checkpointing and the thread never exists. The builder
    /// *moves* the prefix below its low-water mark out of the log,
    /// so a checkpoint also reclaims log space; recovery starts from it.
    pub checkpoint_interval: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        Self {
            early_lock_release: true,
            checkpoint_interval: 0,
        }
    }
}

impl DurabilityConfig {
    /// Group commit with locks held until durable: early lock release off,
    /// the A/B baseline for the lock-hold-time win.
    pub fn group_commit_only() -> Self {
        Self {
            early_lock_release: false,
            ..Self::default()
        }
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
        assert!(config.early_lock_release);
        assert_eq!(config.checkpoint_interval, 0, "checkpointing is opt-in");
        assert!(!DurabilityConfig::group_commit_only().early_lock_release);
        assert_eq!(SystemConfig::default().durability, config);
    }

    #[test]
    fn engine_labels_match_paper() {
        assert_eq!(EngineKind::Baseline.label(), "Baseline");
        assert_eq!(EngineKind::Dora.label(), "DORA");
    }
}
