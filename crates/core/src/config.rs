//! Configuration knobs for the DORA engine.

use dora_common::config::AdaptiveConfig;

/// Tuning parameters for a [`crate::DoraEngine`].
#[derive(Debug, Clone)]
pub struct DoraConfig {
    /// Default number of executors created per bound table when the caller
    /// does not specify one. The paper's resource manager varies this with
    /// table size, request rate and available hardware; the benchmark harness
    /// sizes it explicitly per workload.
    pub default_executors_per_table: usize,
    /// Abort-rate threshold (0..=1) above which the resource manager
    /// recommends switching a transaction type from its parallel flow graph
    /// to a serialized one (Appendix A.4 / Figure 11).
    pub serialize_abort_threshold: f64,
    /// Minimum number of observed transactions before the abort-rate monitor
    /// makes a recommendation.
    pub abort_monitor_min_samples: u64,
    /// Load-imbalance ratio (busiest executor / average) above which the
    /// resource manager rebalances a table's routing rule (Appendix A.2.1).
    pub rebalance_imbalance_ratio: f64,
    /// Knobs for the adaptive skew-aware repartitioning controller
    /// ([`crate::AdaptiveController`]). Disabled by default; when
    /// `adaptive.enabled` is set, binding a workload through the
    /// `ExecutionEngine` seam spawns the controller automatically.
    pub adaptive: AdaptiveConfig,
    /// Apply the bind-time static conflict analysis (default `true`): steps
    /// whose [`crate::conflict::ConflictMatrix`] template conflicts with
    /// nothing skip the local-lock-table probe entirely (counter
    /// `LockProbesElided`), and programs whose predicted abort rate exceeds
    /// [`serialize_abort_threshold`](Self::serialize_abort_threshold) are
    /// auto-derived as DORA-S serialized plans (Figure 11) instead of
    /// relying on a hand-set `serialized(true)`.
    ///
    /// `false` disables both: every routed action probes its executor's
    /// local lock table and plans run exactly as authored — the A/B baseline
    /// of the `conflicts` benchmark, and the right setting for experiments
    /// that measure hand-set plans (e.g. Figure 11 itself).
    pub conflict_elision: bool,
}

impl Default for DoraConfig {
    fn default() -> Self {
        Self {
            default_executors_per_table: 4,
            serialize_abort_threshold: 0.1,
            abort_monitor_min_samples: 100,
            rebalance_imbalance_ratio: 1.5,
            adaptive: AdaptiveConfig::default(),
            conflict_elision: true,
        }
    }
}

impl DoraConfig {
    /// Configuration suitable for unit tests: few executors, eager
    /// rebalancing decisions.
    pub fn for_tests() -> Self {
        Self {
            default_executors_per_table: 2,
            abort_monitor_min_samples: 10,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let config = DoraConfig::default();
        assert!(config.default_executors_per_table >= 1);
        assert!(config.serialize_abort_threshold > 0.0 && config.serialize_abort_threshold < 1.0);
        assert!(config.rebalance_imbalance_ratio > 1.0);
    }
}
