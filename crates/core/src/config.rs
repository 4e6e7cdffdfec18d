//! Configuration knobs for the DORA engine.

use dora_common::config::AdaptiveConfig;

/// Tuning parameters for a [`crate::DoraEngine`].
#[derive(Debug, Clone)]
pub struct DoraConfig {
    /// Predicted abort rate (0..=1) above which bind-time conflict analysis
    /// derives a transaction type's serialized flow graph instead of its
    /// parallel one (Appendix A.4 / Figure 11).
    pub serialize_abort_threshold: f64,
    /// Knobs for the adaptive skew-aware repartitioning controller
    /// ([`crate::AdaptiveController`]). Disabled by default; when
    /// `adaptive.enabled` is set, binding a workload through the
    /// `ExecutionEngine` seam spawns the controller automatically. Its
    /// `imbalance_threshold` is also the ratio the one-shot
    /// [`crate::ResourceManager::rebalance_if_skewed`] compares against.
    pub adaptive: AdaptiveConfig,
    /// Apply the bind-time static conflict analysis (default `true`): steps
    /// whose [`crate::conflict::ConflictMatrix`] template conflicts with
    /// nothing skip the local-lock-table probe and their executor entirely,
    /// running on the dispatching thread (counter `LockProbesElided`), and
    /// programs whose predicted abort rate exceeds
    /// [`serialize_abort_threshold`](Self::serialize_abort_threshold) are
    /// auto-derived as DORA-S serialized plans (Figure 11) instead of
    /// relying on a hand-set `serialized(true)`.
    ///
    /// `false` disables both: every routed action probes its executor's
    /// local lock table and plans run exactly as authored — the right
    /// setting for experiments that measure hand-set plans (e.g. Figure 11
    /// itself).
    pub conflict_elision: bool,
}

impl Default for DoraConfig {
    fn default() -> Self {
        Self {
            serialize_abort_threshold: 0.1,
            adaptive: AdaptiveConfig::default(),
            conflict_elision: true,
        }
    }
}

impl DoraConfig {
    /// Configuration for unit tests (the defaults: every knob is already
    /// test-sized).
    pub fn for_tests() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let config = DoraConfig::default();
        assert!(config.serialize_abort_threshold > 0.0 && config.serialize_abort_threshold < 1.0);
        assert!(config.adaptive.imbalance_threshold > 1.0);
    }
}
