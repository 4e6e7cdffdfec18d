//! Configuration knobs for the DORA engine.

use dora_common::config::AdaptiveConfig;

/// Tuning parameters for a [`crate::DoraEngine`].
#[derive(Debug, Clone)]
pub struct DoraConfig {
    /// Predicted abort rate (0..=1) at or above which bind-time conflict
    /// analysis derives a transaction type's serialized flow graph instead
    /// of its parallel one (Appendix A.4 / Figure 11), so no plan needs a
    /// hand-set `serialized(true)`. `f64::INFINITY` keeps every plan as
    /// authored — the setting for experiments that measure hand-set plans
    /// (Figure 11 itself).
    pub serialize_abort_threshold: f64,
    /// Knobs for the adaptive skew-aware repartitioning controller
    /// ([`crate::AdaptiveController`]). Disabled by default; when
    /// `adaptive.enabled` is set, binding a workload through the
    /// `ExecutionEngine` seam spawns the controller automatically. Its
    /// `imbalance_threshold` is also the ratio the one-shot
    /// [`crate::ResourceManager::rebalance_if_skewed`] compares against.
    pub adaptive: AdaptiveConfig,
}

impl Default for DoraConfig {
    fn default() -> Self {
        Self {
            serialize_abort_threshold: 0.1,
            adaptive: AdaptiveConfig::default(),
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
