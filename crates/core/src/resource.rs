//! The DORA resource manager: load balancing (Sections 4.1.1, A.2.1).
//!
//! It monitors the load of each executor and, when the assignment becomes
//! disproportional, modifies the table's routing rule. Changing a rule uses
//! the drain protocol: the affected executors stop serving actions of new
//! transactions until their in-flight transactions leave the system, then the
//! rule is swapped and deferred actions are re-dispatched under the new rule.
//!
//! The paper's other job for it — choosing the serialized DORA-S flow graph
//! for transaction types with high abort rates (Appendix A.4) — is decided at
//! bind time from the programs themselves by
//! [`ConflictMatrix`](crate::conflict::ConflictMatrix).

use dora_common::prelude::*;
use dora_metrics::{incr, CounterKind};

use crate::adaptive::balanced_rule;
use crate::config::DoraConfig;
use crate::engine::DoraEngine;
use crate::routing::RoutingRule;

/// Runtime manager for routing rules and execution plans.
pub struct ResourceManager {
    config: DoraConfig,
}

impl std::fmt::Debug for ResourceManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResourceManager").finish()
    }
}

impl ResourceManager {
    /// Creates a resource manager with the given configuration.
    pub fn new(config: DoraConfig) -> Self {
        Self { config }
    }

    /// Replaces the routing rule of `table` using the drain protocol of
    /// Appendix A.2.1: every executor of the table drains its in-flight
    /// transactions, the rule is swapped, and deferred actions are
    /// re-dispatched under the new rule. Blocks until the swap is complete.
    pub fn rebalance(
        &self,
        engine: &DoraEngine,
        table: TableId,
        new_rule: RoutingRule,
    ) -> DbResult<()> {
        if new_rule.executor_count() != engine.executor_count(table) {
            return Err(DbError::InvalidOperation(format!(
                "new rule defines {} datasets but {table} has {} executors",
                new_rule.executor_count(),
                engine.executor_count(table)
            )));
        }
        let barriers = engine.start_drain(table)?;
        for barrier in &barriers {
            barrier.wait();
        }
        engine.finish_resize(table, new_rule)?;
        incr(CounterKind::RoutingResizes);
        Ok(())
    }

    /// Checks the per-executor load of `table` and, if the busiest executor
    /// exceeds the average by the adaptive controller's
    /// [`imbalance_threshold`](dora_common::config::AdaptiveConfig::imbalance_threshold),
    /// computes and installs a rebalanced rule. Returns `true` when a
    /// rebalance happened.
    ///
    /// The rule is synthesized by [`balanced_rule`] — the same equal-load
    /// quantile splitter the adaptive controller uses, so the one-shot and
    /// continuous paths cannot drift apart — honoring the configured minimum
    /// range width.
    pub fn rebalance_if_skewed(
        &self,
        engine: &DoraEngine,
        table: TableId,
        key_low: i64,
        key_high: i64,
    ) -> DbResult<bool> {
        let loads = engine.executor_loads(table)?;
        if loads.len() < 2 {
            return Ok(false);
        }
        let total: u64 = loads.iter().sum();
        if total == 0 {
            return Ok(false);
        }
        let average = total as f64 / loads.len() as f64;
        let busiest = *loads.iter().max().expect("non-empty") as f64;
        if busiest / average < self.config.adaptive.imbalance_threshold {
            return Ok(false);
        }
        let Some(current) = engine.routing().rule(table) else {
            return Ok(false);
        };
        let Some(rule) = balanced_rule(
            &current,
            &loads,
            (key_low, key_high),
            self.config.adaptive.min_range_width,
        ) else {
            return Ok(false);
        };
        self.rebalance(engine, table, rule)?;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{ActionSpec, LocalMode};
    use crate::flow::FlowGraph;
    use dora_storage::{ColumnDef, Database, TableSchema};
    use std::sync::Arc;

    fn counters_engine() -> (Arc<Database>, TableId, DoraEngine) {
        let db = Database::for_tests();
        let table = db
            .create_table(TableSchema::new(
                "counters",
                vec![
                    ColumnDef::new("id", ValueType::Int),
                    ColumnDef::new("n", ValueType::Int),
                ],
                vec![0],
            ))
            .unwrap();
        for id in 1..=100i64 {
            db.load_row(table, vec![Value::Int(id), Value::Int(0)])
                .unwrap();
        }
        let engine = DoraEngine::new(Arc::clone(&db), DoraConfig::for_tests());
        engine.bind_table(table, 2, 1, 100).unwrap();
        (db, table, engine)
    }

    fn bump(table: TableId, id: i64) -> FlowGraph {
        let mut graph = FlowGraph::new();
        graph.push(ActionSpec::new(
            "bump",
            table,
            Key::int(id),
            LocalMode::Exclusive,
            move |ctx| {
                ctx.db
                    .update_primary(ctx.txn, table, &Key::int(id), CcMode::None, |row| {
                        let n = row[1].as_int()?;
                        row[1] = Value::Int(n + 1);
                        Ok(())
                    })
            },
        ));
        graph
    }

    #[test]
    fn rebalance_swaps_rule_and_work_continues() {
        let (db, table, engine) = counters_engine();
        let manager = ResourceManager::new(DoraConfig::for_tests());
        // Run some transactions, rebalance so executor 1 owns almost
        // everything, then run more transactions: all must still apply
        // exactly once.
        for id in 1..=20i64 {
            engine.execute(bump(table, id)).unwrap();
        }
        manager
            .rebalance(
                &engine,
                table,
                RoutingRule::Range {
                    boundaries: vec![5],
                },
            )
            .unwrap();
        assert_eq!(
            engine.routing().rule(table).unwrap(),
            RoutingRule::Range {
                boundaries: vec![5]
            }
        );
        for id in 1..=20i64 {
            engine.execute(bump(table, id)).unwrap();
        }
        let check = db.begin();
        for id in 1..=20i64 {
            let (_, row) = db
                .probe_primary(&check, table, &Key::int(id), false, CcMode::Full)
                .unwrap()
                .unwrap();
            assert_eq!(
                row[1],
                Value::Int(2),
                "counter {id} must be bumped exactly twice"
            );
        }
        db.commit(&check).unwrap();
        engine.shutdown();
    }

    #[test]
    fn rebalance_rejects_mismatched_executor_count() {
        let (_db, table, engine) = counters_engine();
        let manager = ResourceManager::new(DoraConfig::for_tests());
        let result = manager.rebalance(&engine, table, RoutingRule::even_ranges(1, 100, 3));
        assert!(result.is_err());
        engine.shutdown();
    }

    #[test]
    fn skew_detection_rebalances_boundaries() {
        let (_db, table, engine) = counters_engine();
        let manager = ResourceManager::new(DoraConfig::for_tests());
        // Hammer executor 0 (keys 1..=50) so the load becomes skewed.
        for _ in 0..30 {
            engine.execute(bump(table, 10)).unwrap();
        }
        let rebalanced = manager.rebalance_if_skewed(&engine, table, 1, 100).unwrap();
        assert!(rebalanced, "skewed load must trigger a rebalance");
        // After the rebalance executor 0's share of the key domain shrinks.
        match engine.routing().rule(table).unwrap() {
            RoutingRule::Range { boundaries } => {
                assert_eq!(boundaries.len(), 1);
                assert!(
                    boundaries[0] < 51,
                    "boundary must move left, got {boundaries:?}"
                );
            }
            other => panic!("unexpected rule {other:?}"),
        }
        engine.shutdown();
    }

    #[test]
    fn balanced_load_does_not_rebalance() {
        let (_db, table, engine) = counters_engine();
        let manager = ResourceManager::new(DoraConfig::for_tests());
        for id in [10, 60, 20, 70, 30, 80] {
            engine.execute(bump(table, id)).unwrap();
        }
        assert!(!manager.rebalance_if_skewed(&engine, table, 1, 100).unwrap());
        engine.shutdown();
    }
}
