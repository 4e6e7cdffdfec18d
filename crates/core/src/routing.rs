//! Routing rules: binding executors to disjoint datasets.
//!
//! A routing rule (Section 4.1.1) maps every possible record of a table to
//! exactly one *dataset*, and each dataset is assigned to one executor. The
//! paper notes that the primary or candidate key columns work well as routing
//! fields; the benchmarks in this reproduction route on the leading
//! primary-key column (e.g. the Warehouse id), so the rule partitions the
//! integer domain of that column into contiguous ranges. A hash fallback
//! covers non-integer or absent leading fields.
//!
//! The rule set is kept behind a read-write lock so the resource manager can
//! change it at run time (Appendix A.2.1) while dispatchers keep routing.

use parking_lot::RwLock;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use dora_common::prelude::*;

/// How one table's records map to its executors.
#[derive(Debug, Clone, PartialEq)]
pub enum RoutingRule {
    /// Contiguous ranges over the leading routing-field value: executor `i`
    /// owns values in `[boundaries[i-1], boundaries[i])`, with executor 0
    /// owning everything below `boundaries[0]` and the last executor owning
    /// everything at or above the last boundary.
    Range {
        /// Ascending split points; `len() == executors - 1`.
        boundaries: Vec<i64>,
    },
    /// Hash of the whole identifier modulo the executor count. Used when the
    /// routing field is not an integer or when no natural ranges exist.
    Hash {
        /// Number of executors.
        executors: usize,
    },
}

impl RoutingRule {
    /// Builds a range rule splitting `[low, high]` (inclusive) evenly across
    /// `executors` executors.
    pub fn even_ranges(low: i64, high: i64, executors: usize) -> Self {
        assert!(executors >= 1, "need at least one executor");
        assert!(high >= low, "invalid key domain");
        let span = (high - low + 1).max(1);
        let mut boundaries = Vec::with_capacity(executors.saturating_sub(1));
        for i in 1..executors {
            let boundary = low + (span * i as i64) / executors as i64;
            boundaries.push(boundary);
        }
        RoutingRule::Range { boundaries }
    }

    /// Number of executors (datasets) the rule currently defines.
    pub fn executor_count(&self) -> usize {
        match self {
            RoutingRule::Range { boundaries } => boundaries.len() + 1,
            RoutingRule::Hash { executors } => *executors,
        }
    }

    /// Maps an action identifier to its executor index.
    ///
    /// Identifiers that contain at least the leading routing field map
    /// deterministically; the empty identifier (a *secondary action*,
    /// Section 4.2.2) cannot be routed and returns `None`.
    pub fn route(&self, identifier: &Key) -> Option<usize> {
        if identifier.is_empty() {
            return None;
        }
        match self {
            RoutingRule::Range { boundaries } => {
                let value = identifier.leading_int()?;
                Some(boundaries.partition_point(|b| *b <= value))
            }
            RoutingRule::Hash { executors } => {
                let mut hasher = DefaultHasher::new();
                identifier.values().first().hash(&mut hasher);
                Some((hasher.finish() as usize) % (*executors).max(1))
            }
        }
    }

    /// The inclusive value range `[low, high]` owned by executor `index`
    /// under a range rule (`None` for hash rules or out-of-range indexes).
    /// `i64::MIN`/`i64::MAX` stand in for the open ends.
    pub fn range_of(&self, index: usize) -> Option<(i64, i64)> {
        match self {
            RoutingRule::Range { boundaries } => {
                if index > boundaries.len() {
                    return None;
                }
                let low = if index == 0 {
                    i64::MIN
                } else {
                    boundaries[index - 1]
                };
                let high = if index == boundaries.len() {
                    i64::MAX
                } else {
                    boundaries[index] - 1
                };
                Some((low, high))
            }
            RoutingRule::Hash { .. } => None,
        }
    }
}

/// The set of routing rules for every bound table.
#[derive(Debug, Default)]
pub struct RoutingTable {
    rules: RwLock<Vec<Option<RoutingRule>>>,
}

impl RoutingTable {
    /// Creates an empty routing table.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Installs (or replaces) the rule for `table`.
    pub(crate) fn set_rule(&self, table: TableId, rule: RoutingRule) {
        let mut rules = self.rules.write();
        let index = table.0 as usize;
        if rules.len() <= index {
            rules.resize(index + 1, None);
        }
        rules[index] = Some(rule);
    }

    /// The current rule for `table`, if the table is bound.
    pub fn rule(&self, table: TableId) -> Option<RoutingRule> {
        self.rules.read().get(table.0 as usize).cloned().flatten()
    }

    /// Routes an identifier for `table` to an executor index.
    pub fn route(&self, table: TableId, identifier: &Key) -> DbResult<Option<usize>> {
        let rules = self.rules.read();
        let rule = rules
            .get(table.0 as usize)
            .and_then(|r| r.as_ref())
            .ok_or_else(|| DbError::NoSuchObject(format!("routing rule for {table}")))?;
        Ok(rule.route(identifier))
    }

    /// Number of tables with a rule installed.
    pub(crate) fn bound_tables(&self) -> usize {
        self.rules.read().iter().filter(|r| r.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_ranges_partition_the_domain() {
        let rule = RoutingRule::even_ranges(1, 100, 4);
        assert_eq!(rule.executor_count(), 4);
        // Every value maps to exactly one executor and the mapping is
        // monotone in the key.
        let mut previous = 0usize;
        let mut counts = vec![0usize; 4];
        for value in 1..=100i64 {
            let executor = rule.route(&Key::int(value)).unwrap();
            assert!(executor >= previous);
            previous = executor;
            counts[executor] += 1;
        }
        assert!(
            counts.iter().all(|&c| c == 25),
            "even split expected, got {counts:?}"
        );
    }

    #[test]
    fn single_executor_owns_everything() {
        let rule = RoutingRule::even_ranges(1, 10, 1);
        assert_eq!(rule.executor_count(), 1);
        assert_eq!(rule.route(&Key::int(-5)), Some(0));
        assert_eq!(rule.route(&Key::int(1_000_000)), Some(0));
    }

    #[test]
    fn domain_smaller_than_executor_count_still_partitions() {
        // 3 key values spread over 8 executors: duplicate boundaries are
        // fine — every value must route to exactly one valid executor and
        // the mapping must stay monotone. Some executors simply own empty
        // datasets.
        let rule = RoutingRule::even_ranges(1, 3, 8);
        assert_eq!(rule.executor_count(), 8);
        let mut previous = 0usize;
        for value in 1..=3i64 {
            let executor = rule.route(&Key::int(value)).unwrap();
            assert!(executor < 8, "value {value} routed to executor {executor}");
            assert!(executor >= previous, "routing must stay monotone");
            previous = executor;
        }
        // Out-of-domain values clamp into the first/last dataset instead of
        // failing: the routing rule is total over i64.
        assert!(rule.route(&Key::int(i64::MIN)).unwrap() < 8);
        assert!(rule.route(&Key::int(i64::MAX)).unwrap() < 8);
    }

    #[test]
    fn single_value_domain_routes_consistently() {
        let rule = RoutingRule::even_ranges(5, 5, 4);
        assert_eq!(rule.executor_count(), 4);
        let owner = rule.route(&Key::int(5)).unwrap();
        assert!(owner < 4);
        // Repeated routing is deterministic.
        assert_eq!(rule.route(&Key::int(5)).unwrap(), owner);
    }

    #[test]
    fn uneven_splits_distribute_the_remainder() {
        // 10 values over 3 executors cannot split evenly; dataset sizes must
        // differ by at most one and cover the domain exactly once.
        let rule = RoutingRule::even_ranges(1, 10, 3);
        let mut counts = vec![0usize; 3];
        for value in 1..=10i64 {
            counts[rule.route(&Key::int(value)).unwrap()] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), 10);
        assert!(
            counts.iter().all(|&c| (3..=4).contains(&c)),
            "sizes must differ by at most one, got {counts:?}"
        );
    }

    #[test]
    fn range_of_tiles_the_domain_without_gaps_or_overlap() {
        for executors in 1..=6usize {
            let rule = RoutingRule::even_ranges(0, 17, executors);
            let mut expected_low = i64::MIN;
            for index in 0..executors {
                let (low, high) = rule.range_of(index).unwrap();
                assert_eq!(low, expected_low, "gap/overlap before executor {index}");
                assert!(low <= high, "executor {index} has an inverted range");
                if index + 1 == executors {
                    assert_eq!(high, i64::MAX, "last executor must own the open top end");
                } else {
                    expected_low = high + 1;
                }
                // Routing agrees with the reported ownership at the edges.
                if high < i64::MAX {
                    assert_eq!(rule.route(&Key::int(high)), Some(index));
                }
                if low > i64::MIN {
                    assert_eq!(rule.route(&Key::int(low)), Some(index));
                }
            }
        }
    }

    #[test]
    fn composite_identifiers_route_on_leading_field() {
        let rule = RoutingRule::even_ranges(1, 10, 2);
        let executor_a = rule.route(&Key::int2(2, 999)).unwrap();
        let executor_b = rule.route(&Key::int(2)).unwrap();
        assert_eq!(
            executor_a, executor_b,
            "prefix and full identifier must agree"
        );
    }

    #[test]
    fn empty_identifier_is_unroutable() {
        let rule = RoutingRule::even_ranges(1, 10, 2);
        assert_eq!(rule.route(&Key::empty()), None);
        let hash = RoutingRule::Hash { executors: 3 };
        assert_eq!(hash.route(&Key::empty()), None);
    }

    #[test]
    fn hash_rule_routes_text_keys() {
        let rule = RoutingRule::Hash { executors: 4 };
        let a = rule.route(&Key::from_values(["alpha"])).unwrap();
        let b = rule.route(&Key::from_values(["alpha"])).unwrap();
        assert_eq!(a, b, "routing must be deterministic");
        assert!(a < 4);
    }

    #[test]
    fn range_of_reports_owned_intervals() {
        let rule = RoutingRule::even_ranges(1, 100, 4);
        let (low0, high0) = rule.range_of(0).unwrap();
        let (low3, high3) = rule.range_of(3).unwrap();
        assert_eq!(low0, i64::MIN);
        assert_eq!(high3, i64::MAX);
        assert!(high0 < low3);
        assert!(rule.range_of(4).is_none());
        assert!(RoutingRule::Hash { executors: 2 }.range_of(0).is_none());
    }

    #[test]
    fn routing_table_set_and_route() {
        let table = RoutingTable::new();
        table.set_rule(TableId(2), RoutingRule::even_ranges(1, 10, 2));
        assert_eq!(table.bound_tables(), 1);
        assert_eq!(table.route(TableId(2), &Key::int(9)).unwrap(), Some(1));
        assert!(
            table.route(TableId(0), &Key::int(1)).is_err(),
            "unbound table must error"
        );
        // Replacing the rule changes routing (what the resource manager does).
        table.set_rule(TableId(2), RoutingRule::even_ranges(1, 10, 1));
        assert_eq!(table.route(TableId(2), &Key::int(9)).unwrap(), Some(0));
    }

    #[test]
    fn boundaries_move_records_between_executors() {
        // Shrinking executor 0 from [1,50] to [1,25] moves 26..=50 to
        // executor 1 — the resize the resource manager performs.
        let before = RoutingRule::Range {
            boundaries: vec![51],
        };
        let after = RoutingRule::Range {
            boundaries: vec![26],
        };
        assert_eq!(before.route(&Key::int(30)), Some(0));
        assert_eq!(after.route(&Key::int(30)), Some(1));
        assert_eq!(after.route(&Key::int(10)), Some(0));
    }
}
