//! Analytical (HTAP) scan transactions that run concurrently with OLTP.
//!
//! The paper's closing discussion positions DORA's partitioned execution as
//! a substrate for hybrid workloads; this module provides the analytical
//! half. Each scan is an ordinary read-only [`TxnProgram`] — a single
//! secondary (unrouted) step that sweeps a whole table — so it can be
//! executed three ways from the same definition:
//!
//! * on the **baseline** engine, where it takes a table-level shared lock
//!   and blocks every concurrent writer of that table;
//! * on **DORA**, where it runs as a secondary action on the submitting
//!   thread (still under centralized shared locks);
//! * on a pinned **snapshot** (`PreparedProgram::run_snapshot`), where it
//!   reads a consistent commit-ticket horizon from the version chains with
//!   **no locks of any kind** — the HTAP path the benchmark's `htap_tpcb`
//!   workload measures.
//!
//! Results land in a caller-supplied [`ScanSink`]; each scan thread owns its
//! own sink plus prepared program, so concurrent scans never contend.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use dora_common::prelude::*;
use dora_core::{Step, TxnProgram};
use dora_storage::Database;

/// The result of one analytical scan execution: per-group aggregates plus
/// row accounting. Overwritten on every execution of the owning program.
#[derive(Debug, Default, Clone)]
pub struct ScanSummary {
    /// Rows visited by the scan.
    pub rows_scanned: u64,
    /// Aggregate per group: branch id → balance total.
    pub group_totals: BTreeMap<i64, f64>,
}

impl ScanSummary {
    /// Sum of every group's aggregate (the total bank balance).
    pub fn grand_total(&self) -> f64 {
        self.group_totals.values().sum()
    }
}

/// Shared landing pad for scan results: the program writes the latest
/// execution's `ScanSummary` into it, the owner reads it between runs.
pub type ScanSink = Mutex<ScanSummary>;

/// Factory for the analytical scan programs.
#[derive(Debug)]
pub struct AnalyticalScan;

impl AnalyticalScan {
    /// Transaction label of the TPC-B branch-balance aggregation.
    pub(crate) const BRANCH_BALANCES: &'static str = "analytics-branch-balances";

    /// Creates a fresh result sink.
    pub fn sink() -> Arc<ScanSink> {
        Arc::new(Mutex::new(ScanSummary::default()))
    }

    /// Per-branch balance aggregation over TPC-B's `account` table: sweep
    /// every account, group by branch id (`a_b_id`), sum balances. Under a
    /// consistent read (any engine, or a snapshot) the grand total equals
    /// the sum over the `branch` table's balances — every transfer is
    /// balance-conserving — which the property tests exploit.
    pub fn tpcb_branch_balances(db: &Database, sink: Arc<ScanSink>) -> DbResult<TxnProgram> {
        let account = db.table_id("account")?;
        Ok(TxnProgram::new(Self::BRANCH_BALANCES).step(Step::secondary(
            "scan-accounts",
            account,
            move |ctx| {
                let mut summary = ScanSummary::default();
                ctx.db.scan_table(ctx.txn, account, ctx.cc(), |_, row| {
                    summary.rows_scanned += 1;
                    if let (Ok(branch), Ok(balance)) = (row[1].as_int(), row[2].as_float()) {
                        *summary.group_totals.entry(branch).or_insert(0.0) += balance;
                    }
                })?;
                *sink.lock() = summary;
                Ok(())
            },
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Workload;
    use crate::tpcb::TpcB;

    #[test]
    fn branch_balances_are_conserved_and_read_only() {
        let db = Database::for_tests();
        let workload = TpcB::with_accounts(3, 40);
        workload.setup(&db).unwrap();

        let sink = AnalyticalScan::sink();
        let program = AnalyticalScan::tpcb_branch_balances(&db, Arc::clone(&sink)).unwrap();
        let prepared = program.prepare();
        assert!(prepared.is_read_only());

        // Snapshot execution: no engine, no locks.
        let snapshot = Arc::new(db.snapshot());
        prepared.run_snapshot(&db, &snapshot).unwrap();
        let summary = sink.lock().clone();
        assert_eq!(summary.rows_scanned, 3 * 40);
        assert_eq!(summary.group_totals.len(), 3);
        // Freshly loaded accounts all carry a zero balance.
        assert_eq!(summary.grand_total(), 0.0);
    }
}
