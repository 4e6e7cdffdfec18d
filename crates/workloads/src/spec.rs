//! The common workload interface and shared random-input helpers.
//!
//! A workload is a schema, a loader and a *mix* of transactions, each type
//! defined exactly once as a declarative [`TxnProgram`] plan (see
//! `dora_core::program`), built on first use and cached.
//! [`Workload::next_program`] draws one transaction from the mix — its
//! inputs, bound to its type's plan; the execution engines run it on their
//! architecture (sequentially for the conventional engine, as a flow graph
//! for DORA), so no workload ever writes a transaction body twice.
//! [`Workload::plans`] hands the same plans to DORA's bind-time conflict
//! analysis, which derives its templates from the steps, so no workload
//! declares a step's data effects twice either.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::Rng;

use dora_common::prelude::*;
use dora_core::{DoraEngine, TxnProgram};
use dora_metrics::LatencyHistogram;
use dora_storage::Database;

/// A benchmark workload: schema, loader and a transaction mix expressed as
/// single-source [`TxnProgram`]s.
pub trait Workload: Send + Sync {
    /// Short name used in reports ("TM1", "TPC-B", "TPC-C OrderStatus", ...).
    fn name(&self) -> &'static str;

    /// Creates the workload's tables and indexes.
    fn create_schema(&self, db: &Database) -> DbResult<()>;

    /// Populates the tables at the workload's configured scale.
    fn load(&self, db: &Database) -> DbResult<()>;

    /// Binds every table of the workload to DORA executors.
    fn bind_dora(&self, engine: &DoraEngine, executors_per_table: usize) -> DbResult<()>;

    /// The mix-selection hook: every transaction-type label this workload's
    /// mix can produce ([`TxnProgram::name`] of any program returned by
    /// [`next_program`](Self::next_program) is one of these).
    /// [`WorkloadStats::for_workload`] pre-registers them so per-type tallies
    /// have stable rows even for types that never fired.
    fn txn_labels(&self) -> &'static [&'static str];

    /// Draws one transaction from the workload's mix: inputs generated from
    /// `rng`, bound to the transaction type's cached plan, run by the caller
    /// on whichever execution architecture it uses.
    fn next_program(&self, db: &Database, rng: &mut SmallRng) -> DbResult<TxnProgram>;

    /// The cached plan of every transaction type the mix can produce, one
    /// per [`txn_labels`](Self::txn_labels) entry, in that order: what the
    /// bind-time conflict analysis reads, each step with the column effects
    /// it declares. The default (no plans) disables conflict analysis for
    /// the workload — no probes are elided and no program is auto-serialized.
    fn plans(&self, _db: &Database) -> DbResult<Vec<TxnProgram>> {
        Ok(Vec::new())
    }

    /// Convenience: create the schema and load the data in one call.
    fn setup(&self, db: &Database) -> DbResult<()> {
        self.create_schema(db)?;
        self.load(db)
    }
}

/// Per-transaction-type outcome tallies.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted for workload reasons.
    pub aborted: u64,
    /// Transactions that exhausted a conventional engine's retry budget.
    pub gave_up: u64,
}

/// One transaction type's full tally: outcomes plus response-time samples
/// (pg_meter-style per-type reporting — commits, aborts, gave-up, error rate
/// and mean/p99 response time in one row).
#[derive(Debug, Default, Clone)]
pub struct TxnTypeStats {
    /// Outcome tallies.
    pub counts: OutcomeCounts,
    /// Response-time samples for *every* outcome (aborts take time too).
    pub latency: LatencyHistogram,
}

impl TxnTypeStats {
    /// Transactions of this type that ran (any outcome).
    pub fn total(&self) -> u64 {
        self.counts.committed + self.counts.aborted + self.counts.gave_up
    }

    /// Fraction of runs that did not commit (0.0 when the type never fired).
    pub fn error_rate(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            (self.counts.aborted + self.counts.gave_up) as f64 / total as f64
        }
    }
}

/// Shared counters a workload can use to track per-transaction-type outcomes
/// (used by the intra-transaction-parallelism and abort-rate experiments).
/// Retry exhaustion ([`TxnOutcome::GaveUp`]) is tallied separately from
/// workload aborts so contention-induced failures stay visible. When the
/// caller times each transaction, [`record_timed`](Self::record_timed) also
/// feeds a per-type latency histogram for mean/p99 response-time reporting.
#[derive(Debug, Default, Clone)]
pub struct WorkloadStats {
    inner: Arc<Mutex<std::collections::HashMap<&'static str, TxnTypeStats>>>,
}

impl WorkloadStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates statistics with every label of `workload`'s mix
    /// pre-registered (all-zero tallies), so [`all_stats`](Self::all_stats)
    /// lists a row per transaction type even before — or without — the type
    /// ever firing.
    pub fn for_workload(workload: &dyn Workload) -> Self {
        let stats = Self::new();
        {
            let mut inner = stats.inner.lock();
            for label in workload.txn_labels() {
                inner.entry(label).or_default();
            }
        }
        stats
    }

    /// Every registered transaction type with its full per-type statistics
    /// (outcomes *and* latency), sorted by label — the rows of the
    /// pg_meter-style summary table.
    pub fn all_stats(&self) -> Vec<(&'static str, TxnTypeStats)> {
        let mut rows: Vec<_> = self
            .inner
            .lock()
            .iter()
            .map(|(label, stats)| (*label, stats.clone()))
            .collect();
        rows.sort_unstable_by_key(|(label, _)| *label);
        rows
    }

    /// Records an outcome *and* its response time for a transaction type.
    pub fn record_timed(&self, txn_type: &'static str, outcome: TxnOutcome, latency: Duration) {
        let mut inner = self.inner.lock();
        let entry = inner.entry(txn_type).or_default();
        match outcome {
            TxnOutcome::Committed => entry.counts.committed += 1,
            TxnOutcome::Aborted => entry.counts.aborted += 1,
            TxnOutcome::GaveUp => entry.counts.gave_up += 1,
        }
        entry.latency.record(latency);
    }

    /// Merges another recorder's tallies into this one (used to combine
    /// per-thread recorders after a run).
    pub fn merge(&self, other: &WorkloadStats) {
        if Arc::ptr_eq(&self.inner, &other.inner) {
            return;
        }
        let theirs = other.inner.lock();
        let mut ours = self.inner.lock();
        for (label, stats) in theirs.iter() {
            let entry = ours.entry(label).or_default();
            entry.counts.committed += stats.counts.committed;
            entry.counts.aborted += stats.counts.aborted;
            entry.counts.gave_up += stats.counts.gave_up;
            entry.latency.merge(&stats.latency);
        }
    }

    /// The tallies for a transaction type.
    pub fn outcome_counts(&self, txn_type: &'static str) -> OutcomeCounts {
        self.inner
            .lock()
            .get(txn_type)
            .map(|stats| stats.counts)
            .unwrap_or_default()
    }

    /// The full statistics (outcomes and latency) for a transaction type.
    pub fn type_stats(&self, txn_type: &'static str) -> TxnTypeStats {
        self.inner.lock().get(txn_type).cloned().unwrap_or_default()
    }
}

/// Test support: runs `program` on the conventional engine's sequential
/// plan under [`dora_core::retry_deadlocks`], the policy `dora_engine::BaselineEngine`
/// runs too (that engine lives above this crate in the dependency graph and
/// therefore cannot be used here).
#[cfg(test)]
pub(crate) fn run_baseline_once(db: &Arc<Database>, program: TxnProgram) -> DbResult<TxnOutcome> {
    let prepared = program.prepare();
    dora_core::retry_deadlocks(db.config().max_retries, || {
        let txn = db.begin();
        match prepared.run_baseline(db, &txn) {
            Ok(()) => db.commit(&txn),
            Err(err) => {
                db.abort(&txn)?;
                Err(err)
            }
        }
    })
}

/// Test support: draws the next transaction of `workload` and runs it on the
/// conventional retry loop, reducing the result to a [`TxnOutcome`].
#[cfg(test)]
pub(crate) fn run_baseline_mix(
    workload: &dyn Workload,
    db: &Arc<Database>,
    rng: &mut SmallRng,
) -> TxnOutcome {
    workload
        .next_program(db, rng)
        .and_then(|program| run_baseline_once(db, program))
        .unwrap_or(TxnOutcome::Aborted)
}

/// Test support: draws the next transaction of `workload` and executes its
/// DORA compilation on `engine`.
#[cfg(test)]
pub(crate) fn run_dora_mix(
    workload: &dyn Workload,
    engine: &DoraEngine,
    rng: &mut SmallRng,
) -> TxnOutcome {
    match workload
        .next_program(engine.db(), rng)
        .and_then(|program| engine.execute(program.compile_dora()))
    {
        Ok(()) => TxnOutcome::Committed,
        Err(_) => TxnOutcome::Aborted,
    }
}

/// TPC-C's non-uniform random distribution NURand(A, x, y).
pub(crate) fn nurand(rng: &mut SmallRng, a: i64, x: i64, y: i64) -> i64 {
    let c = 42; // constant C, fixed for the run as the spec allows
    ((((rng.random_range(0..=a)) | (rng.random_range(x..=y))) + c) % (y - x + 1)) + x
}

/// TPC-C customer last-name generator: concatenates three syllables chosen by
/// the digits of `num` (0..=999).
pub(crate) fn c_last(num: i64) -> String {
    const SYLLABLES: [&str; 10] = [
        "BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING",
    ];
    let num = num.clamp(0, 999) as usize;
    format!(
        "{}{}{}",
        SYLLABLES[num / 100],
        SYLLABLES[(num / 10) % 10],
        SYLLABLES[num % 10]
    )
}

/// Uniform integer in `[low, high]` (inclusive).
pub(crate) fn uniform(rng: &mut SmallRng, low: i64, high: i64) -> i64 {
    rng.random_range(low..=high)
}

/// `true` with probability `percent` (0..=100).
pub(crate) fn chance(rng: &mut SmallRng, percent: u32) -> bool {
    rng.random_range(0..100u32) < percent
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn nurand_stays_in_range() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let value = nurand(&mut rng, 1023, 1, 3000);
            assert!((1..=3000).contains(&value));
        }
    }

    #[test]
    fn c_last_is_deterministic_and_composed_of_syllables() {
        assert_eq!(c_last(0), "BARBARBAR");
        assert_eq!(c_last(371), "PRICALLYOUGHT");
        assert_eq!(c_last(999), "EINGEINGEING");
        assert_eq!(c_last(-5), "BARBARBAR", "out-of-range values are clamped");
    }

    #[test]
    fn chance_and_uniform_hold_bounds() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut hits = 0;
        for _ in 0..10_000 {
            let v = uniform(&mut rng, 5, 9);
            assert!((5..=9).contains(&v));
            if chance(&mut rng, 25) {
                hits += 1;
            }
        }
        assert!(hits > 1_500 && hits < 3_500, "25% chance was {hits}/10000");
    }

    #[test]
    fn workload_stats_accumulate_three_way() {
        let stats = WorkloadStats::new();
        stats.record_timed("payment", TxnOutcome::Committed, Duration::ZERO);
        stats.record_timed("payment", TxnOutcome::Committed, Duration::ZERO);
        stats.record_timed("payment", TxnOutcome::Aborted, Duration::ZERO);
        stats.record_timed("payment", TxnOutcome::GaveUp, Duration::ZERO);
        assert_eq!(
            stats.outcome_counts("payment"),
            OutcomeCounts {
                committed: 2,
                aborted: 1,
                gave_up: 1
            }
        );
        assert_eq!(stats.outcome_counts("unknown"), OutcomeCounts::default());
    }

    #[test]
    fn record_timed_feeds_per_type_latency_and_merge_combines() {
        let stats = WorkloadStats::new();
        stats.record_timed("payment", TxnOutcome::Committed, Duration::from_micros(100));
        stats.record_timed("payment", TxnOutcome::Aborted, Duration::from_micros(300));
        let row = stats.type_stats("payment");
        assert_eq!(row.total(), 2);
        assert_eq!(row.counts.committed, 1);
        assert_eq!(row.error_rate(), 0.5);
        assert_eq!(row.latency.count(), 2);
        assert_eq!(row.latency.mean(), Duration::from_micros(200));
        stats.record_timed("payment", TxnOutcome::GaveUp, Duration::from_micros(200));
        assert_eq!(stats.type_stats("payment").total(), 3);
        assert_eq!(stats.type_stats("payment").latency.count(), 3);
        // Merging a second per-thread recorder combines both dimensions.
        let other = WorkloadStats::new();
        other.record_timed("payment", TxnOutcome::Committed, Duration::from_micros(500));
        other.record_timed("deposit", TxnOutcome::Committed, Duration::from_micros(50));
        stats.merge(&other);
        assert_eq!(stats.type_stats("payment").total(), 4);
        assert_eq!(stats.type_stats("payment").latency.count(), 4);
        assert_eq!(stats.type_stats("deposit").counts.committed, 1);
        // Self-merge is a no-op, not a deadlock or a double-count.
        stats.merge(&stats.clone());
        assert_eq!(stats.type_stats("payment").total(), 4);
        assert!(stats.all_stats().windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn for_workload_preregisters_every_mix_label() {
        let workload = crate::tm1::Tm1::new(10);
        let stats = WorkloadStats::for_workload(&workload);
        let rows = stats.all_stats();
        assert_eq!(rows.len(), workload.txn_labels().len());
        assert!(rows
            .iter()
            .all(|(_, stats)| stats.counts == OutcomeCounts::default()));
        // Labels stay present (and sorted) alongside recorded types.
        stats.record_timed(
            crate::tm1::Tm1::GET_SUBSCRIBER_DATA,
            TxnOutcome::Committed,
            Duration::ZERO,
        );
        let rows = stats.all_stats();
        assert_eq!(rows.len(), workload.txn_labels().len());
        assert!(rows.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(
            stats
                .outcome_counts(crate::tm1::Tm1::GET_SUBSCRIBER_DATA)
                .committed,
            1
        );
    }
}
