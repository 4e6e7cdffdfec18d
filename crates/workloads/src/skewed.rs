//! A zipfian-skewed counter workload for exercising adaptive repartitioning.
//!
//! One table of integer counters, one transaction type: read-modify-write a
//! single counter drawn from a `DriftingHotSpot` distribution. Because the
//! transaction is trivially cheap and every key routes on itself, per-executor
//! serviced-action counts mirror the key distribution exactly — which makes
//! this the sharpest probe for routing-rule quality the harness has: a
//! static even-range rule funnels almost everything to the executor owning
//! the hot range, while an adaptive rule should restore DORA's flat
//! contention profile.
//!
//! Two scenario families:
//! * **θ sweep** — fixed hot range, skew from uniform (`θ=0`) to harsh
//!   (`θ≥0.99`).
//! * **hot-spot migration** — the hot range drifts across the key domain as
//!   the run progresses, so any one-shot rebalance goes stale.

use std::sync::OnceLock;

use rand::rngs::SmallRng;

use dora_common::prelude::*;
use dora_core::{DoraEngine, OnMissing, Param, Params, TxnProgram};
use dora_storage::{ColumnDef, Database, TableSchema};

use crate::spec::Workload;
use crate::zipf::DriftingHotSpot;

/// The skewed-counters workload.
#[derive(Debug)]
pub struct SkewedCounters {
    keys: i64,
    generator: DriftingHotSpot,
    table: OnceLock<TableId>,
    /// The bump plan, built on first use.
    plan: OnceLock<TxnProgram>,
}

impl SkewedCounters {
    /// Transaction label used in reports.
    pub(crate) const BUMP: &'static str = "skewed-bump";

    /// Creates the workload over keys `1..=keys` with zipfian skew `theta`
    /// and a static hot range.
    pub fn new(keys: i64, theta: f64) -> Self {
        let keys = keys.max(1);
        Self {
            keys,
            generator: DriftingHotSpot::new(1, keys, theta),
            table: OnceLock::new(),
            plan: OnceLock::new(),
        }
    }

    /// Enables hot-spot migration: every `drift_every` transactions the hot
    /// range advances by `drift_step` keys.
    pub fn with_drift(mut self, drift_every: u64, drift_step: i64) -> Self {
        self.generator = DriftingHotSpot::new(1, self.keys, self.generator.zipfian().theta())
            .with_drift(drift_every, drift_step);
        self
    }

    fn table(&self, db: &Database) -> DbResult<TableId> {
        if let Some(table) = self.table.get() {
            return Ok(*table);
        }
        let table = db.table_id("skewed_counters")?;
        let _ = self.table.set(table);
        Ok(table)
    }

    /// The bump transaction, defined once: a single-phase, single-step
    /// read-modify-write routed on the counter id.
    pub(crate) fn bump_program(&self, db: &Database, key: i64) -> DbResult<TxnProgram> {
        const ID: Param = Param::new(0, "id");
        if let Some(plan) = self.plan.get() {
            return Ok(plan.bind(Params::of([key])));
        }
        let table = self.table(db)?;
        let plan = TxnProgram::new(Self::BUMP).update(
            Self::BUMP,
            table,
            ID,
            ID,
            OnMissing::Error,
            |_ctx, row| {
                let n = row[1].as_int()?;
                row[1] = Value::Int(n + 1);
                Ok(())
            },
        );
        Ok(self.plan.get_or_init(|| plan).bind(Params::of([key])))
    }
}

impl Workload for SkewedCounters {
    fn name(&self) -> &'static str {
        "Skewed-Counters"
    }

    fn create_schema(&self, db: &Database) -> DbResult<()> {
        db.create_table(TableSchema::new(
            "skewed_counters",
            vec![
                ColumnDef::new("id", ValueType::Int),
                ColumnDef::new("n", ValueType::Int),
            ],
            vec![0],
        ))?;
        Ok(())
    }

    fn load(&self, db: &Database) -> DbResult<()> {
        let table = self.table(db)?;
        for id in 1..=self.keys {
            db.load_row(table, vec![Value::Int(id), Value::Int(0)])?;
        }
        Ok(())
    }

    fn bind_dora(&self, engine: &DoraEngine, executors_per_table: usize) -> DbResult<()> {
        let table = self.table(engine.db())?;
        engine.bind_table(table, executors_per_table, 1, self.keys)
    }

    fn txn_labels(&self) -> &'static [&'static str] {
        &[Self::BUMP]
    }

    fn next_program(&self, db: &Database, rng: &mut SmallRng) -> DbResult<TxnProgram> {
        let key = self.generator.key(rng);
        self.bump_program(db, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{run_baseline_mix, run_dora_mix};
    use dora_core::DoraConfig;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn small() -> (Arc<Database>, SkewedCounters) {
        let db = Database::for_tests();
        let workload = SkewedCounters::new(100, 0.99);
        workload.setup(&db).unwrap();
        (db, workload)
    }

    fn total(db: &Database, workload: &SkewedCounters) -> i64 {
        let table = workload.table(db).unwrap();
        let txn = db.begin();
        let mut sum = 0i64;
        db.scan_table(&txn, table, CcMode::Full, |_, row| {
            sum += row[1].as_int().unwrap();
        })
        .unwrap();
        db.commit(&txn).unwrap();
        sum
    }

    #[test]
    fn load_creates_all_counters() {
        let (db, workload) = small();
        let table = workload.table(&db).unwrap();
        assert_eq!(db.row_count(table).unwrap(), 100);
    }

    #[test]
    fn baseline_applies_every_bump_exactly_once() {
        let (db, workload) = small();
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..200 {
            assert_eq!(
                run_baseline_mix(&workload, &db, &mut rng),
                TxnOutcome::Committed
            );
        }
        assert_eq!(total(&db, &workload), 200);
    }

    #[test]
    fn dora_skews_executor_loads_toward_the_hot_range() {
        let (db, workload) = small();
        let workload = Arc::new(workload);
        let engine = Arc::new(DoraEngine::new(Arc::clone(&db), DoraConfig::for_tests()));
        workload.bind_dora(&engine, 4).unwrap();
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..400 {
            assert_eq!(
                run_dora_mix(workload.as_ref(), &engine, &mut rng),
                TxnOutcome::Committed
            );
        }
        assert_eq!(total(&db, &workload), 400);
        let table = workload.table(&db).unwrap();
        let loads = engine.executor_loads(table).unwrap();
        // Keys 1..=25 hold the zipfian head, so executor 0 must dominate
        // under the static even-range rule.
        assert!(
            loads[0] > loads[1] + loads[2] + loads[3],
            "hot-range executor must dominate: {loads:?}"
        );
        engine.shutdown();
    }

    #[test]
    fn drift_retargets_the_hot_range() {
        // At this skew every draw is rank 1, so each key drawn is the
        // current hot spot.
        let workload = SkewedCounters::new(100, 50.0).with_drift(500, 50);
        let mut rng = SmallRng::seed_from_u64(4);
        assert_eq!(workload.generator.key(&mut rng), 1);
        for _ in 1..500 {
            workload.generator.key(&mut rng);
        }
        assert_eq!(workload.generator.key(&mut rng), 51);
    }
}
