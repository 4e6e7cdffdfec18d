//! A high-fan-out counter workload for exercising the executor message path.
//!
//! One table of integer counters, one transaction type: bump `fanout`
//! *distinct* counters spread evenly across the key domain in a single
//! phase. Routed on the counter id, the phase fans out across many (often
//! all) of the table's executors at once, which makes this the sharpest
//! probe the harness has for dispatch cost: per transaction it generates
//! `fanout` action messages, `fanout` RVP reports and up to `executors`
//! commit notifications — exactly the "additional inter-core communication"
//! the paper's appendix identifies as DORA's overhead. The `dispatch`
//! benchmark drives it with message batching off and on and compares
//! throughput and lock acquisitions per action.

use std::sync::OnceLock;

use rand::rngs::SmallRng;
use rand::Rng;

use dora_common::prelude::*;
use dora_core::{DoraEngine, OnMissing, Param, Step, TxnProgram};
use dora_storage::{ColumnDef, Database, TableSchema};

use crate::spec::Workload;

/// The fan-out counters workload.
#[derive(Debug)]
pub struct FanoutCounters {
    keys: i64,
    fanout: usize,
    table: OnceLock<TableId>,
    /// The plan of a `fanout`-counter bump, built on first use.
    plan: OnceLock<TxnProgram>,
}

impl FanoutCounters {
    /// Transaction label used in reports.
    pub const BUMP: &'static str = "fanout-bump";

    /// Creates the workload over keys `1..=keys`, each transaction touching
    /// `fanout` distinct counters (`fanout` is clamped to the key count).
    pub fn new(keys: i64, fanout: usize) -> Self {
        let keys = keys.max(1);
        Self {
            keys,
            fanout: fanout.clamp(1, keys as usize),
            table: OnceLock::new(),
            plan: OnceLock::new(),
        }
    }

    /// Number of counter rows.
    pub fn keys(&self) -> i64 {
        self.keys
    }

    /// Counters bumped per transaction.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    fn table(&self, db: &Database) -> DbResult<TableId> {
        if let Some(table) = self.table.get() {
            return Ok(*table);
        }
        let table = db.table_id("fanout_counters")?;
        let _ = self.table.set(table);
        Ok(table)
    }

    /// The `fanout` distinct keys one transaction touches: a random anchor
    /// plus equal strides around the domain, so consecutive keys of one
    /// transaction land on *different* executors under a range rule. Returned
    /// sorted ascending (a deterministic global order keeps the baseline's
    /// centralized lock acquisition deadlock-free).
    pub fn pick_keys(&self, rng: &mut SmallRng) -> Vec<i64> {
        let anchor = rng.random_range(0..self.keys as u64) as i64;
        let stride = self.keys / self.fanout as i64;
        let mut keys: Vec<i64> = (0..self.fanout as i64)
            .map(|i| 1 + (anchor + i * stride).rem_euclid(self.keys))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// The bump transaction, defined once: one exclusive update per key, all
    /// in a single phase. Under DORA each update routes to its counter's
    /// executor (the fan-out); under the baseline they run sequentially in
    /// the keys' sorted order.
    pub fn bump_program(&self, db: &Database, keys: &[i64]) -> DbResult<TxnProgram> {
        let params = keys.iter().copied().collect();
        if keys.len() != self.fanout {
            return Ok(self.bump_plan(db, keys.len())?.bind(params));
        }
        if let Some(plan) = self.plan.get() {
            return Ok(plan.bind(params));
        }
        let plan = self.bump_plan(db, keys.len())?;
        Ok(self.plan.get_or_init(|| plan).bind(params))
    }

    /// The plan bumping `keys` counters, the `i`-th from parameter slot `i`.
    fn bump_plan(&self, db: &Database, keys: usize) -> DbResult<TxnProgram> {
        let table = self.table(db)?;
        let mut program = TxnProgram::new(Self::BUMP);
        for slot in 0..keys {
            let id = Param::new(slot, "id");
            program = program.step(Step::update(
                Self::BUMP,
                table,
                id,
                id,
                OnMissing::Error,
                |_ctx, row| {
                    let n = row[1].as_int()?;
                    row[1] = Value::Int(n + 1);
                    Ok(())
                },
            ));
        }
        Ok(program)
    }
}

impl Workload for FanoutCounters {
    fn name(&self) -> &'static str {
        "Fanout-Counters"
    }

    fn create_schema(&self, db: &Database) -> DbResult<()> {
        db.create_table(TableSchema::new(
            "fanout_counters",
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
        let keys = self.pick_keys(rng);
        self.bump_program(db, &keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{run_baseline_mix, run_dora_mix};
    use dora_core::DoraConfig;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn small() -> (Arc<Database>, FanoutCounters) {
        let db = Database::for_tests();
        let workload = FanoutCounters::new(64, 4);
        workload.setup(&db).unwrap();
        (db, workload)
    }

    fn total(db: &Database, workload: &FanoutCounters) -> i64 {
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
    fn picked_keys_are_distinct_in_range_and_spread() {
        let workload = FanoutCounters::new(64, 4);
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..200 {
            let keys = workload.pick_keys(&mut rng);
            assert_eq!(keys.len(), 4, "strided keys must be distinct");
            assert!(keys.iter().all(|&k| (1..=64).contains(&k)));
            // Equal strides: consecutive picks are a full quarter-domain
            // apart, so an even 4-range rule maps them to 4 executors.
            let spread = keys.windows(2).map(|w| w[1] - w[0]).min().unwrap();
            assert!(spread >= 8, "keys too clustered: {keys:?}");
        }
    }

    #[test]
    fn program_fans_out_in_a_single_phase() {
        let (db, workload) = small();
        let program = workload.bump_program(&db, &[1, 17, 33, 49]).unwrap();
        assert_eq!(program.step_count(), 4);
        assert_eq!(program.phase_count(), 1);
        let graph = program.compile_dora();
        assert_eq!(graph.phase_count(), 1);
        assert_eq!(graph.actions_in(0), 4);
    }

    #[test]
    fn baseline_applies_every_bump_exactly_once() {
        let (db, workload) = small();
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..100 {
            assert_eq!(
                run_baseline_mix(&workload, &db, &mut rng),
                TxnOutcome::Committed
            );
        }
        assert_eq!(total(&db, &workload), 400);
    }

    #[test]
    fn dora_fans_actions_across_every_executor() {
        let (db, workload) = small();
        let engine = Arc::new(DoraEngine::new(Arc::clone(&db), DoraConfig::for_tests()));
        workload.bind_dora(&engine, 4).unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..100 {
            assert_eq!(
                run_dora_mix(&workload, &engine, &mut rng),
                TxnOutcome::Committed
            );
        }
        assert_eq!(total(&db, &workload), 400);
        let table = workload.table(&db).unwrap();
        let loads = engine.executor_loads(table).unwrap();
        assert!(
            loads.iter().all(|&load| load > 0),
            "every executor must see work: {loads:?}"
        );
        engine.shutdown();
    }
}
