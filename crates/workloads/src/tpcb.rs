//! TPC-B: the classic bank-transfer benchmark.
//!
//! One transaction type: deposit/withdraw an amount from an account, updating
//! the account, its teller and its branch balances and appending a history
//! record. The paper uses TPC-B (100 branches) for the lock-manager-internal
//! time breakdown of Figure 3 and the load sweeps of Figures 5 and 6, noting
//! that its 2:1 ratio of row-level to higher-level locks makes the baseline's
//! lock-manager contention somewhat milder than TM1's.
//!
//! Scaling: one branch has 10 tellers and `accounts_per_branch` accounts. All
//! tables route on the branch id; the account id encodes its branch so the
//! Account table's routing field is still the leading primary-key column.

use std::sync::OnceLock;

use rand::rngs::SmallRng;

use dora_common::prelude::*;
use dora_core::{DoraEngine, OnDuplicate, OnMissing, Param, Params, StepCtx, TxnProgram};

use dora_storage::{ColumnDef, Database, TableSchema};

use crate::spec::{chance, uniform, Workload};

/// Tellers per branch (fixed by the TPC-B specification).
pub(crate) const TELLERS_PER_BRANCH: i64 = 10;

#[derive(Debug, Clone, Copy)]
struct TpcbTables {
    branch: TableId,
    teller: TableId,
    account: TableId,
    history: TableId,
}

/// The TPC-B workload.
#[derive(Debug)]
pub struct TpcB {
    branches: i64,
    accounts_per_branch: i64,
    /// Fraction (percent) of transactions that touch an account of a remote
    /// branch (15% in the specification, like TPC-C Payment's remote
    /// customers).
    remote_percent: u32,
    tables: OnceLock<TpcbTables>,
    /// The account-update plan, built on first use.
    plan: OnceLock<TxnProgram>,
}

impl TpcB {
    /// Transaction label used in reports.
    pub const ACCOUNT_UPDATE: &'static str = "tpcb-account-update";

    /// Creates a TPC-B workload with the given number of branches and 1 000
    /// accounts per branch.
    pub fn new(branches: i64) -> Self {
        Self::with_accounts(branches, 1_000)
    }

    /// Creates a TPC-B workload with an explicit accounts-per-branch scale
    /// (tests use small values).
    pub fn with_accounts(branches: i64, accounts_per_branch: i64) -> Self {
        Self {
            branches: branches.max(1),
            accounts_per_branch: accounts_per_branch.max(1),
            remote_percent: 15,
            tables: OnceLock::new(),
            plan: OnceLock::new(),
        }
    }

    fn tables(&self, db: &Database) -> DbResult<TpcbTables> {
        if let Some(tables) = self.tables.get() {
            return Ok(*tables);
        }
        let tables = TpcbTables {
            branch: db.table_id("branch")?,
            teller: db.table_id("teller")?,
            account: db.table_id("account")?,
            history: db.table_id("history_b")?,
        };
        let _ = self.tables.set(tables);
        Ok(tables)
    }

    fn account_id(&self, branch: i64, local_account: i64) -> i64 {
        (branch - 1) * self.accounts_per_branch + local_account
    }

    fn teller_id(branch: i64, local_teller: i64) -> i64 {
        (branch - 1) * TELLERS_PER_BRANCH + local_teller
    }

    /// Generates the inputs of one transaction: (branch of the teller,
    /// account branch, account id, teller id, amount). Public so external
    /// drivers (e.g. a serving front-end submitting parameter batches) can
    /// draw spec-conformant inputs without going through
    /// [`Workload::next_program`].
    pub fn inputs(&self, rng: &mut SmallRng) -> (i64, i64, i64, i64, f64) {
        let home_branch = uniform(rng, 1, self.branches);
        let teller = Self::teller_id(home_branch, uniform(rng, 1, TELLERS_PER_BRANCH));
        let account_branch = if self.branches > 1 && chance(rng, self.remote_percent) {
            // Remote account: uniformly among the other branches.
            let mut other = uniform(rng, 1, self.branches - 1);
            if other >= home_branch {
                other += 1;
            }
            other
        } else {
            home_branch
        };
        let account = self.account_id(account_branch, uniform(rng, 1, self.accounts_per_branch));
        let amount = uniform(rng, -99_999, 99_999) as f64 / 100.0;
        (home_branch, account_branch, account, teller, amount)
    }

    /// The account-update transaction, defined once: the three balance
    /// updates form one phase (under DORA they run in parallel, possibly on
    /// three different executors — the account may even belong to a remote
    /// branch); after the RVP, the History append runs, like Payment's in
    /// Figure 4.
    pub fn account_update_program(
        &self,
        db: &Database,
        home_branch: i64,
        account: i64,
        teller: i64,
        amount: f64,
    ) -> DbResult<TxnProgram> {
        let params = Params::of([home_branch, account, teller]).with_float(amount);
        if let Some(plan) = self.plan.get() {
            return Ok(plan.bind(params));
        }
        let plan = self.account_update_plan(db)?;
        Ok(self.plan.get_or_init(|| plan).bind(params))
    }

    /// The plan of [`account_update_program`](Self::account_update_program),
    /// built once.
    fn account_update_plan(&self, db: &Database) -> DbResult<TxnProgram> {
        let tables = self.tables(db)?;
        let add_amount = |column: usize| {
            move |ctx: &StepCtx<'_>, row: &mut Row| {
                let balance = row[column].as_float()?;
                row[column] = Value::Float(balance + ctx.float(AMOUNT)?);
                Ok(())
            }
        };
        Ok(TxnProgram::new(Self::ACCOUNT_UPDATE)
            .update(
                "update-account",
                tables.account,
                ACCOUNT,
                ACCOUNT,
                OnMissing::Error,
                add_amount(2),
            )
            .update(
                "update-teller",
                tables.teller,
                TELLER,
                TELLER,
                OnMissing::Error,
                add_amount(2),
            )
            .update(
                "update-branch",
                tables.branch,
                BRANCH,
                BRANCH,
                OnMissing::Error,
                add_amount(1),
            )
            .rvp()
            .insert(
                "insert-history",
                tables.history,
                BRANCH,
                OnDuplicate::Error,
                |ctx| {
                    Ok(vec![
                        Value::Int(ctx.int(BRANCH)?),
                        Value::Int(ctx.int(TELLER)?),
                        Value::Int(ctx.int(ACCOUNT)?),
                        Value::Float(ctx.float(AMOUNT)?),
                        Value::Int(ctx.txn.id().0 as i64),
                    ])
                },
            ))
    }
}

/// The parameter slots of the account-update plan.
const BRANCH: Param = Param::new(0, "b_id");
const ACCOUNT: Param = Param::new(1, "a_id");
const TELLER: Param = Param::new(2, "t_id");
const AMOUNT: Param = Param::new(3, "amount");

impl Workload for TpcB {
    fn name(&self) -> &'static str {
        "TPC-B"
    }

    fn create_schema(&self, db: &Database) -> DbResult<()> {
        db.create_table(TableSchema::new(
            "branch",
            vec![
                ColumnDef::new("b_id", ValueType::Int),
                ColumnDef::new("b_balance", ValueType::Float),
            ],
            vec![0],
        ))?;
        db.create_table(TableSchema::new(
            "teller",
            vec![
                ColumnDef::new("t_id", ValueType::Int),
                ColumnDef::new("t_b_id", ValueType::Int),
                ColumnDef::new("t_balance", ValueType::Float),
            ],
            vec![0],
        ))?;
        db.create_table(TableSchema::new(
            "account",
            vec![
                ColumnDef::new("a_id", ValueType::Int),
                ColumnDef::new("a_b_id", ValueType::Int),
                ColumnDef::new("a_balance", ValueType::Float),
            ],
            vec![0],
        ))?;
        db.create_table(TableSchema::new(
            "history_b",
            vec![
                ColumnDef::new("h_b_id", ValueType::Int),
                ColumnDef::new("h_t_id", ValueType::Int),
                ColumnDef::new("h_a_id", ValueType::Int),
                ColumnDef::new("h_amount", ValueType::Float),
                ColumnDef::new("h_tid", ValueType::Int),
            ],
            // History has no natural primary key in TPC-B; the appending
            // transaction's id makes the synthetic key unique while keeping
            // the branch id as the leading (routing) column.
            vec![0, 4],
        ))?;
        Ok(())
    }

    fn load(&self, db: &Database) -> DbResult<()> {
        let tables = self.tables(db)?;
        for branch in 1..=self.branches {
            db.load_row(tables.branch, vec![Value::Int(branch), Value::Float(0.0)])?;
            for teller in 1..=TELLERS_PER_BRANCH {
                db.load_row(
                    tables.teller,
                    vec![
                        Value::Int(Self::teller_id(branch, teller)),
                        Value::Int(branch),
                        Value::Float(0.0),
                    ],
                )?;
            }
            for account in 1..=self.accounts_per_branch {
                db.load_row(
                    tables.account,
                    vec![
                        Value::Int(self.account_id(branch, account)),
                        Value::Int(branch),
                        Value::Float(0.0),
                    ],
                )?;
            }
        }
        Ok(())
    }

    fn bind_dora(&self, engine: &DoraEngine, executors_per_table: usize) -> DbResult<()> {
        let tables = self.tables(engine.db())?;
        engine.bind_table(tables.branch, executors_per_table, 1, self.branches)?;
        engine.bind_table(
            tables.teller,
            executors_per_table,
            1,
            self.branches * TELLERS_PER_BRANCH,
        )?;
        engine.bind_table(
            tables.account,
            executors_per_table,
            1,
            self.branches * self.accounts_per_branch,
        )?;
        engine.bind_table(tables.history, executors_per_table, 1, self.branches)?;
        Ok(())
    }

    fn txn_labels(&self) -> &'static [&'static str] {
        &[Self::ACCOUNT_UPDATE]
    }

    fn next_program(&self, db: &Database, rng: &mut SmallRng) -> DbResult<TxnProgram> {
        let (home_branch, _account_branch, account, teller, amount) = self.inputs(rng);
        self.account_update_program(db, home_branch, account, teller, amount)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{run_baseline_mix, run_dora_mix};
    use dora_core::DoraConfig;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn small_tpcb() -> (Arc<Database>, TpcB) {
        let db = Database::for_tests();
        let workload = TpcB::with_accounts(4, 25);
        workload.setup(&db).unwrap();
        (db, workload)
    }

    fn total_balance(db: &Database, workload: &TpcB) -> (f64, f64, f64) {
        let tables = workload.tables(db).unwrap();
        let txn = db.begin();
        let mut branches = 0.0;
        let mut tellers = 0.0;
        let mut accounts = 0.0;
        db.scan_table(&txn, tables.branch, CcMode::Full, |_, row| {
            branches += row[1].as_float().unwrap();
        })
        .unwrap();
        db.scan_table(&txn, tables.teller, CcMode::Full, |_, row| {
            tellers += row[2].as_float().unwrap();
        })
        .unwrap();
        db.scan_table(&txn, tables.account, CcMode::Full, |_, row| {
            accounts += row[2].as_float().unwrap();
        })
        .unwrap();
        db.commit(&txn).unwrap();
        (branches, tellers, accounts)
    }

    #[test]
    fn load_creates_expected_row_counts() {
        let (db, workload) = small_tpcb();
        let tables = workload.tables(&db).unwrap();
        assert_eq!(db.row_count(tables.branch).unwrap(), 4);
        assert_eq!(db.row_count(tables.teller).unwrap(), 40);
        assert_eq!(db.row_count(tables.account).unwrap(), 100);
        assert_eq!(db.row_count(tables.history).unwrap(), 0);
    }

    #[test]
    fn program_has_the_figure4_shape() {
        let (db, workload) = small_tpcb();
        let program = workload.account_update_program(&db, 1, 1, 1, 10.0).unwrap();
        assert_eq!(program.name(), TpcB::ACCOUNT_UPDATE);
        assert_eq!(program.step_count(), 4);
        assert_eq!(program.phase_count(), 2);
        let graph = program.compile_dora();
        assert_eq!(graph.phase_count(), 2);
        assert_eq!(graph.actions_in(0), 3);
        assert_eq!(graph.actions_in(1), 1);
    }

    #[test]
    fn baseline_preserves_balance_invariant() {
        let (db, workload) = small_tpcb();
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..100 {
            assert_eq!(
                run_baseline_mix(&workload, &db, &mut rng),
                TxnOutcome::Committed
            );
        }
        let (branches, tellers, accounts) = total_balance(&db, &workload);
        // Every transaction adds the same amount to one branch, one teller
        // and one account, so the three totals must agree.
        assert!((branches - tellers).abs() < 1e-6);
        assert!((branches - accounts).abs() < 1e-6);
        let tables = workload.tables(&db).unwrap();
        assert_eq!(db.row_count(tables.history).unwrap(), 100);
    }

    #[test]
    fn dora_preserves_balance_invariant_under_concurrency() {
        let (db, workload) = small_tpcb();
        let workload = Arc::new(workload);
        let engine = Arc::new(DoraEngine::new(Arc::clone(&db), DoraConfig::for_tests()));
        workload.bind_dora(&engine, 2).unwrap();
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let engine = Arc::clone(&engine);
                let workload = Arc::clone(&workload);
                std::thread::spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(100 + t);
                    for _ in 0..50 {
                        assert_eq!(
                            run_dora_mix(workload.as_ref(), &engine, &mut rng),
                            TxnOutcome::Committed
                        );
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let (branches, tellers, accounts) = total_balance(&db, &workload);
        assert!(
            (branches - tellers).abs() < 1e-6,
            "branch={branches} teller={tellers}"
        );
        assert!(
            (branches - accounts).abs() < 1e-6,
            "branch={branches} accounts={accounts}"
        );
        let tables = workload.tables(&db).unwrap();
        assert_eq!(db.row_count(tables.history).unwrap(), 200);
        engine.shutdown();
    }

    #[test]
    fn remote_accounts_route_to_other_branches() {
        let workload = TpcB::new(10);
        let mut rng = SmallRng::seed_from_u64(9);
        let mut remote = 0;
        let total = 2_000;
        for _ in 0..total {
            let (home, account_branch, _, _, _) = workload.inputs(&mut rng);
            if home != account_branch {
                remote += 1;
            }
        }
        let rate = remote as f64 / total as f64;
        assert!(
            rate > 0.10 && rate < 0.20,
            "remote rate {rate} should be near 15%"
        );
    }
}
