//! The system under test. This is the only file of the benchmark that names
//! the repository's APIs — engine build/bind, prepare/execute, the metrics
//! registry, the constructors the probes need and the tables the checks read
//! — so a rename in the repository costs a fix here and nowhere else.
//!
//! Everything is measured from outside: calls into `pub` items, deltas of
//! the public counters, and single-thread probes of each layer's public API.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use dora_common::prelude::*;
use dora_core::{DoraConfig, LocalLockTable, LocalMode, OnMissing, RoutingRule};
use dora_engine::{build_engine_with, ExecutionEngine};
use dora_metrics::{CounterKind as C, Snapshot as MetricsSnapshot, TimeCategory as T};
use dora_server::{Server, ServerConfig};
use dora_storage::btree::{BTreeIndex, IndexEntry};
use dora_storage::buffer::{BufferPool, PageStore};
use dora_storage::heap::HeapFile;
use dora_storage::lock::HeldLocks;
use dora_storage::{Database, LockId, LockManager, LockMode, LogManager, LogRecordKind, StreamId};
use dora_workloads::{AnalyticalScan, ScanSink, Tm1, TpcB, Tpcc, Workload};

use crate::probe::ns_per_op;
use crate::report::Metrics;

/// A transaction drawn from a workload's mix, not yet compiled.
pub type Program = dora_core::TxnProgram;
/// A compiled transaction, ready to execute.
pub type Prepared = dora_core::PreparedProgram;

// ----- fixed environment ----------------------------------------------------

/// DORA executors bound to each table.
pub const EXECUTORS_PER_TABLE: usize = 2;
/// Simulated log-device write latency.
pub const LOG_FLUSH_MICROS: u64 = 40;
/// Log records between two fuzzy checkpoints (with reclamation, the default,
/// this keeps the in-memory log bounded and completes several cycles per run
/// on the write-heavy workloads).
pub const CHECKPOINT_INTERVAL: u64 = 200_000;
/// Buffer pool: 4096 pages of 8 KiB = 32 MiB.
pub const BUFFER_POOL_PAGES: usize = 4096;

/// Resubmissions of a deadlock victim before the client gives up (the
/// conventional engine's own `max_retries` default).
const DEADLOCK_RETRIES: usize = 10;

const TM1_SUBSCRIBERS: i64 = 100_000;
const TPCB_BRANCHES: i64 = 100;
const TPCB_ACCOUNTS_PER_BRANCH: i64 = 1_000;
const TPCC_SCALE: (i64, i64, i64) = (4, 300, 1_000);

fn system_config() -> SystemConfig {
    SystemConfig {
        log_flush_micros: LOG_FLUSH_MICROS,
        buffer_pool_pages: BUFFER_POOL_PAGES,
        durability: DurabilityConfig {
            checkpoint_interval: CHECKPOINT_INTERVAL,
            ..DurabilityConfig::default()
        },
        ..SystemConfig::default()
    }
}

// ----- workloads --------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Tm1,
    Tpcb,
    Tpcc,
}

/// One benchmark workload: the engine is part of it.
#[derive(Debug)]
pub struct WorkloadDef {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    kind: Kind,
    engine: EngineKind,
    /// Threads submitting transactions.
    pub clients: usize,
    /// One more thread sweeps analytical scans on fresh snapshots.
    pub scans: bool,
    /// Open-loop arrival rates (txn/s): about 40 % and 70 % of the seed
    /// commit's closed-loop throughput on the reference host, frozen.
    pub rate_mid: f64,
    pub rate_hi: f64,
    /// Latency limit on the p99 for `driver.slo_rate_tps`.
    pub slo_us: f64,
    /// Band the share of rollbacks the workload's specification asks for
    /// must fall in (TM1's missing rows, TPC-C's 1 % NewOrder rollbacks).
    pub rollback_share: (f64, f64),
}

pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "tm1_mix",
        why: "DORA, TM1 mix, 100k subscribers: 20-30 us transactions, 80% reads, so per-transaction fixed costs (program build and compile, dispatch hop, point reads) dominate; data is 1.7x the buffer pool",
        kind: Kind::Tm1,
        engine: EngineKind::Dora,
        clients: 2,
        scans: false,
        rate_mid: 12_000.0,
        rate_hi: 20_000.0,
        slo_us: 1_000.0,
        rollback_share: (0.18, 0.30),
    },
    WorkloadDef {
        name: "tm1_mix_baseline",
        why: "the same arrivals on the conventional engine: the centralized lock manager does the work and dora-core none, so it bypasses every DORA-core change and guards the storage both engines share",
        kind: Kind::Tm1,
        engine: EngineKind::Baseline,
        clients: 2,
        scans: false,
        rate_mid: 12_000.0,
        rate_hi: 20_000.0,
        slo_us: 1_000.0,
        rollback_share: (0.18, 0.30),
    },
    WorkloadDef {
        name: "tpcb",
        why: "DORA, TPC-B, 100 branches x 1000 accounts: all writes, 6 log records and a durable commit per transaction on a 40 us device, so the log and version install dominate; the data fits the cache",
        kind: Kind::Tpcb,
        engine: EngineKind::Dora,
        clients: 2,
        scans: false,
        rate_mid: 4_000.0,
        rate_hi: 7_000.0,
        slo_us: 2_000.0,
        rollback_share: (0.0, 0.0),
    },
    WorkloadDef {
        name: "tpcc_mix",
        why: "DORA, TPC-C five-transaction mix, 4 warehouses: multi-phase flow graphs with RVPs, inserts, deletes, secondary and range reads on hot rows, so local locks, fan-out and insert paths dominate",
        kind: Kind::Tpcc,
        engine: EngineKind::Dora,
        clients: 2,
        scans: false,
        rate_mid: 1_200.0,
        rate_hi: 1_800.0,
        slo_us: 20_000.0,
        rollback_share: (0.0, 0.03),
    },
    WorkloadDef {
        name: "htap_tpcb",
        why: "DORA, one TPC-B client beside a thread sweeping balance scans on fresh snapshots: version chains, snapshot pins and GC serve reads beside writes, so a gain for one side that taxes the other shows",
        kind: Kind::Tpcb,
        engine: EngineKind::Dora,
        clients: 1,
        scans: true,
        rate_mid: 1_600.0,
        rate_hi: 2_600.0,
        slo_us: 2_000.0,
        rollback_share: (0.0, 0.0),
    },
];

/// Every transaction label any workload's mix can produce, in metric order.
pub fn all_txn_labels() -> Vec<&'static str> {
    let mut labels = Tm1::ALL_LABELS.to_vec();
    labels.push(TpcB::ACCOUNT_UPDATE);
    labels.extend(Tpcc::ALL_LABELS);
    labels
}

/// What one transaction came to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Committed,
    /// Rolled back for a workload reason (the specification's invalid
    /// inputs); not retried, not a failure of the system.
    RolledBack,
    /// A conventional engine exhausted its deadlock retries.
    GaveUp,
    /// Any other error.
    Error,
}

/// The workload's table the point probes read, and how to address row `i`.
struct ProbeTarget {
    table: &'static str,
    rows: i64,
    key: fn(i64) -> Key,
    route: fn(i64) -> Key,
}

fn tpcc_customer(i: i64) -> (i64, i64, i64) {
    let (warehouses, customers, _) = TPCC_SCALE;
    let customer = i % customers + 1;
    let district = (i / customers) % 10 + 1;
    let warehouse = (i / (customers * 10)) % warehouses + 1;
    (warehouse, district, customer)
}

impl Kind {
    fn probe_target(self) -> ProbeTarget {
        match self {
            Kind::Tm1 => ProbeTarget {
                table: "subscriber",
                rows: TM1_SUBSCRIBERS,
                key: |i| Key::int(i % TM1_SUBSCRIBERS + 1),
                route: |i| Key::int(i % TM1_SUBSCRIBERS + 1),
            },
            Kind::Tpcb => ProbeTarget {
                table: "account",
                rows: TPCB_BRANCHES * TPCB_ACCOUNTS_PER_BRANCH,
                key: |i| Key::int(i % (TPCB_BRANCHES * TPCB_ACCOUNTS_PER_BRANCH) + 1),
                route: |i| Key::int(i % (TPCB_BRANCHES * TPCB_ACCOUNTS_PER_BRANCH) + 1),
            },
            Kind::Tpcc => ProbeTarget {
                table: "customer",
                rows: TPCC_SCALE.0 * 10 * TPCC_SCALE.1,
                key: |i| {
                    let (w, d, c) = tpcc_customer(i);
                    Key::int3(w, d, c)
                },
                route: |i| {
                    let (w, d, _) = tpcc_customer(i);
                    Key::int2(w, d)
                },
            },
        }
    }
}

/// A loaded database with its workload bound to an engine.
pub struct System {
    pub def: &'static WorkloadDef,
    db: Arc<Database>,
    workload: Arc<dyn Workload>,
    engine: Arc<dyn ExecutionEngine>,
}

fn err(context: &str, error: DbError) -> String {
    format!("{context}: {error}")
}

fn build_workload(kind: Kind) -> Arc<dyn Workload> {
    match kind {
        Kind::Tm1 => Arc::new(Tm1::new(TM1_SUBSCRIBERS)),
        Kind::Tpcb => Arc::new(TpcB::with_accounts(TPCB_BRANCHES, TPCB_ACCOUNTS_PER_BRANCH)),
        Kind::Tpcc => Arc::new(Tpcc::with_scale(TPCC_SCALE.0, TPCC_SCALE.1, TPCC_SCALE.2)),
    }
}

impl System {
    /// Create schema + load + build engine + bind: what `setup_s` times.
    pub fn setup(def: &'static WorkloadDef) -> Result<System, String> {
        let db = Database::new(system_config());
        let workload = build_workload(def.kind);
        workload.setup(&db).map_err(|e| err("load", e))?;
        let engine = build_engine_with(def.engine, Arc::clone(&db), DoraConfig::default());
        engine
            .bind(Arc::clone(&workload), EXECUTORS_PER_TABLE)
            .map_err(|e| err("bind", e))?;
        Ok(System {
            def,
            db,
            workload,
            engine,
        })
    }

    /// Stops the engine's threads (joins them).
    pub fn shutdown(&self) {
        self.engine.shutdown();
    }

    /// The labels this workload's mix produces.
    pub fn labels(&self) -> &'static [&'static str] {
        self.workload.txn_labels()
    }

    /// Draws the transaction whose inputs `seed` determines.
    pub fn next_program(&self, seed: u64) -> Result<Program, String> {
        let mut rng = SmallRng::seed_from_u64(seed);
        self.workload
            .next_program(&self.db, &mut rng)
            .map_err(|e| err("next_program", e))
    }

    pub fn label(program: &Program) -> &'static str {
        program.name()
    }

    pub fn prepare(&self, program: Program) -> Result<Prepared, String> {
        self.engine.prepare(program).map_err(|e| err("prepare", e))
    }

    /// Executes one transaction to its end. A deadlock victim is resubmitted
    /// (up to [`DEADLOCK_RETRIES`] times), as a client of an OLTP system does
    /// and as the conventional engine already does internally; the caller's
    /// clock keeps running across the attempts.
    pub fn execute(&self, prepared: &Prepared) -> Outcome {
        for _ in 0..=DEADLOCK_RETRIES {
            return match self.engine.execute_prepared_checked(prepared) {
                Ok(TxnOutcome::Committed) => Outcome::Committed,
                Ok(TxnOutcome::Aborted) | Err(DbError::TxnAborted { .. }) => Outcome::RolledBack,
                Ok(TxnOutcome::GaveUp) => Outcome::GaveUp,
                Err(DbError::Deadlock { .. }) => continue,
                Err(_) => Outcome::Error,
            };
        }
        Outcome::GaveUp
    }

    /// The analytical side of `htap_tpcb`.
    pub fn scanner(&self) -> Result<Scanner, String> {
        let sink = AnalyticalScan::sink();
        let program = AnalyticalScan::tpcb_branch_balances(&self.db, Arc::clone(&sink))
            .map_err(|e| err("scan program", e))?;
        Ok(Scanner {
            engine: Arc::clone(&self.engine),
            db: Arc::clone(&self.db),
            branch: self.db.table_id("branch").map_err(|e| err("branch", e))?,
            prepared: program.prepare(),
            sink,
        })
    }
}

// ----- HTAP scans ---------------------------------------------------------------

pub struct Scanner {
    engine: Arc<dyn ExecutionEngine>,
    db: Arc<Database>,
    branch: TableId,
    prepared: Prepared,
    sink: Arc<ScanSink>,
}

/// One analytical sweep of the account table on a fresh snapshot.
#[derive(Debug, Clone, Copy)]
pub struct Sweep {
    pub rows: u64,
    /// Commits published since the snapshot was pinned, read at sweep end.
    pub staleness: u64,
    /// The sweep's total equals Σ branch balance on the same snapshot.
    pub consistent: bool,
}

impl Scanner {
    pub fn sweep(&self) -> Result<Sweep, String> {
        let snapshot = Arc::new(self.engine.snapshot());
        self.engine
            .execute_on_snapshot(&self.prepared, &snapshot)
            .map_err(|e| err("scan", e))?;
        let summary = self.sink.lock().clone();
        let reader = self.db.begin_snapshot(Arc::clone(&snapshot));
        let mut branches = 0.0;
        self.db
            .scan_table(&reader, self.branch, CcMode::None, |_, row| {
                branches += row[1].as_float().unwrap_or(f64::NAN);
            })
            .map_err(|e| err("branch scan", e))?;
        self.db.commit(&reader).map_err(|e| err("scan commit", e))?;
        Ok(Sweep {
            rows: summary.rows_scanned,
            staleness: snapshot.staleness(),
            consistent: (summary.grand_total() - branches).abs() < MONEY_TOLERANCE,
        })
    }
}

/// What the calling thread itself added to the public counters: centralized
/// locks taken and transactions committed (a snapshot read commits one).
pub struct ThreadTally(MetricsSnapshot);

impl ThreadTally {
    pub fn start() -> Self {
        ThreadTally(dora_metrics::current_thread_snapshot())
    }

    /// (centralized locks acquired, transactions committed) since `start`.
    pub fn finish(self) -> (u64, u64) {
        let delta = dora_metrics::current_thread_snapshot().since(&self.0);
        (
            delta.counter(C::RowLevelLock) + delta.counter(C::HigherLevelLock),
            delta.counter(C::TxnCommitted),
        )
    }
}

// ----- counters -------------------------------------------------------------------

/// A point-in-time copy of the process-global public counters.
pub struct Counters(MetricsSnapshot);

pub fn counters() -> Counters {
    Counters(dora_metrics::global().snapshot())
}

impl Counters {
    pub fn committed_since(&self, earlier: &Counters) -> u64 {
        self.0.since(&earlier.0).counter(C::TxnCommitted)
    }

    pub fn checkpoints_since(&self, earlier: &Counters) -> u64 {
        self.0.since(&earlier.0).counter(C::CheckpointsTaken)
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Per-layer metrics that are deltas of the public counters and time
/// categories over one interval, per committed transaction.
pub fn counter_metrics(before: &Counters, after: &Counters, committed: u64, out: &mut Metrics) {
    let delta = after.0.since(&before.0);
    let txns = committed as f64;
    let count = |kind: C| delta.counter(kind) as f64;
    let per_txn = |kind: C| ratio(count(kind), txns);
    let per_ktxn = |kind: C| ratio(count(kind) * 1_000.0, txns);
    let nanos_per_txn = |categories: &[T]| {
        ratio(
            categories.iter().map(|&c| delta.nanos(c)).sum::<u64>() as f64,
            txns,
        )
    };

    out.set("core.dispatch.messages_per_txn", per_txn(C::DoraMessages));
    out.set("core.dispatch.batches_per_txn", per_txn(C::DispatchBatches));
    out.set("core.dispatch.drains_per_txn", per_txn(C::InboxDrains));
    out.set("core.dispatch.actions_per_txn", per_txn(C::ActionsExecuted));
    out.set(
        "core.dispatch.wasted_actions_per_txn",
        per_txn(C::WastedActions),
    );
    out.set(
        "core.dispatch.secondary_fallbacks_per_txn",
        per_txn(C::SecondaryFallbacks),
    );

    out.set("core.locallock.acquires_per_txn", per_txn(C::DoraLocalLock));
    out.set(
        "core.locallock.elided_per_txn",
        per_txn(C::LockProbesElided),
    );
    out.set("time.dora_local_ns_per_txn", nanos_per_txn(&[T::DoraLocal]));
    out.set(
        "time.dora_local_wait_ns_per_txn",
        nanos_per_txn(&[T::DoraLocalWait]),
    );

    out.set("storage.lock.row_locks_per_txn", per_txn(C::RowLevelLock));
    out.set(
        "storage.lock.higher_locks_per_txn",
        per_txn(C::HigherLevelLock),
    );
    out.set("storage.lock.waits_per_ktxn", per_ktxn(C::LockWaits));
    out.set(
        "storage.lock.deadlocks_per_ktxn",
        per_ktxn(C::DeadlockVictim),
    );
    out.set(
        "time.lockmgr_ns_per_txn",
        nanos_per_txn(&[T::LockMgrAcquire, T::LockMgrRelease, T::LockMgrOther]),
    );
    out.set(
        "time.lockmgr_contention_ns_per_txn",
        nanos_per_txn(&[T::LockMgrAcquireContention, T::LockMgrReleaseContention]),
    );
    out.set("time.lock_wait_ns_per_txn", nanos_per_txn(&[T::LockWait]));

    out.set(
        "storage.latch.contended_share",
        ratio(
            count(C::LatchContended),
            count(C::LatchContended) + count(C::LatchFastPath),
        ),
    );
    out.set(
        "time.other_contention_ns_per_txn",
        nanos_per_txn(&[T::OtherContention]),
    );

    out.set("storage.log.records_per_txn", per_txn(C::LogRecords));
    out.set("storage.log.flushes_per_ktxn", per_ktxn(C::LogFlushes));
    out.set(
        "storage.log.group_size_mean",
        ratio(count(C::CommitFences), count(C::GroupCommits)),
    );
    out.set("storage.log.fences_per_txn", per_txn(C::CommitFences));
    out.set("time.log_wait_ns_per_txn", nanos_per_txn(&[T::LogWait]));
    out.set(
        "time.commit_wait_ns_per_txn",
        nanos_per_txn(&[T::CommitWait]),
    );

    out.set(
        "storage.buffer.hit_share",
        ratio(
            count(C::BufferHits),
            count(C::BufferHits) + count(C::BufferMisses),
        ),
    );
    out.set("storage.buffer.misses_per_ktxn", per_ktxn(C::BufferMisses));

    out.set(
        "storage.mvcc.versions_created_per_txn",
        per_txn(C::VersionsCreated),
    );
    out.set(
        "storage.mvcc.reclaimed_share",
        ratio(count(C::VersionsReclaimed), count(C::VersionsCreated)),
    );

    out.set("time.work_ns_per_txn", nanos_per_txn(&[T::Work]));
    out.set(
        "time.engine_overhead_ns_per_txn",
        nanos_per_txn(&[T::EngineOverhead]),
    );
}

impl System {
    /// Per-layer metrics read off the quiesced system's public state at the
    /// end of the run.
    pub fn end_state_metrics(&self, out: &mut Metrics) {
        out.set(
            "storage.log.retained_records_end",
            self.db.log_manager().retained_records() as f64,
        );
        let mvcc = self.db.mvcc_stats();
        out.set(
            "storage.mvcc.chain_len_max",
            mvcc.chain_lengths.max() as f64,
        );
        out.set("storage.mvcc.live_versions_end", mvcc.versions as f64);
        // Flushing makes the backing store hold every page ever allocated.
        self.db.checkpoint();
        out.set("storage.buffer.pages_total", self.db.stored_pages() as f64);
    }
}

// ----- correctness checks ---------------------------------------------------------

/// Sums of money agree to well under a cent (balances are f64 sums of
/// two-decimal amounts).
const MONEY_TOLERANCE: f64 = 1e-3;

/// One named check and what it found.
#[derive(Debug)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

fn check(name: &'static str, ok: bool, detail: String) -> Check {
    Check { name, ok, detail }
}

/// Every row of `table`, read without locks (the system is quiesced).
fn rows(db: &Database, table: &str) -> Result<Vec<Row>, String> {
    let id = db.table_id(table).map_err(|e| err(table, e))?;
    let txn = db.begin();
    let mut rows = Vec::new();
    db.scan_table(&txn, id, CcMode::None, |_, row| rows.push(row.clone()))
        .map_err(|e| err(table, e))?;
    db.commit(&txn).map_err(|e| err(table, e))?;
    Ok(rows)
}

impl System {
    fn float_sum(&self, table: &str, column: usize) -> Result<(f64, usize), String> {
        let rows = rows(&self.db, table)?;
        let total = rows
            .iter()
            .map(|row| row[column].as_float().unwrap_or(f64::NAN))
            .sum();
        Ok((total, rows.len()))
    }

    /// The checks of the workload's own invariants on the quiesced database.
    /// `committed` is every transaction the driver saw commit since setup.
    pub fn invariant_checks(&self, committed: u64) -> Result<Vec<Check>, String> {
        let mut checks = Vec::new();
        match self.def.kind {
            Kind::Tm1 => {
                let rows = rows(&self.db, "subscriber")?.len() as i64;
                checks.push(check(
                    "tm1.subscriber_count_unchanged",
                    rows == TM1_SUBSCRIBERS,
                    format!("{rows} rows, loaded {TM1_SUBSCRIBERS}"),
                ));
            }
            Kind::Tpcb => {
                let (branch, _) = self.float_sum("branch", 1)?;
                let (teller, _) = self.float_sum("teller", 2)?;
                let (account, _) = self.float_sum("account", 2)?;
                let (history, history_rows) = self.float_sum("history_b", 3)?;
                let agree = [teller, account, history]
                    .iter()
                    .all(|total| (total - branch).abs() < MONEY_TOLERANCE);
                checks.push(check(
                    "tpcb.money_conserved",
                    agree,
                    format!("branch {branch:.2} teller {teller:.2} account {account:.2} history {history:.2}"),
                ));
                checks.push(check(
                    "tpcb.history_rows_equal_committed",
                    history_rows as u64 == committed,
                    format!("{history_rows} history rows, {committed} committed"),
                ));
            }
            Kind::Tpcc => {
                // Consistency condition 1: W_YTD = Σ D_YTD of its districts.
                let mut district_ytd: BTreeMap<i64, f64> = BTreeMap::new();
                let mut next_order: BTreeMap<(i64, i64), i64> = BTreeMap::new();
                for row in rows(&self.db, "district")? {
                    let (w, d) = (int(&row[0]), int(&row[1]));
                    *district_ytd.entry(w).or_default() += row[3].as_float().unwrap_or(f64::NAN);
                    next_order.insert((w, d), int(&row[4]));
                }
                let warehouses = rows(&self.db, "warehouse")?;
                let worst = warehouses
                    .iter()
                    .map(|row| {
                        let ytd = row[2].as_float().unwrap_or(f64::NAN);
                        (ytd - district_ytd.get(&int(&row[0])).copied().unwrap_or(f64::NAN)).abs()
                    })
                    .fold(0.0, f64::max);
                checks.push(check(
                    "tpcc.condition1_w_ytd_equals_sum_d_ytd",
                    worst < MONEY_TOLERANCE,
                    format!(
                        "largest |W_YTD - sum D_YTD| = {worst:.6} over {} warehouses",
                        warehouses.len()
                    ),
                ));
                // Consistency condition 2: D_NEXT_O_ID - 1 = max(O_ID).
                let mut max_order: BTreeMap<(i64, i64), i64> = BTreeMap::new();
                for row in rows(&self.db, "orders")? {
                    let slot = max_order.entry((int(&row[0]), int(&row[1]))).or_default();
                    *slot = (*slot).max(int(&row[2]));
                }
                let mismatched = next_order
                    .iter()
                    .filter(|(district, next)| max_order.get(district).copied() != Some(**next - 1))
                    .count();
                checks.push(check(
                    "tpcc.condition2_next_o_id_follows_max_o_id",
                    mismatched == 0,
                    format!("{mismatched} of {} districts disagree", next_order.len()),
                ));
            }
        }
        Ok(checks)
    }

    /// DORA serializes probes and updates through its executors, so the only
    /// centralized row locks it may take are the row-only locks of record
    /// inserts and deletes (Section 4.2.1); the conventional engine must
    /// take at least one per transaction.
    pub fn lock_bypass_check(&self, metrics: &Metrics) -> Check {
        let row_locks = metrics.get("storage.lock.row_locks_per_txn");
        let higher = metrics.get("storage.lock.higher_locks_per_txn");
        let (ok, expect) = match (self.def.engine, self.def.kind) {
            (EngineKind::Baseline, _) => (
                row_locks >= 1.0 && higher >= 1.0,
                ">= 1 row and >= 1 higher",
            ),
            (EngineKind::Dora, Kind::Tm1) => (
                row_locks < 0.1 && higher < 0.1,
                "< 0.1 (4 % of the mix inserts or deletes)",
            ),
            (EngineKind::Dora, Kind::Tpcb) => (
                row_locks < 1.1 && higher < 0.1,
                "<= 1 row (the history insert), ~0 higher",
            ),
            (EngineKind::Dora, Kind::Tpcc) => {
                (row_locks < 12.0 && higher < 1.0, "inserts and deletes only")
            }
        };
        check(
            "storage.lock.bypass",
            ok,
            format!("{row_locks:.3} row + {higher:.3} higher centralized locks per txn; expected {expect}"),
        )
    }

    /// Durability (`tpcb` only): rebuild a fresh database from the loader
    /// plus checkpoint + log alone and require every table to equal the live
    /// one. Returns the check and (replay seconds, records replayed).
    pub fn durability_check(&self) -> Result<Option<(Check, f64, f64)>, String> {
        if self.def.kind != Kind::Tpcb || self.def.scans {
            return Ok(None);
        }
        let fresh = Database::new(system_config());
        let loader = build_workload(self.def.kind);
        loader.setup(&fresh).map_err(|e| err("replica load", e))?;
        let log = self.db.log_manager();
        let records = log
            .checkpoint_snapshot()
            .map(|checkpoint| {
                checkpoint.row_count()
                    + checkpoint.pending().len()
                    + log.records_after(checkpoint.low_water()).len()
            })
            .unwrap_or_else(|| log.len());
        let start = Instant::now();
        self.db
            .recover_into(&fresh)
            .map_err(|e| err("recover", e))?;
        let replay_s = start.elapsed().as_secs_f64();
        let mut differing = Vec::new();
        let mut total_rows = 0;
        for table in ["branch", "teller", "account", "history_b"] {
            let encoded = |db: &Database| -> Result<Vec<Vec<u8>>, String> {
                let mut rows: Vec<Vec<u8>> = rows(db, table)?
                    .iter()
                    .map(|row| Value::encode_row(row).to_vec())
                    .collect();
                rows.sort_unstable();
                Ok(rows)
            };
            let live = encoded(&self.db)?;
            total_rows += live.len();
            if live != encoded(&fresh)? {
                differing.push(table);
            }
        }
        Ok(Some((
            check(
                "tpcb.durability_recovered_equals_live",
                differing.is_empty(),
                format!("{total_rows} rows in 4 tables compared; differing tables: {differing:?}"),
            ),
            replay_s,
            records as f64,
        )))
    }
}

fn int(value: &Value) -> i64 {
    value.as_int().unwrap_or(i64::MIN)
}

// ----- probes ---------------------------------------------------------------------

/// Pseudo-random walk over `0..rows` (odd multiplier, so it visits widely).
fn scatter(i: u64, rows: i64) -> i64 {
    (i.wrapping_mul(2_654_435_761) % rows as u64) as i64
}

impl System {
    /// Single-thread probes of each layer's public API, on the quiesced
    /// system (live-database probes) or on stand-alone instances built at
    /// the workload's row count. ns or µs per operation, median of 5 batches.
    pub fn probes(&self, out: &mut Metrics) -> Result<(), String> {
        let target = self.def.kind.probe_target();
        let rows = target.rows;
        let db = &self.db;
        let table = db
            .table_id(target.table)
            .map_err(|e| err("probe table", e))?;

        // core.program / core.dispatch: on the bound engine.
        let prepared = self.prepare(self.next_program(1)?)?;
        out.set(
            "core.program.flow_graph_ns",
            ns_per_op(20_000, |_| {
                black_box(prepared.flow_graph());
            }),
        );
        let single_read = |i: i64| {
            Program::new("probe-read").read(
                "probe-read",
                table,
                (target.route)(i),
                (target.key)(i),
                OnMissing::Error,
                |_, row| {
                    black_box(row);
                    Ok(())
                },
            )
        };
        let read_one = self.prepare(single_read(0))?;
        out.set(
            "core.dispatch.roundtrip_us",
            ns_per_op(2_000, |_| {
                black_box(self.engine.execute_prepared_checked(&read_one).is_ok());
            }) / 1e3,
        );

        // core.locallock / core.routing: stand-alone instances.
        let mut local = LocalLockTable::new();
        out.set(
            "core.locallock.acquire_release_ns",
            ns_per_op(50_000, |i| {
                let txn = TxnId(i + 1);
                black_box(local.acquire(txn, &Key::int(scatter(i, rows)), LocalMode::Exclusive));
                local.release_txn(txn);
            }),
        );
        let rule = RoutingRule::even_ranges(1, rows, EXECUTORS_PER_TABLE);
        out.set(
            "core.routing.route_ns",
            ns_per_op(200_000, |i| {
                black_box(rule.route(&Key::int(scatter(i, rows) + 1)));
            }),
        );

        // storage.lock: one record lock, acquire + release, uncontended.
        let locks = LockManager::new(true);
        out.set(
            "storage.lock.acquire_release_ns",
            ns_per_op(50_000, |i| {
                let txn = TxnId(i + 1);
                let mut held = HeldLocks::new();
                let id = LockId::record(table, Rid::new(scatter(i, rows) as u32, 0));
                black_box(locks.acquire(txn, &mut held, id, LockMode::X).is_ok());
                locks.release_all(txn, held);
            }),
        );

        // storage.log: append to a latency-free log; commit + flush on a
        // device as slow as the run's.
        let image = vec![0u8; 48];
        let log = LogManager::new(0);
        out.set(
            "storage.log.append_ns",
            ns_per_op(20_000, |i| {
                black_box(log.append(
                    TxnId(i + 1),
                    LogRecordKind::Update {
                        table,
                        rid: Rid::new(0, 0),
                        before: image.clone(),
                        after: image.clone(),
                    },
                ));
            }),
        );
        let device = LogManager::with_durability(LOG_FLUSH_MICROS, DurabilityConfig::default());
        out.set(
            "storage.log.commit_flush_us",
            ns_per_op(300, |i| {
                let (_, fences) = device.append_commit_fences(TxnId(i + 1), &[StreamId(0)]);
                black_box(device.flush_fences(&fences));
            }) / 1e3,
        );

        // storage.btree: a stand-alone index holding the workload's keys.
        let index = BTreeIndex::new(true);
        for i in 0..rows {
            index
                .insert(
                    &(target.key)(i),
                    IndexEntry::new(Rid::new(i as u32, 0), Key::empty()),
                )
                .map_err(|e| err("btree fill", e))?;
        }
        out.set("storage.btree.depth", index.depth() as f64);
        out.set(
            "storage.btree.get_ns",
            ns_per_op(50_000, |i| {
                black_box(index.get(&(target.key)(scatter(i, rows))));
            }),
        );
        let mut fresh_key = 0i64;
        out.set(
            "storage.btree.insert_ns",
            ns_per_op(20_000, |_| {
                fresh_key += 1;
                let key = Key::int3(i64::MAX, fresh_key, 0);
                black_box(
                    index
                        .insert(&key, IndexEntry::new(Rid::new(0, 0), Key::empty()))
                        .is_ok(),
                );
            }),
        );

        // storage.heap: a stand-alone heap file on its own pool.
        let pool = Arc::new(BufferPool::new(
            Arc::new(PageStore::new()),
            BUFFER_POOL_PAGES,
            system_config().page_size,
        ));
        let heap = HeapFile::new(table, pool);
        let mut rids = Vec::with_capacity(rows as usize);
        for _ in 0..rows {
            rids.push(heap.insert(&image).map_err(|e| err("heap fill", e))?);
        }
        out.set(
            "storage.heap.read_ns",
            ns_per_op(50_000, |i| {
                black_box(heap.read(rids[scatter(i, rows) as usize]).is_ok());
            }),
        );
        out.set(
            "storage.heap.update_ns",
            ns_per_op(50_000, |i| {
                black_box(heap.update(rids[scatter(i, rows) as usize], &image).is_ok());
            }),
        );
        out.set(
            "storage.heap.insert_ns",
            ns_per_op(20_000, |_| {
                black_box(heap.insert(&image).is_ok());
            }),
        );

        // storage.db: whole transactions against the live database.
        let point_read = |i: u64, cc: CcMode| {
            let txn = db.begin();
            black_box(
                db.probe_primary(&txn, table, &(target.key)(scatter(i, rows)), false, cc)
                    .is_ok(),
            );
            black_box(db.commit(&txn).is_ok());
        };
        out.set(
            "storage.db.read_ns",
            ns_per_op(20_000, |i| point_read(i, CcMode::None)),
        );
        out.set(
            "storage.db.read_locked_ns",
            ns_per_op(20_000, |i| point_read(i, CcMode::Full)),
        );
        out.set(
            "storage.db.update_commit_us",
            ns_per_op(300, |i| {
                let txn = db.begin();
                let key = (target.key)(scatter(i, rows));
                // Rewrites the row unchanged: logged and versioned like any
                // update, and the workload's invariants still hold.
                black_box(
                    db.update_primary(&txn, table, &key, CcMode::Full, |_| Ok(()))
                        .is_ok(),
                );
                black_box(db.commit(&txn).is_ok());
            }) / 1e3,
        );

        // storage.mvcc: pin/unpin a snapshot; point reads through one.
        out.set(
            "storage.mvcc.snapshot_open_ns",
            ns_per_op(20_000, |_| {
                black_box(db.snapshot());
            }),
        );
        let reader = db.begin_snapshot(Arc::new(db.snapshot()));
        out.set(
            "storage.mvcc.snapshot_read_ns",
            ns_per_op(20_000, |i| {
                let key = (target.key)(scatter(i, rows));
                black_box(
                    db.probe_primary(&reader, table, &key, false, CcMode::None)
                        .is_ok(),
                );
            }),
        );
        db.commit(&reader).map_err(|e| err("snapshot reader", e))?;

        out.set(
            "metrics.snapshot_us",
            ns_per_op(2_000, |_| {
                black_box(dora_metrics::global().snapshot());
            }) / 1e3,
        );
        out.set("server.submit_overhead_ns", server_submit_overhead()?);
        Ok(())
    }
}

/// `Session::execute` of a prepared statement minus the direct engine call,
/// on two identical small TPC-B systems with a latency-free log.
fn server_submit_overhead() -> Result<f64, String> {
    let small = || -> Result<(Arc<Database>, Arc<TpcB>, Program), String> {
        let db = Database::new(SystemConfig::default());
        let tpcb = Arc::new(TpcB::with_accounts(4, 64));
        tpcb.setup(&db).map_err(|e| err("server probe load", e))?;
        let program = tpcb
            .account_update_program(&db, 1, 1, 1, 1.0)
            .map_err(|e| err("server probe program", e))?;
        Ok((db, tpcb, program))
    };

    let (db, tpcb, program) = small()?;
    let engine = build_engine_with(EngineKind::Dora, db, DoraConfig::default());
    engine
        .bind(tpcb, EXECUTORS_PER_TABLE)
        .map_err(|e| err("server probe bind", e))?;
    let prepared = engine
        .prepare(program)
        .map_err(|e| err("server probe prepare", e))?;
    let direct = ns_per_op(2_000, |_| {
        black_box(engine.execute_prepared_checked(&prepared).is_ok());
    });
    engine.shutdown();

    let (db, tpcb, program) = small()?;
    let config = ServerConfig {
        executors_per_table: EXECUTORS_PER_TABLE,
        ..ServerConfig::new(EngineKind::Dora)
    };
    let server = Server::open(db, tpcb, config).map_err(|e| err("server open", e))?;
    let statement = server
        .prepare(program)
        .map_err(|e| err("server prepare", e))?;
    let session = server.session();
    let served = ns_per_op(2_000, |_| {
        black_box(session.execute(&statement).is_committed());
    });
    server.close();
    Ok(served - direct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::input_seed;

    #[test]
    fn same_seed_draws_the_same_transactions() {
        let db = Database::new(SystemConfig::default());
        let workload = Tm1::new(500);
        workload.setup(&db).unwrap();
        let draw = |run_seed: u64| -> Vec<String> {
            (0..200)
                .map(|index| {
                    let mut rng = SmallRng::seed_from_u64(input_seed(run_seed, 2, index));
                    let program = workload.next_program(&db, &mut rng).unwrap();
                    // The label and every action's routing identifier are
                    // the inputs visible from outside a program.
                    format!("{} {:?}", program.name(), program.compile_dora().describe())
                })
                .collect()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
    }

    #[test]
    fn workload_table_is_well_formed() {
        let mut names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        names.dedup();
        assert_eq!(names.len(), 5);
        for workload in &WORKLOADS {
            assert!(workload.why.len() <= 200, "{} why too long", workload.name);
            assert!(workload.rate_mid < workload.rate_hi);
            assert!(workload.clients + usize::from(workload.scans) == 2);
        }
        assert_eq!(all_txn_labels().len(), 13);
    }
}
