//! The exact-count ledger: what one committed transaction costs, counted.
//!
//! Each row runs one benchmark workload at test scale on one engine: one
//! client, a fixed seed, a warm-up, then transactions drawn from the mix
//! until `COMMITS` have committed. Aborted attempts are part of the cost, so
//! every figure is a run total divided by the committed count. Checkpoints
//! are off (the default `checkpoint_interval` of 0), so no builder thread
//! runs.
//!
//! The engine counters (messages, local-lock acquires plus elided probes, log
//! records, row and higher-level locks, row versions) are fixed by the seed
//! and must match the table exactly. Allocation calls and bytes come from a
//! counting `#[global_allocator]` over every thread, so executor threads and
//! the log count too; their value is the middle of the range measured over
//! 20 runs, and each row states the band that range was widened to.
//!
//! A change that moves a count on purpose updates the table, and the diff of
//! the table is the change's before/after.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use dora_repro::common::prelude::*;
use dora_repro::dora::DoraConfig;
use dora_repro::engine::build_engine_with;
use dora_repro::metrics::{global, CounterKind};
use dora_repro::storage::Database;
use dora_repro::workloads::{AnalyticalScan, Tm1, TpcB, Tpcc, Workload};

struct CountingAllocator;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Attempts run before counting starts: first-use caches fill here.
const WARMUP: usize = 300;
/// Committed transactions counted per row.
const COMMITS: u64 = 400;
/// HTAP rows take a fresh snapshot (and sweep it) every this many commits,
/// and keep it pinned until the next one, so a snapshot is always open.
const SWEEP_EVERY: u64 = 50;
const SEED: u64 = 41;
const EXECUTORS_PER_TABLE: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Load {
    Tm1,
    Tpcb,
    Tpcc,
    HtapTpcb,
}

/// The seed-fixed totals of one row, over `COMMITS` committed transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Exact {
    attempts: u64,
    messages: u64,
    acquires_and_elided: u64,
    records: u64,
    row_locks: u64,
    higher_locks: u64,
    versions: u64,
}

/// An allocation figure per committed transaction: the expected value and
/// the half-width of its band.
#[derive(Debug, Clone, Copy)]
struct Band {
    value: f64,
    plus_minus: f64,
}

const fn band(value: f64, plus_minus: f64) -> Band {
    Band { value, plus_minus }
}

struct Row {
    workload: &'static str,
    engine: EngineKind,
    load: Load,
    exact: Exact,
    alloc_calls: Band,
    alloc_bytes: Band,
}

const fn exact(
    attempts: u64,
    messages: u64,
    acquires_and_elided: u64,
    records: u64,
    row_locks: u64,
    higher_locks: u64,
    versions: u64,
) -> Exact {
    Exact {
        attempts,
        messages,
        acquires_and_elided,
        records,
        row_locks,
        higher_locks,
        versions,
    }
}

/// The ledger. Allocation values: the range over eight runs (five of the
/// release build, three of the debug build) on a 2-vCPU host was at most
/// 0.02 calls and 1 byte wide, and both builds agreed; the bands are ±1 call
/// and ±2 % of the bytes, for hosts whose thread scheduling differs.
const LEDGER: [Row; 7] = [
    Row {
        workload: "tm1_mix",
        engine: EngineKind::Dora,
        load: Load::Tm1,
        exact: exact(528, 312, 580, 315, 10, 0, 0),
        alloc_calls: band(7.39, 1.0),
        alloc_bytes: band(2139.0, 43.0),
    },
    Row {
        workload: "tm1_mix",
        engine: EngineKind::Baseline,
        load: Load::Tm1,
        exact: exact(528, 0, 0, 315, 461, 1267, 0),
        alloc_calls: band(5.67, 1.0),
        alloc_bytes: band(988.0, 20.0),
    },
    Row {
        workload: "tpcb",
        engine: EngineKind::Dora,
        load: Load::Tpcb,
        exact: exact(400, 3200, 1600, 2400, 400, 0, 0),
        alloc_calls: band(25.09, 1.0),
        alloc_bytes: band(6575.0, 132.0),
    },
    Row {
        workload: "tpcb",
        engine: EngineKind::Baseline,
        load: Load::Tpcb,
        exact: exact(400, 0, 0, 2400, 1600, 2000, 0),
        alloc_calls: band(20.09, 1.0),
        alloc_bytes: band(4400.0, 88.0),
    },
    Row {
        workload: "tpcc_mix",
        engine: EngineKind::Dora,
        load: Load::Tpcc,
        exact: exact(401, 3074, 3618, 5871, 2392, 0, 0),
        alloc_calls: band(107.74, 1.0),
        alloc_bytes: band(20845.0, 417.0),
    },
    Row {
        workload: "tpcc_mix",
        engine: EngineKind::Baseline,
        load: Load::Tpcc,
        exact: exact(401, 0, 0, 5871, 8498, 2888, 0),
        alloc_calls: band(102.16, 1.0),
        alloc_bytes: band(18701.0, 374.0),
    },
    Row {
        workload: "htap_tpcb",
        engine: EngineKind::Dora,
        load: Load::HtapTpcb,
        exact: exact(400, 3200, 1600, 2400, 400, 0, 2752),
        alloc_calls: band(48.69, 1.0),
        alloc_bytes: band(8882.0, 178.0),
    },
];

fn workload(load: Load) -> Arc<dyn Workload> {
    match load {
        Load::Tm1 => Arc::new(Tm1::new(2_000)),
        Load::Tpcb | Load::HtapTpcb => Arc::new(TpcB::with_accounts(8, 100)),
        Load::Tpcc => Arc::new(Tpcc::with_scale(2, 30, 200)),
    }
}

struct Measured {
    exact: Exact,
    alloc_calls: f64,
    alloc_bytes: f64,
}

fn measure(row: &Row) -> Measured {
    let db = Database::for_tests();
    let workload = workload(row.load);
    workload.setup(&db).unwrap();
    let engine = build_engine_with(row.engine, Arc::clone(&db), DoraConfig::default());
    engine
        .bind(Arc::clone(&workload), EXECUTORS_PER_TABLE)
        .unwrap();
    let scan = (row.load == Load::HtapTpcb).then(|| {
        AnalyticalScan::tpcb_branch_balances(&db, AnalyticalScan::sink())
            .unwrap()
            .prepare()
    });
    let mut rng = SmallRng::seed_from_u64(SEED);
    for _ in 0..WARMUP {
        engine.execute_one(&mut rng);
    }

    let counters = global().snapshot();
    let calls = CALLS.load(Ordering::Relaxed);
    let bytes = BYTES.load(Ordering::Relaxed);
    let mut attempts = 0;
    let mut committed = 0;
    let mut pinned = None;
    while committed < COMMITS {
        if let Some(scan) = &scan {
            if committed % SWEEP_EVERY == 0 && pinned.is_none() {
                let snapshot = Arc::new(engine.snapshot());
                engine.execute_on_snapshot(scan, &snapshot).unwrap();
                pinned = Some(snapshot);
            }
        }
        attempts += 1;
        if engine.execute_one(&mut rng) == TxnOutcome::Committed {
            committed += 1;
            if committed % SWEEP_EVERY == 0 {
                pinned = None;
            }
        }
    }
    drop(pinned);
    let calls = CALLS.load(Ordering::Relaxed) - calls;
    let bytes = BYTES.load(Ordering::Relaxed) - bytes;
    let delta = global().snapshot().since(&counters);
    engine.shutdown();

    let counter = |kind| delta.counter(kind);
    Measured {
        exact: Exact {
            attempts,
            messages: counter(CounterKind::DoraMessages),
            acquires_and_elided: counter(CounterKind::DoraLocalLock)
                + counter(CounterKind::LockProbesElided),
            records: counter(CounterKind::LogRecords),
            row_locks: counter(CounterKind::RowLevelLock),
            higher_locks: counter(CounterKind::HigherLevelLock),
            versions: counter(CounterKind::VersionsCreated),
        },
        alloc_calls: calls as f64 / committed as f64,
        alloc_bytes: bytes as f64 / committed as f64,
    }
}

fn per_txn(total: u64) -> f64 {
    total as f64 / COMMITS as f64
}

#[test]
fn ledger_matches_the_committed_table() {
    let mut report = String::new();
    let mut failures = Vec::new();
    for row in &LEDGER {
        let got = measure(row);
        let name = format!("{} {:?}", row.workload, row.engine);
        let e = got.exact;
        report.push_str(&format!(
            "{name:<24} exact({}, {}, {}, {}, {}, {}, {}) per txn: messages {:.3} \
             acquires+elided {:.3} records {:.3} row_locks {:.3} higher_locks {:.3} \
             versions {:.3} | alloc calls {:.2} bytes {:.0}\n",
            e.attempts,
            e.messages,
            e.acquires_and_elided,
            e.records,
            e.row_locks,
            e.higher_locks,
            e.versions,
            per_txn(e.messages),
            per_txn(e.acquires_and_elided),
            per_txn(e.records),
            per_txn(e.row_locks),
            per_txn(e.higher_locks),
            per_txn(e.versions),
            got.alloc_calls,
            got.alloc_bytes,
        ));
        if got.exact != row.exact {
            failures.push(format!(
                "{name}: counts {:?}, table says {:?}",
                got.exact, row.exact
            ));
        }
        for (what, value, band) in [
            ("alloc calls", got.alloc_calls, row.alloc_calls),
            ("alloc bytes", got.alloc_bytes, row.alloc_bytes),
        ] {
            if (value - band.value).abs() > band.plus_minus {
                failures.push(format!(
                    "{name}: {what} per committed txn {value:.2}, table says {} ± {}",
                    band.value, band.plus_minus
                ));
            }
        }
    }
    eprint!("{report}");
    assert!(
        failures.is_empty(),
        "ledger drift:\n{}",
        failures.join("\n")
    );
}
