//! One run of one workload: set-up, the phases, the correctness checks, and
//! the metrics of the requested mode (untraced → end-to-end, traced →
//! per-layer).
//!
//! | run      | phases (share of `--seconds`)                                              |
//! |----------|----------------------------------------------------------------------------|
//! | untraced | set-up ×3, warm 1.5 s, `closed` 1/2, `open_mid` 1/2                         |
//! | traced   | set-up, warm 1 s, `untraced_a` 1/10, `closed` 4/15, `untraced_b` 1/10, `open_mid` `open_hi` 4/15 each, probes |

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::driver::{peak_rss_kb, write_trace, Driver, Load, PhaseResult, Tally};
use crate::json::Json;
use crate::recorder::median;
use crate::report::{self, Metrics};
use crate::sut::{self, Check, System, WorkloadDef};

/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Warm-up before the measured phases (caches fill, lazy set-up finishes).
const WARM_UNTRACED: Duration = Duration::from_millis(1_500);
const WARM_TRACED: Duration = Duration::from_millis(1_000);

pub struct RunOptions {
    pub seed: u64,
    /// Total length of the measured phases.
    pub seconds: f64,
    pub traced: bool,
}

pub struct RunOutput {
    pub correct: bool,
    /// Outcome counts over the measured phases.
    pub tally: Tally,
    pub metrics: Metrics,
}

impl RunOutput {
    /// The contract's final line.
    pub fn result_json(&self, traced: bool) -> Json {
        let defs = if traced {
            report::per_layer()
        } else {
            report::end_to_end()
        };
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.tally.attempted as f64)),
            ("failed", Json::Num(self.tally.failed() as f64)),
            ("metrics", report::metrics_json(&defs, &self.metrics)),
        ])
    }
}

/// Where the traced run writes its spans and `--workload all` its result.
pub fn out_dir() -> PathBuf {
    let manifest =
        std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").into());
    PathBuf::from(manifest).join("out")
}

pub fn run(def: &'static WorkloadDef, options: &RunOptions) -> Result<RunOutput, String> {
    let traced = options.traced;
    let mut metrics = Metrics::default();
    let mut notes: BTreeMap<String, String> = BTreeMap::new();

    // Set-up. An untraced run sets up several times and reports the median;
    // every system but the last is shut down and dropped before the next.
    let mut setup_times = Vec::new();
    let mut system = None;
    for _ in 0..if traced { 1 } else { SETUPS } {
        if let Some(previous) = system.take() {
            System::shutdown(&previous);
        }
        let start = Instant::now();
        system = Some(System::setup(def)?);
        setup_times.push(start.elapsed().as_secs_f64());
    }
    let system = system.expect("at least one set-up");
    metrics.set("setup_s", median(&setup_times));
    notes.insert("setup_s".into(), format!("median of {setup_times:.3?}"));

    let driver = Driver {
        system: &system,
        scanner: if def.scans {
            Some(system.scanner()?)
        } else {
            None
        },
        seed: options.seed,
    };
    let share = |share: f64| Duration::from_secs_f64(options.seconds * share);

    // Phases. Phase ids seed the arrivals, so a phase of a given name draws
    // the same transactions in both kinds of run.
    let counters_start = sut::counters();
    let mut all: Vec<PhaseResult> = Vec::new();
    // A traced run brackets its `closed` phase with two short untraced
    // closed phases: throughput drifts over a run (the log and the version
    // store grow), and the mean of before and after cancels a steady drift
    // out of the tracing overhead.
    if traced {
        all.push(driver.run_phase(0, "warm", Load::Closed, WARM_TRACED, false)?);
        all.push(driver.run_phase(4, "untraced_a", Load::Closed, share(0.1), false)?);
    } else {
        all.push(driver.run_phase(0, "warm", Load::Closed, WARM_UNTRACED, false)?);
    }
    let measured_share = if traced { 4.0 / 15.0 } else { 0.5 };
    let counters_closed_start = sut::counters();
    let rss_closed_start_kb = peak_rss_kb();
    all.push(driver.run_phase(1, "closed", Load::Closed, share(measured_share), traced)?);
    let counters_closed_end = sut::counters();
    let rss_closed_end_kb = peak_rss_kb();
    if traced {
        all.push(driver.run_phase(5, "untraced_b", Load::Closed, share(0.1), false)?);
    }
    all.push(driver.run_phase(
        2,
        "open_mid",
        Load::Open(def.rate_mid),
        share(measured_share),
        traced,
    )?);
    if traced {
        all.push(driver.run_phase(
            3,
            "open_hi",
            Load::Open(def.rate_hi),
            share(measured_share),
            true,
        )?);
    }
    let counters_end = sut::counters();

    let find = |name: &str| all.iter().find(|p| p.name == name);
    let closed = find("closed").expect("closed ran");
    let open_mid = find("open_mid").expect("open_mid ran");

    // Tallies: `measured` covers the measured phases; `since_setup` is
    // everything the clients did, which is what the database reflects.
    let mut measured = Tally::default();
    let mut since_setup = Tally::default();
    let (mut scan_locks, mut scan_commits, mut sweeps, mut inconsistent_sweeps) = (0, 0, 0, 0);
    for phase in &all {
        since_setup.add(phase.tally());
        if ["closed", "open_mid", "open_hi"].contains(&phase.name) {
            measured.add(phase.tally());
        }
        scan_locks += phase.scan_tally.0;
        scan_commits += phase.scan_tally.1;
        sweeps += phase.sweeps.len();
        inconsistent_sweeps += phase.sweeps.iter().filter(|s| !s.sweep.consistent).count();
    }

    // End-to-end metrics: medians of the per-slice values.
    let (tps, cpu) = closed.throughput();
    let mid_p50 = open_mid.sliced_quantile(0.5);
    for (name, sliced) in [
        ("peak_tps", tps),
        ("cpu_us_per_txn", cpu),
        ("lat_mid_p50_us", mid_p50),
    ] {
        metrics.set(name, sliced.median);
        notes.insert(
            name.into(),
            format!("slices min {:.1} max {:.1}", sliced.min, sliced.max),
        );
    }

    // Per-layer metrics: the driver's own. Tail and high-rate latencies are
    // here, not end-to-end: see README, "Metrics that do not gate".
    metrics.set("driver.attempted", measured.attempted as f64);
    metrics.set("driver.committed", measured.committed as f64);
    metrics.set("driver.aborted", measured.rolled_back as f64);
    metrics.set("driver.gave_up", measured.gave_up as f64);
    metrics.set("driver.fail_share", measured.fail_share());
    metrics.set("driver.samples", open_mid.samples.len() as f64);
    metrics.set(
        "driver.gen_late_p99_us",
        open_mid.generator_lateness_p99_us(),
    );
    let (mid_p99, mid_beyond) = open_mid.pooled_quantile(0.99);
    metrics.set("lat_mid_p99_us", mid_p99);
    notes.insert(
        "lat_mid_p99_us".into(),
        format!("{mid_beyond} samples beyond it"),
    );
    let mut lat_max = closed.latency_max_us().max(open_mid.latency_max_us());
    let mut slo_rate = 0.0;
    // A rate meets the limit when its p99 does, nothing failed, and the
    // backlog does not grow (the last slice's arrivals were not turned to
    // later than the first slice's by more than the limit).
    let meets = |phase: &PhaseResult, p99_us: f64| {
        p99_us <= def.slo_us
            && phase.backlog_growth_us() < def.slo_us
            && phase.tally().failed() == 0
    };
    if meets(open_mid, mid_p99) {
        slo_rate = def.rate_mid;
    }
    if let Some(open_hi) = find("open_hi") {
        let hi_p50 = open_hi.sliced_quantile(0.5);
        let (hi_p99, hi_beyond) = open_hi.pooled_quantile(0.99);
        metrics.set("lat_hi_p50_us", hi_p50.median);
        metrics.set("lat_hi_p99_us", hi_p99);
        notes.insert(
            "lat_hi_p50_us".into(),
            format!("slices min {:.1} max {:.1}", hi_p50.min, hi_p50.max),
        );
        notes.insert(
            "lat_hi_p99_us".into(),
            format!("{hi_beyond} samples beyond it"),
        );
        metrics.set("driver.backlog_growth_us", open_hi.backlog_growth_us());
        lat_max = lat_max.max(open_hi.latency_max_us());
        if meets(open_hi, hi_p99) {
            slo_rate = def.rate_hi;
        }
    }
    metrics.set("driver.lat_max_us", lat_max);
    metrics.set("driver.slo_rate_tps", slo_rate);
    for (index, label) in system.labels().iter().enumerate() {
        let (p50, p99) = open_mid.label_latency_us(index as u8);
        metrics.set(format!("txn.{label}.p50_us"), p50);
        metrics.set(format!("txn.{label}.p99_us"), p99);
    }

    // Per-layer metrics: spans of the traced closed phase, counter deltas
    // over it, the scan thread, memory.
    let spans = closed.span_medians();
    metrics.set("workloads.next_program_ns", spans.next_program_ns);
    metrics.set("core.program.prepare_ns", spans.prepare_ns);
    metrics.set("engine.execute_p50_us", spans.execute_ns / 1e3);
    metrics.set("engine.execute_share", spans.execute_share);
    metrics.set("driver.self_ns", spans.self_ns);
    if let (Some(before), Some(after)) = (find("untraced_a"), find("untraced_b")) {
        let untraced = (before.committed_per_s() + after.committed_per_s()) / 2.0;
        metrics.set(
            "driver.trace_overhead_share",
            1.0 - closed.committed_per_s() / untraced,
        );
    }
    let closed_committed = closed.tally().committed;
    sut::counter_metrics(
        &counters_closed_start,
        &counters_closed_end,
        closed_committed,
        &mut metrics,
    );
    metrics.set(
        "storage.log.checkpoints",
        counters_end.checkpoints_since(&counters_start) as f64,
    );
    if def.scans {
        let (rows_per_s, row_ns, staleness) = closed.scan_stats();
        metrics.set("storage.mvcc.scan_rows_per_s", rows_per_s);
        metrics.set("storage.mvcc.scan_row_ns", row_ns);
        metrics.set("storage.mvcc.staleness_mean", staleness);
    }
    metrics.set(
        "mem.rss_kb_per_ktxn",
        (rss_closed_end_kb - rss_closed_start_kb) as f64 * 1_000.0 / closed_committed.max(1) as f64,
    );

    // Correctness checks, on the quiesced system.
    let mut checks: Vec<Check> = Vec::new();
    let counted = counters_end.committed_since(&counters_start);
    checks.push(Check {
        name: "driver.committed_equals_counter",
        ok: counted == since_setup.committed + scan_commits,
        detail: format!(
            "TxnCommitted rose by {counted}; clients committed {}, the scan thread {scan_commits}",
            since_setup.committed
        ),
    });
    let rollback_share = measured.rolled_back as f64 / measured.attempted.max(1) as f64;
    checks.push(Check {
        name: "driver.rollbacks_within_specified_share",
        ok: (def.rollback_share.0..=def.rollback_share.1).contains(&rollback_share),
        detail: format!(
            "{rollback_share:.4} of attempts rolled back; the workload specifies {:?}",
            def.rollback_share
        ),
    });
    checks.push(Check {
        name: "driver.no_failed_operations",
        ok: since_setup.failed() == 0,
        detail: format!(
            "{} gave up, {} errors, {} refused",
            since_setup.gave_up, since_setup.errors, since_setup.refused
        ),
    });
    checks.push(system.lock_bypass_check(&metrics));
    checks.extend(system.invariant_checks(since_setup.committed)?);
    if def.scans {
        checks.push(Check {
            name: "htap.scan_thread_takes_no_locks",
            ok: scan_locks == 0 && sweeps > 0,
            detail: format!("{scan_locks} centralized locks over {sweeps} sweeps"),
        });
        checks.push(Check {
            name: "htap.every_sweep_equals_branch_total_on_its_snapshot",
            ok: inconsistent_sweeps == 0,
            detail: format!("{inconsistent_sweeps} of {sweeps} sweeps disagreed"),
        });
    }
    if let Some((check, replay_s, records)) = system.durability_check()? {
        checks.push(check);
        metrics.set("storage.recover.replay_s", replay_s);
        metrics.set(
            "storage.recover.records_per_s",
            records / replay_s.max(1e-9),
        );
    }

    // The rest of the per-layer metrics: end state, probes, the trace file.
    if traced {
        system.end_state_metrics(&mut metrics);
        system.probes(&mut metrics)?;
        let path = out_dir().join(format!("trace-{}.jsonl", def.name));
        let phases: Vec<&PhaseResult> = all.iter().collect();
        write_trace(&path, &phases, system.labels())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("trace: {}", path.display());
    }
    metrics.set("mem.rss_end_mb", peak_rss_kb() as f64 / 1024.0);
    system.shutdown();

    // Report.
    println!(
        "workload {}  seed {}  seconds {}  trace {}  nproc {}",
        def.name,
        options.seed,
        options.seconds,
        u8::from(traced),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    for phase in &all {
        let tally = phase.tally();
        println!(
            "  phase {:<16} {:>6.2} s  attempted {:>8}  committed {:>8}  rolled back {:>7}  failed {:>3}  {:>10.1} commits/s  sweeps {}",
            phase.name,
            phase.length_ns as f64 / 1e9,
            tally.attempted,
            tally.committed,
            tally.rolled_back,
            tally.failed(),
            phase.committed_per_s(),
            phase.sweeps.len()
        );
    }
    let defs = if traced {
        report::per_layer()
    } else {
        report::end_to_end()
    };
    report::print_metrics(&defs, &metrics, &notes);
    let mut correct = true;
    for check in &checks {
        println!(
            "  check {:<52} {}  {}",
            check.name,
            if check.ok { "ok  " } else { "FAIL" },
            check.detail
        );
        correct &= check.ok;
    }
    Ok(RunOutput {
        correct,
        tally: measured,
        metrics,
    })
}
