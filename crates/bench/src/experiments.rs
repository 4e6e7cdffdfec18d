//! One function per figure of the paper's evaluation (Section 5 and the
//! appendix). Each sets up the workloads at the requested [`Scale`], drives
//! the baseline and/or DORA engines, and renders the measured series as a
//! plain-text `Report`. `EXPERIMENTS.md` records how each measured shape
//! compares to the paper's.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dora_common::config::AdaptiveConfig;
use dora_common::prelude::*;
use dora_core::{DoraConfig, DoraEngine, Params};
use dora_engine::{
    build_engine, find_peak, BaselineEngine, ClientDriver, DoraExecution, DriverConfig,
    ExecutionEngine,
};
use dora_metrics::{global, CounterKind, LatencyHistogram};
use dora_server::{AdmissionConfig, RetryPolicy, Server, ServerConfig, Statement, SubmitOutcome};
use dora_storage::Database;
use dora_workloads::{Tm1Mix, TpcB, Tpcc, TpccMix, Workload, WorkloadStats};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::report::{breakdown_row, pct, txn_stats_table, Report};
use crate::setup::{
    prepare, run_clients, sweep, sweep_stats, sweep_with_config, Scale, SystemUnderTest,
};
use crate::trace::AccessTrace;

/// Figure 1: TM1-GetSubscriberData — throughput per CPU utilization as the
/// load grows, plus the time breakdown of each system.
pub(crate) fn fig1(scale: &Scale) -> Report {
    let mut report = Report::new("Figure 1: TM1-GetSubscriberData, Baseline vs DORA");
    for system in SystemUnderTest::ALL {
        report.line(format!("{}:", system.label()));
        let workload = scale.tm1().with_mix(Tm1Mix::GetSubscriberDataOnly);
        let (results, stats) = sweep_stats(workload, scale, system, &scale.load_points());
        report.line(format!(
            "  {:>10} {:>10} {:>14} {:>16}",
            "load(%)", "cpu(%)", "tps", "tps/cpu-util"
        ));
        for (load, result) in &results {
            report.line(format!(
                "  {:>10.0} {:>10.1} {:>14.0} {:>16.2}",
                load,
                result.cpu_utilization_percent.unwrap_or(*load),
                result.throughput_tps,
                result.throughput_per_cpu_util(),
            ));
        }
        report.line("  time breakdown:");
        for (load, result) in &results {
            report.line(breakdown_row(
                &format!("@{load:.0}% offered"),
                &result.breakdown,
            ));
        }
        report.line("  per-transaction-type summary (all load points):");
        txn_stats_table(&mut report, &stats);
        report.blank();
    }
    report
}

/// Figure 2: time breakdown at full utilization for (a) the TM1 mix and
/// (b) TPC-C OrderStatus, Baseline vs DORA.
pub(crate) fn fig2(scale: &Scale) -> Report {
    let mut report = Report::new("Figure 2: time breakdown at 100% CPU utilization");
    for (label, which) in [("TM1 (full mix)", 0), ("TPC-C OrderStatus", 1)] {
        report.line(format!("{label}:"));
        for system in SystemUnderTest::ALL {
            let results = if which == 0 {
                sweep(scale.tm1(), scale, system, &[100.0])
            } else {
                sweep(
                    scale.tpcc().with_mix(TpccMix::OrderStatusOnly),
                    scale,
                    system,
                    &[100.0],
                )
            };
            let (_, result) = &results[0];
            report.line(breakdown_row(system.label(), &result.breakdown));
        }
        report.blank();
    }
    report
}

/// Figure 3: where the time inside the centralized lock manager goes for the
/// baseline running TPC-B, as the load grows.
pub(crate) fn fig3(scale: &Scale) -> Report {
    let mut report = Report::new("Figure 3: inside the lock manager (Baseline, TPC-B)");
    let (results, stats) = sweep_stats(
        scale.tpcb(),
        scale,
        SystemUnderTest::Baseline,
        &scale.load_points(),
    );
    report.line(format!(
        "  {:>10} {:>10} {:>12} {:>10} {:>12} {:>10}",
        "load(%)", "acquire", "acquire-cont", "release", "release-cont", "other"
    ));
    for (load, result) in &results {
        let breakdown = &result.breakdown;
        let total = (breakdown.lock_mgr_acquire_nanos
            + breakdown.lock_mgr_acquire_cont_nanos
            + breakdown.lock_mgr_release_nanos
            + breakdown.lock_mgr_release_cont_nanos
            + breakdown.lock_mgr_other_nanos)
            .max(1) as f64;
        report.line(format!(
            "  {:>10.0} {:>10} {:>12} {:>10} {:>12} {:>10}",
            load,
            pct(breakdown.lock_mgr_acquire_nanos as f64 / total),
            pct(breakdown.lock_mgr_acquire_cont_nanos as f64 / total),
            pct(breakdown.lock_mgr_release_nanos as f64 / total),
            pct(breakdown.lock_mgr_release_cont_nanos as f64 / total),
            pct(breakdown.lock_mgr_other_nanos as f64 / total),
        ));
    }
    report.blank();
    report.line("  contention share of lock-manager time:");
    for (load, result) in &results {
        report.kv(
            &format!("@{load:.0}% offered load"),
            pct(result.breakdown.lock_mgr_internal_contention_fraction()),
        );
    }
    report.blank();
    report.line("  per-transaction-type summary (all load points):");
    txn_stats_table(&mut report, &stats);
    report
}

/// Figure 4: the transaction flow graph of TPC-C Payment (structural, not a
/// measurement).
pub(crate) fn fig4(scale: &Scale) -> Report {
    let mut report = Report::new("Figure 4: transaction flow graph of TPC-C Payment");
    let db = Database::new(scale.system_config());
    let tpcc = scale.tpcc();
    tpcc.setup(&db).expect("setup TPC-C");
    let graph = tpcc
        .payment_program(
            &db,
            1,
            1,
            1,
            1,
            dora_workloads::tpcc::CustomerSelector::ById(1),
            10.0,
        )
        .expect("payment program")
        .compile_dora();
    for (index, phase) in graph.describe().iter().enumerate() {
        report.line(format!("  phase {}: {}", index + 1, phase.join(", ")));
        if index + 1 < graph.phase_count() {
            report.line(format!("  --- RVP{} ---", index + 1));
        }
    }
    report.line(format!(
        "  --- RVP{} (terminal: commit) ---",
        graph.phase_count()
    ));
    report
}

/// Figure 5: locks acquired per 100 transactions, by class, for TM1, TPC-B
/// and TPC-C OrderStatus under both systems.
pub(crate) fn fig5(scale: &Scale) -> Report {
    let mut report = Report::new("Figure 5: locks acquired per 100 transactions");
    report.line(format!(
        "  {:<26} {:<10} {:>12} {:>14} {:>14}",
        "workload", "system", "row-level", "higher-level", "thread-local"
    ));
    let load = [75.0];
    for which in 0..3 {
        for system in SystemUnderTest::ALL {
            let (name, results) = match which {
                0 => ("TM1", sweep(scale.tm1(), scale, system, &load)),
                1 => ("TPC-B", sweep(scale.tpcb(), scale, system, &load)),
                _ => (
                    "TPC-C OrderStatus",
                    sweep(
                        scale.tpcc().with_mix(TpccMix::OrderStatusOnly),
                        scale,
                        system,
                        &load,
                    ),
                ),
            };
            let (_, result) = &results[0];
            let (row, higher, local) = result.locks_per_100_txns();
            report.line(format!(
                "  {:<26} {:<10} {:>12.0} {:>14.0} {:>14.0}",
                name,
                system.label(),
                row,
                higher,
                local
            ));
        }
    }
    report
}

/// Figure 6: throughput as the offered CPU load grows (including past
/// saturation) for TM1, TPC-B and TPC-C OrderStatus.
pub(crate) fn fig6(scale: &Scale) -> Report {
    let mut report = Report::new("Figure 6: throughput vs offered CPU load");
    for which in 0..3 {
        let name = ["TM1", "TPC-B", "TPC-C OrderStatus"][which];
        report.line(format!("{name}:"));
        report.line(format!(
            "  {:>10} {:>16} {:>16}",
            "load(%)", "Baseline tps", "DORA tps"
        ));
        let mut series: Vec<Vec<(f64, f64)>> = Vec::new();
        let mut per_type: Vec<(&'static str, WorkloadStats)> = Vec::new();
        for system in SystemUnderTest::ALL {
            let (results, stats) = match which {
                0 => sweep_stats(scale.tm1(), scale, system, &scale.load_points()),
                1 => sweep_stats(scale.tpcb(), scale, system, &scale.load_points()),
                _ => sweep_stats(
                    scale.tpcc().with_mix(TpccMix::OrderStatusOnly),
                    scale,
                    system,
                    &scale.load_points(),
                ),
            };
            series.push(
                results
                    .iter()
                    .map(|(load, r)| (*load, r.throughput_tps))
                    .collect(),
            );
            per_type.push((system.label(), stats));
        }
        for (index, load) in scale.load_points().iter().enumerate() {
            report.line(format!(
                "  {:>10.0} {:>16.0} {:>16.0}",
                load, series[0][index].1, series[1][index].1
            ));
        }
        for (label, stats) in &per_type {
            report.line(format!("  {label} per-transaction-type summary:"));
            txn_stats_table(&mut report, stats);
        }
        report.blank();
    }
    report
}

/// Figure 7: single-client response times (intra-transaction parallelism).
pub(crate) fn fig7(scale: &Scale) -> Report {
    let mut report = Report::new("Figure 7: single-client response time (normalized to Baseline)");
    report.line(format!(
        "  {:<26} {:>16} {:>16} {:>12}",
        "transaction", "Baseline (us)", "DORA (us)", "DORA/Base"
    ));
    let iterations = if scale.duration.as_millis() > 500 {
        400
    } else {
        100
    };

    // (label, workload constructor shared by every engine)
    type WorkloadFactory = Box<dyn Fn() -> Box<dyn Workload>>;
    let cases: Vec<(&str, WorkloadFactory)> = vec![
        (
            "TM1 GetSubscriberData",
            Box::new({
                let scale = scale.clone();
                move || Box::new(scale.tm1().with_mix(Tm1Mix::GetSubscriberDataOnly))
            }),
        ),
        (
            "TPC-C Payment",
            Box::new({
                let scale = scale.clone();
                move || Box::new(scale.tpcc().with_mix(TpccMix::PaymentOnly))
            }),
        ),
        (
            "TPC-C OrderStatus",
            Box::new({
                let scale = scale.clone();
                move || Box::new(scale.tpcc().with_mix(TpccMix::OrderStatusOnly))
            }),
        ),
        (
            "TPC-C NewOrder",
            Box::new({
                let scale = scale.clone();
                move || Box::new(scale.tpcc().with_mix(TpccMix::NewOrderOnly))
            }),
        ),
        (
            "TPC-B",
            Box::new({
                let scale = scale.clone();
                move || Box::new(scale.tpcb())
            }),
        ),
    ];

    for (label, make) in cases {
        let driver = ClientDriver::new(DriverConfig {
            clients: 1,
            duration: scale.duration,
            warmup: scale.warmup,
            hardware_contexts: scale.hardware_contexts,
        });
        // One fresh database + bound engine per registered architecture; the
        // measurement itself goes through the unified ExecutionEngine seam.
        let mean_us: Vec<f64> = SystemUnderTest::ALL
            .into_iter()
            .map(|system| {
                let db = Database::new(scale.system_config());
                let workload: Arc<dyn Workload> = Arc::from(make());
                workload.setup(&db).expect("setup");
                let engine = build_engine(system, Arc::clone(&db));
                engine
                    .bind(workload, scale.executors_per_table)
                    .expect("bind");
                let latency = driver.measure_engine(iterations, engine.as_ref());
                engine.shutdown();
                latency.mean().as_micros() as f64
            })
            .collect();

        let base_us = mean_us[0];
        let dora_us = mean_us[mean_us.len() - 1];
        report.line(format!(
            "  {:<26} {:>16.0} {:>16.0} {:>12.2}",
            label,
            base_us,
            dora_us,
            dora_us / base_us.max(1.0)
        ));
    }
    report
}

/// Figure 8: peak throughput under perfect admission control, with the CPU
/// utilization at which the peak is reached.
pub(crate) fn fig8(scale: &Scale) -> Report {
    let mut report = Report::new("Figure 8: peak throughput under perfect admission control");
    report.line(format!(
        "  {:<26} {:<10} {:>12} {:>14} {:>18}",
        "workload", "system", "peak tps", "norm. to base", "cpu util at peak"
    ));
    for which in 0..3 {
        let name = ["TM1", "TPC-B", "TPC-C OrderStatus"][which];
        let mut base_peak = 0.0;
        for system in SystemUnderTest::ALL {
            let prepared = match which {
                0 => prepare(scale.tm1(), scale, system),
                1 => prepare(scale.tpcb(), scale, system),
                _ => prepare(
                    scale.tpcc().with_mix(TpccMix::OrderStatusOnly),
                    scale,
                    system,
                ),
            };
            let client_counts: Vec<usize> = scale
                .load_points()
                .iter()
                .map(|&p| scale.clients_for(p))
                .collect();
            let peak = find_peak(&client_counts, |clients| {
                run_clients(&prepared, scale, clients)
            });
            prepared.shutdown();
            // The first registered engine is the normalization base (the
            // paper normalizes to the conventional system).
            if base_peak == 0.0 {
                base_peak = peak.best_tps;
            }
            report.line(format!(
                "  {:<26} {:<10} {:>12.0} {:>14.2} {:>17.0}%",
                name,
                system.label(),
                peak.best_tps,
                peak.best_tps / base_peak.max(1.0),
                peak.cpu_utilization_at_peak
                    .unwrap_or(peak.offered_load_at_peak()),
            ));
        }
    }
    report
}

/// Figure 10: the District access trace under thread-to-transaction vs
/// thread-to-data assignment (TPC-C Payment, 10 warehouses).
pub(crate) fn fig10(scale: &Scale) -> Report {
    let mut report = Report::new("Figure 10: District access patterns (TPC-C Payment)");
    let warehouses = 10i64.min(scale.tpcc_warehouses.max(2));
    let districts = (warehouses * 10) as usize;
    let threads = 10usize;
    let tpcc = Tpcc::with_scale(
        warehouses,
        scale.tpcc_customers_per_district,
        scale.tpcc_items,
    )
    .with_mix(TpccMix::PaymentOnly);

    // Conventional (thread-to-transaction): any worker thread updates any
    // district.
    let db = Database::new(scale.system_config());
    tpcc.setup(&db).expect("setup");
    let baseline = BaselineEngine::new(Arc::clone(&db));
    let trace_baseline = AccessTrace::new();
    let tpcc = Arc::new(tpcc);
    let driver = ClientDriver::new(DriverConfig {
        clients: threads,
        duration: scale.duration,
        warmup: std::time::Duration::from_millis(0),
        hardware_contexts: scale.hardware_contexts,
    });
    {
        let tpcc = Arc::clone(&tpcc);
        let trace = trace_baseline.clone();
        let baseline = baseline.clone();
        driver.run(move |client, rng| {
            let (w_id, d_id, c_w_id, c_d_id, selector, amount) = tpcc.payment_inputs(rng);
            trace.record(client, ((w_id - 1) * 10 + (d_id - 1)) as usize);
            tpcc.payment_program(baseline.db(), w_id, d_id, c_w_id, c_d_id, selector, amount)
                .and_then(|program| baseline.execute(program.compile_baseline()))
                .unwrap_or(dora_engine::TxnOutcome::Aborted)
        });
    }

    // DORA (thread-to-data): the district's executor — determined by the
    // routing rule — performs the access.
    let db = Database::new(scale.system_config());
    let tpcc_dora = Tpcc::with_scale(
        warehouses,
        scale.tpcc_customers_per_district,
        scale.tpcc_items,
    )
    .with_mix(TpccMix::PaymentOnly);
    tpcc_dora.setup(&db).expect("setup");
    let dora = Arc::new(DoraEngine::new(Arc::clone(&db), DoraConfig::default()));
    // Ten executors on the District table so the comparison uses the same
    // number of "threads" as the conventional run, like the paper's figure.
    let tpcc_dora = Arc::new(tpcc_dora);
    tpcc_dora
        .bind_dora(&dora, threads.min(scale.executors_per_table.max(2)))
        .expect("bind");
    let district_table = db.table_id("district").expect("district table");
    let trace_dora = AccessTrace::new();
    {
        let tpcc = Arc::clone(&tpcc_dora);
        let trace = trace_dora.clone();
        let dora = Arc::clone(&dora);
        let routing = dora.routing().rule(district_table).expect("district rule");
        driver.run(move |_client, rng| {
            let (w_id, d_id, c_w_id, c_d_id, selector, amount) = tpcc.payment_inputs(rng);
            let executor = routing.route(&Key::int2(w_id, d_id)).unwrap_or(0);
            trace.record(executor, ((w_id - 1) * 10 + (d_id - 1)) as usize);
            match dora.execute(
                tpcc.payment_program(dora.db(), w_id, d_id, c_w_id, c_d_id, selector, amount)
                    .expect("program")
                    .compile_dora(),
            ) {
                Ok(()) => dora_engine::TxnOutcome::Committed,
                Err(_) => dora_engine::TxnOutcome::Aborted,
            }
        });
    }
    dora.shutdown();

    report.line(format!(
        "  {} district records, {} worker threads, {} executor threads",
        districts,
        threads,
        dora.executor_count(district_table)
    ));
    report.blank();
    report.line("(a) thread-to-transaction (conventional): accesses per thread x district");
    report.line(trace_baseline.render_heatmap(threads, districts));
    report.line(format!(
        "    distinct districts touched per thread: {:?}",
        trace_baseline.distinct_districts_per_thread(threads, districts)
    ));
    report.blank();
    report.line("(b) thread-to-data (DORA): accesses per executor x district");
    let executor_threads = dora.executor_count(district_table).max(1);
    report.line(trace_dora.render_heatmap(executor_threads, districts));
    report.line(format!(
        "    distinct districts touched per executor: {:?}",
        trace_dora.distinct_districts_per_thread(executor_threads, districts)
    ));
    report
}

/// Figure 11: TM1-UpdateSubscriberData (a transaction with a ~37.5% abort
/// rate): Baseline vs the parallel (DORA-P) and serialized (DORA-S) plans.
pub(crate) fn fig11(scale: &Scale) -> Report {
    let mut report = Report::new("Figure 11: TM1-UpdateSubscriberData with a high abort rate");
    report.line(format!(
        "  {:>10} {:>16} {:>16} {:>16}",
        "load(%)", "Baseline tps", "DORA-P tps", "DORA-S tps"
    ));
    let loads = scale.load_points();
    // The plans are hand-picked here — DORA-P *must* stay parallel — so no
    // predicted abort rate reaches the serialization threshold, and the
    // conflict analyzer never turns the high-abort UpdateSubscriberData
    // program into DORA-S on its own.
    let hand_picked = DoraConfig {
        serialize_abort_threshold: f64::INFINITY,
        ..DoraConfig::default()
    };
    let baseline = sweep_with_config(
        scale.tm1().with_mix(Tm1Mix::UpdateSubscriberDataOnly),
        scale,
        SystemUnderTest::Baseline,
        &loads,
        hand_picked.clone(),
    );
    let dora_p = sweep_with_config(
        scale
            .tm1()
            .with_mix(Tm1Mix::UpdateSubscriberDataOnly)
            .with_serial_update_plan(false),
        scale,
        SystemUnderTest::Dora,
        &loads,
        hand_picked.clone(),
    );
    let dora_s = sweep_with_config(
        scale
            .tm1()
            .with_mix(Tm1Mix::UpdateSubscriberDataOnly)
            .with_serial_update_plan(true),
        scale,
        SystemUnderTest::Dora,
        &loads,
        hand_picked,
    );
    for (index, load) in loads.iter().enumerate() {
        report.line(format!(
            "  {:>10.0} {:>16.0} {:>16.0} {:>16.0}",
            load,
            baseline[index].1.throughput_tps,
            dora_p[index].1.throughput_tps,
            dora_s[index].1.throughput_tps
        ));
    }
    report.blank();
    report.kv(
        "observed abort rate (Baseline, peak load)",
        pct(baseline.last().map(|(_, r)| r.abort_rate()).unwrap_or(0.0)),
    );
    report
}

/// One phase of the adaptive-repartitioning experiment: two back-to-back
/// driver intervals on one engine, so "before" captures the cold routing
/// rule and "after" captures whatever the adaptive controller converged to
/// during the first interval.
#[derive(Debug, Clone)]
pub(crate) struct SkewPhase {
    /// Scenario label ("static" / "adaptive" / with "+drift").
    pub label: &'static str,
    /// Committed tps over the first interval (cold rule).
    pub before_tps: f64,
    /// Committed tps over the second interval.
    pub after_tps: f64,
    /// Resizes the adaptive controller drove (0 for static phases).
    pub resizes: u64,
    /// Actions served per executor during the second interval only.
    pub final_loads: Vec<u64>,
}

impl SkewPhase {
    /// Busiest over least-busy executor across the final interval (idle
    /// executors count as one action so the ratio stays finite).
    pub(crate) fn load_ratio(&self) -> f64 {
        let max = self.final_loads.iter().copied().max().unwrap_or(0).max(1);
        let min = self.final_loads.iter().copied().min().unwrap_or(0).max(1);
        max as f64 / min as f64
    }
}

/// Everything the skew experiment measured; serialized to `BENCH_skew.json`
/// by the CI bench-smoke job so the perf trajectory is tracked per PR.
#[derive(Debug, Clone)]
pub(crate) struct SkewSummary {
    /// Zipfian skew parameter.
    pub theta: f64,
    /// Counter rows.
    pub keys: i64,
    /// Executors on the counters table.
    pub executors: usize,
    /// Client threads driving load.
    pub clients: usize,
    /// Measured interval length per driver run, in milliseconds.
    pub interval_ms: u64,
    /// The four phases: static/adaptive × fixed/drifting hot range.
    pub phases: Vec<SkewPhase>,
}

impl SkewSummary {
    /// Renders the summary as a small JSON document (the workspace has no
    /// serde; the fields are all numbers, so hand-rolling is safe).
    pub(crate) fn to_json(&self) -> String {
        let phases = self
            .phases
            .iter()
            .map(|phase| {
                let loads = phase
                    .final_loads
                    .iter()
                    .map(|l| l.to_string())
                    .collect::<Vec<_>>()
                    .join(",");
                format!(
                    concat!(
                        "    {{\"label\": \"{}\", \"before_tps\": {:.1}, ",
                        "\"after_tps\": {:.1}, \"resizes\": {}, ",
                        "\"final_loads\": [{}], \"load_ratio\": {:.3}}}"
                    ),
                    phase.label,
                    phase.before_tps,
                    phase.after_tps,
                    phase.resizes,
                    loads,
                    phase.load_ratio(),
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            concat!(
                "{{\n  \"experiment\": \"skew\",\n  \"theta\": {},\n",
                "  \"keys\": {},\n  \"executors\": {},\n  \"clients\": {},\n",
                "  \"interval_ms\": {},\n  \"phases\": [\n{}\n  ]\n}}\n"
            ),
            self.theta, self.keys, self.executors, self.clients, self.interval_ms, phases
        )
    }
}

fn run_skew_phase(
    scale: &Scale,
    label: &'static str,
    drift: Option<(u64, i64)>,
    adaptive: bool,
) -> SkewPhase {
    let db = Database::new(scale.system_config());
    let mut workload = scale.skewed();
    if let Some((every, step)) = drift {
        workload = workload.with_drift(every, step);
    }
    workload.setup(&db).expect("setup skewed workload");
    let workload: Arc<dyn Workload> = Arc::new(workload);

    let mut config = DoraConfig::default();
    if adaptive {
        config.adaptive = AdaptiveConfig::eager();
    }
    let executors = scale.executors_per_table.max(2);
    let execution = Arc::new(DoraExecution::new(Arc::new(DoraEngine::new(
        Arc::clone(&db),
        config,
    ))));
    execution
        .bind(Arc::clone(&workload), executors)
        .expect("bind skewed workload");
    let table = db.table_id("skewed_counters").expect("counters table");

    let clients = scale.clients_for(75.0);
    let driver = ClientDriver::new(DriverConfig {
        clients,
        duration: scale.duration,
        warmup: scale.warmup,
        hardware_contexts: scale.hardware_contexts,
    });
    let engine_dyn: Arc<dyn ExecutionEngine> = Arc::clone(&execution) as _;
    let before = driver.run_engine(Arc::clone(&engine_dyn));
    // The second run reuses the already-warm engine with no warm-up of its
    // own, so the load delta around it is exactly the final interval.
    let after_driver = ClientDriver::new(DriverConfig {
        warmup: std::time::Duration::ZERO,
        ..driver.config().clone()
    });
    let loads_mark = execution.dora().executor_loads(table).expect("loads");
    let after = after_driver.run_engine(engine_dyn);
    let loads_end = execution.dora().executor_loads(table).expect("loads");
    let resizes = execution.adaptive_resizes();
    execution.shutdown();

    SkewPhase {
        label,
        before_tps: before.throughput_tps,
        after_tps: after.throughput_tps,
        resizes,
        final_loads: loads_end
            .iter()
            .zip(&loads_mark)
            .map(|(end, mark)| end.saturating_sub(*mark))
            .collect(),
    }
}

/// The adaptive-repartitioning experiment: a zipfian workload (θ from
/// [`Scale::zipf_theta`]) run on DORA with a static even-range rule vs. the
/// adaptive controller, each for a fixed and a drifting hot range. Not a
/// paper figure — this probes the Appendix A.2.1 machinery the paper only
/// sketches — so it reports before/after throughput and the per-executor
/// load spread instead of mirroring a printed plot.
pub(crate) fn skew_with_summary(scale: &Scale) -> (Report, SkewSummary) {
    // Drift fast enough that the hot range moves several times per measured
    // interval even at quick scale.
    let drift = Some((1_000, (scale.skew_keys / 4).max(1)));
    let phases = vec![
        run_skew_phase(scale, "static", None, false),
        run_skew_phase(scale, "adaptive", None, true),
        run_skew_phase(scale, "static+drift", drift, false),
        run_skew_phase(scale, "adaptive+drift", drift, true),
    ];
    let summary = SkewSummary {
        theta: scale.zipf_theta,
        keys: scale.skew_keys,
        executors: scale.executors_per_table.max(2),
        clients: scale.clients_for(75.0),
        interval_ms: scale.duration.as_millis() as u64,
        phases,
    };

    let mut report = Report::new(format!(
        "Skew: adaptive repartitioning under zipfian load (theta={})",
        summary.theta
    ));
    report.line(format!(
        "  {} keys, {} executors, {} clients, {} ms per interval",
        summary.keys, summary.executors, summary.clients, summary.interval_ms
    ));
    report.blank();
    report.line(format!(
        "  {:<16} {:>12} {:>12} {:>9} {:>12}  final loads",
        "scenario", "before tps", "after tps", "resizes", "load ratio"
    ));
    for phase in &summary.phases {
        report.line(format!(
            "  {:<16} {:>12.0} {:>12.0} {:>9} {:>12.2}  {:?}",
            phase.label,
            phase.before_tps,
            phase.after_tps,
            phase.resizes,
            phase.load_ratio(),
            phase.final_loads,
        ));
    }
    report.blank();
    report.line("  (load ratio = busiest/least-busy executor over the final interval;");
    report.line("   the adaptive rows should show >=1 resize and a ratio near 1)");
    (report, summary)
}

/// One cell of the `commit` durability experiment: one engine × one commit
/// mode × one simulated log-device latency.
#[derive(Debug, Clone)]
pub(crate) struct CommitRow {
    /// Engine label ("Baseline" / "DORA").
    pub engine: &'static str,
    /// Commit-mode label ("group" / "group+elr").
    pub mode: &'static str,
    /// Simulated log-device latency in microseconds.
    pub flush_us: u64,
    /// Committed tps over the measured interval.
    pub tps: f64,
    /// Transactions committed.
    pub committed: u64,
    /// Device writes performed, by committers and flusher daemons alike
    /// (the whole run, warm-up included).
    pub flush_groups: u64,
    /// Mean commit records hardened per device write.
    pub mean_group: f64,
    /// Largest flush group observed.
    pub max_group: u64,
    /// Share of the measured interval's device writes a committer performed
    /// under the flush claim (`LeaderFlushes ÷ LogFlushes`): 1.000 when
    /// every client blocks for its commit, as the closed-loop driver's do.
    pub led_share: f64,
    /// Transactions whose locks were released before durability.
    pub elr_releases: u64,
    /// Mean client-visible commit wait, in microseconds.
    pub commit_wait_us: f64,
    /// Mean client latency (execute + commit), in microseconds.
    pub latency_us: f64,
}

/// Everything the `commit` experiment measured; serialized to
/// `BENCH_commit.json` by the CI bench-smoke job.
#[derive(Debug, Clone)]
pub(crate) struct CommitSummary {
    /// TPC-B branches / accounts-per-branch driving the log pressure.
    pub branches: i64,
    /// Client threads driving load.
    pub clients: usize,
    /// Measured interval length, in milliseconds.
    pub interval_ms: u64,
    /// The swept simulated device latencies, in microseconds.
    pub flush_points: Vec<u64>,
    /// One row per engine × mode × device latency.
    pub rows: Vec<CommitRow>,
}

impl CommitSummary {
    /// Renders the summary as a small JSON document (the workspace has no
    /// serde; the fields are all numbers, so hand-rolling is safe).
    pub(crate) fn to_json(&self) -> String {
        let rows = self
            .rows
            .iter()
            .map(|row| {
                format!(
                    concat!(
                        "    {{\"engine\": \"{}\", \"mode\": \"{}\", ",
                        "\"flush_us\": {}, \"tps\": {:.1}, \"committed\": {}, ",
                        "\"flush_groups\": {}, \"mean_group\": {:.3}, ",
                        "\"max_group\": {}, \"led_share\": {:.3}, \"elr_releases\": {}, ",
                        "\"commit_wait_us\": {:.1}, \"latency_us\": {:.1}}}"
                    ),
                    row.engine,
                    row.mode,
                    row.flush_us,
                    row.tps,
                    row.committed,
                    row.flush_groups,
                    row.mean_group,
                    row.max_group,
                    row.led_share,
                    row.elr_releases,
                    row.commit_wait_us,
                    row.latency_us,
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        let points = self
            .flush_points
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join(",");
        format!(
            concat!(
                "{{\n  \"experiment\": \"commit\",\n  \"branches\": {},\n",
                "  \"clients\": {},\n  \"interval_ms\": {},\n",
                "  \"flush_points\": [{}],\n",
                "  \"rows\": [\n{}\n  ]\n}}\n"
            ),
            self.branches, self.clients, self.interval_ms, points, rows
        )
    }
}

/// The two commit modes the durability experiment compares: locks held until
/// durable, and released at precommit.
fn commit_modes() -> [(&'static str, dora_common::DurabilityConfig); 2] {
    use dora_common::DurabilityConfig;
    [
        ("group", DurabilityConfig::group_commit_only()),
        ("group+elr", DurabilityConfig::default()),
    ]
}

fn run_commit_cell(
    scale: &Scale,
    system: SystemUnderTest,
    mode: &'static str,
    durability: dora_common::DurabilityConfig,
    flush_us: u64,
) -> CommitRow {
    let config = dora_common::SystemConfig {
        log_flush_micros: flush_us,
        durability,
        ..scale.system_config()
    };
    let db = Database::new(config);
    let workload: Arc<dyn Workload> = Arc::new(scale.tpcb());
    workload.setup(&db).expect("setup TPC-B");
    let engine = build_engine(system, Arc::clone(&db));
    engine
        .bind(Arc::clone(&workload), scale.executors_per_table)
        .expect("bind TPC-B");

    let driver = ClientDriver::new(DriverConfig {
        clients: scale.clients_for(100.0),
        duration: scale.duration,
        warmup: scale.warmup,
        hardware_contexts: scale.hardware_contexts,
    });
    let result = driver.run_engine(Arc::clone(&engine));
    engine.shutdown();

    // The group-size histogram is per-database (whole run including
    // warm-up); the counter deltas cover exactly the measured interval.
    let groups = db.log_manager().flush_group_sizes();
    CommitRow {
        engine: system.label(),
        mode,
        flush_us,
        tps: result.throughput_tps,
        committed: result.committed,
        flush_groups: groups.count(),
        mean_group: groups.mean(),
        max_group: groups.max(),
        led_share: result.metrics.counter(CounterKind::LeaderFlushes) as f64
            / result.metrics.counter(CounterKind::LogFlushes).max(1) as f64,
        elr_releases: result.metrics.counter(CounterKind::ElrEarlyReleases),
        commit_wait_us: result.mean_commit_wait().as_nanos() as f64 / 1_000.0,
        latency_us: result.latency.mean().as_nanos() as f64 / 1_000.0,
    }
}

/// The durability experiment: TPC-B (one commit record per transfer)
/// under group commit with and without early lock release, across simulated
/// log-device latencies, on both engines. Not a paper
/// figure — it probes the Section 5.4 observation that the log becomes the
/// next bottleneck once lock contention is gone, and quantifies how far ELR
/// pushes it back.
pub(crate) fn commit_with_summary(scale: &Scale) -> (Report, CommitSummary) {
    let flush_points = scale.commit_flush_points();
    let mut rows = Vec::new();
    for &flush_us in &flush_points {
        for system in SystemUnderTest::ALL {
            for (mode, durability) in commit_modes() {
                rows.push(run_commit_cell(scale, system, mode, durability, flush_us));
            }
        }
    }
    let summary = CommitSummary {
        branches: scale.tpcb_branches,
        clients: scale.clients_for(100.0),
        interval_ms: scale.duration.as_millis() as u64,
        flush_points,
        rows,
    };

    let mut report = Report::new("Commit: group commit vs group+ELR (TPC-B)");
    report.line(format!(
        "  {} branches, {} clients, {} ms per interval",
        summary.branches, summary.clients, summary.interval_ms
    ));
    for &flush_us in &summary.flush_points {
        report.blank();
        report.line(format!("  log-device latency {flush_us} us:"));
        report.line(format!(
            "  {:<10} {:<10} {:>10} {:>12} {:>10} {:>10} {:>12} {:>12}",
            "engine", "mode", "tps", "mean group", "led_share", "elr", "commit(us)", "latency(us)"
        ));
        for row in summary.rows.iter().filter(|r| r.flush_us == flush_us) {
            report.line(format!(
                "  {:<10} {:<10} {:>10.0} {:>12.2} {:>10.3} {:>10} {:>12.1} {:>12.1}",
                row.engine,
                row.mode,
                row.tps,
                row.mean_group,
                row.led_share,
                row.elr_releases,
                row.commit_wait_us,
                row.latency_us,
            ));
        }
    }
    report.blank();
    report.line("  (mean group = commit records hardened per device write, whoever wrote;");
    report.line("   led_share = writes a blocked committer performed itself ÷ all writes)");
    (report, summary)
}

/// What the `recover` experiment measured: the one recovery path timed on
/// the same history with and without a checkpoint.
#[derive(Debug, Clone)]
pub(crate) struct RecoverRow {
    /// Committed transactions reconstructed by replay.
    pub txns: usize,
    /// Total log records.
    pub records: usize,
    /// What recovery reads past the midpoint checkpoint: its carried
    /// records plus the log tail past its low-water mark.
    pub delta_records: usize,
    /// Recovery of the log that was never checkpointed, in milliseconds.
    pub full_ms: f64,
    /// Recovery of the log checkpointed at its midpoint, in milliseconds.
    pub checkpoint_ms: f64,
    /// What building the midpoint checkpoint cost.
    pub checkpoint_build: dora_storage::CheckpointStats,
}

impl RecoverRow {
    /// Committed transactions replayed per second from the whole log.
    pub(crate) fn replay_tps(&self) -> f64 {
        if self.full_ms <= 0.0 {
            0.0
        } else {
            self.txns as f64 * 1_000.0 / self.full_ms
        }
    }

    /// Whole-log over checkpointed recovery time.
    pub(crate) fn checkpoint_speedup(&self) -> f64 {
        if self.checkpoint_ms <= 0.0 {
            0.0
        } else {
            self.full_ms / self.checkpoint_ms
        }
    }
}

/// Everything the `recover` experiment measured; serialized to
/// `BENCH_recover.json` by the CI bench-smoke job.
#[derive(Debug, Clone)]
pub(crate) struct RecoverSummary {
    /// TPC-B branches generating the log.
    pub branches: i64,
    /// Transactions logged before measuring replay.
    pub txns_logged: usize,
    /// The measurements.
    pub row: RecoverRow,
}

impl RecoverSummary {
    /// Renders the summary as a small JSON document (the workspace has no
    /// serde; the fields are all numbers, so hand-rolling is safe).
    pub(crate) fn to_json(&self) -> String {
        let row = &self.row;
        format!(
            concat!(
                "{{\n  \"experiment\": \"recover\",\n  \"branches\": {},\n",
                "  \"txns_logged\": {},\n  \"txns\": {},\n",
                "  \"records\": {},\n  \"delta_records\": {},\n",
                "  \"full_ms\": {:.3},\n  \"checkpoint_ms\": {:.3},\n",
                "  \"replay_tps\": {:.1},\n  \"checkpoint_speedup\": {:.3}\n}}\n"
            ),
            self.branches,
            self.txns_logged,
            row.txns,
            row.records,
            row.delta_records,
            row.full_ms,
            row.checkpoint_ms,
            row.replay_tps(),
            row.checkpoint_speedup(),
        )
    }
}

/// Runs `scale.recover_txns` TPC-B transactions through DORA — the same
/// seed every time — taking a checkpoint at the midpoint if `checkpoint` is
/// set.
fn logged_tpcb(scale: &Scale, workload: &Arc<dyn Workload>, checkpoint: bool) -> Arc<Database> {
    // Replay speed is the subject; a simulated device latency would only
    // slow the logging phase down.
    let config = dora_common::SystemConfig {
        log_flush_micros: 0,
        ..scale.system_config()
    };
    let db = Database::new(config);
    workload.setup(&db).expect("setup TPC-B");
    let engine = build_engine(SystemUnderTest::Dora, Arc::clone(&db));
    engine
        .bind(Arc::clone(workload), scale.executors_per_table)
        .expect("bind TPC-B");
    let mut rng = SmallRng::seed_from_u64(0x5EC0_4E42);
    for ran in 0..scale.recover_txns {
        if checkpoint && ran == scale.recover_txns / 2 {
            db.log_manager().take_checkpoint();
        }
        let _ = engine.execute_one(&mut rng);
    }
    engine.shutdown();
    db
}

fn run_recover_cell(scale: &Scale) -> RecoverRow {
    let workload: Arc<dyn Workload> = Arc::new(scale.tpcb());
    let whole = logged_tpcb(scale, &workload, false);
    let checkpointed = logged_tpcb(scale, &workload, true);
    let log = checkpointed.log_manager();
    let delta_records = log.checkpoint_snapshot().map_or(0, |cp| {
        cp.pending().len() + log.records_after(cp.low_water()).len()
    });

    let fresh_replica = || {
        let fresh = Database::new(scale.system_config());
        workload.create_schema(&fresh).expect("replica schema");
        workload.load(&fresh).expect("replica load");
        fresh
    };
    // Two passes per log, keeping the faster one: the first replay after
    // the logging phase pays one-off allocator and cache warm-up that would
    // otherwise be billed to whichever log happens to replay first.
    let time_ms = |db: &Database| {
        (0..2)
            .map(|_| {
                let replica = fresh_replica();
                let start = Instant::now();
                db.recover_into(&replica).expect("recovery");
                start.elapsed().as_secs_f64() * 1_000.0
            })
            .fold(f64::INFINITY, f64::min)
    };

    RecoverRow {
        txns: whole.log_manager().redo(None).expect("redo").seq_horizon as usize,
        records: whole.log_manager().len(),
        delta_records,
        full_ms: time_ms(&whole),
        checkpoint_ms: time_ms(&checkpointed),
        checkpoint_build: log.checkpoint_stats(),
    }
}

/// The recovery experiment: log a fixed TPC-B transaction count, then time
/// the one recovery path on that log and on the same history checkpointed at
/// its midpoint. Not a paper figure — it quantifies restart cost:
/// page-sharded replay, and a checkpoint that leaves only the tail past it
/// to replay.
pub(crate) fn recover_with_summary(scale: &Scale) -> (Report, RecoverSummary) {
    let summary = RecoverSummary {
        branches: scale.tpcb_branches,
        txns_logged: scale.recover_txns,
        row: run_recover_cell(scale),
    };

    let mut report = Report::new("Recover: the one recovery path (TPC-B)");
    report.line(format!(
        "  {} branches, {} transactions, with and without a checkpoint at the midpoint",
        summary.branches, summary.txns_logged
    ));
    report.blank();
    report.line(format!(
        "  {:>8} {:>8} {:>8} {:>9} {:>9} {:>9} {:>12}",
        "txns", "records", "delta", "full(ms)", "ckpt(ms)", "speedup", "replay-tps"
    ));
    let row = &summary.row;
    report.line(format!(
        "  {:>8} {:>8} {:>8} {:>9.2} {:>9.2} {:>8.2}x {:>12.0}",
        row.txns,
        row.records,
        row.delta_records,
        row.full_ms,
        row.checkpoint_ms,
        row.checkpoint_speedup(),
        row.replay_tps(),
    ));
    report.blank();
    let build = &row.checkpoint_build;
    report.line(format!(
        "  checkpoint build: {} build(s), last {:.2} ms (max {:.2}), {} records folded into \
         {} rows, longest records-mutex hold {} us",
        build.builds,
        build.last_build.as_secs_f64() * 1e3,
        build.max_build.as_secs_f64() * 1e3,
        build.records_folded,
        build.rows_held,
        build.max_lock_hold.as_micros(),
    ));
    report.blank();
    report.line("  (full = the log never checkpointed; ckpt = the same history checkpointed");
    report.line("   at its midpoint, so recovery replays the checkpoint plus the tail past it;");
    report.line("   replay shards records by page across as many workers as they keep busy)");
    (report, summary)
}

/// One load point of one `saturation` series: outcome tallies and response
/// times for a fixed offered load, as observed by the clients of the
/// serving front-end (`dora-server`).
#[derive(Debug, Clone)]
pub(crate) struct SaturationPoint {
    /// Offered load in percent of the hardware contexts.
    pub load_percent: f64,
    /// Closed-loop client threads (one session each).
    pub clients: usize,
    /// Submissions during the measured interval.
    pub submitted: u64,
    /// ... that committed.
    pub committed: u64,
    /// ... that aborted.
    pub aborted: u64,
    /// ... that exhausted the retry budget.
    pub gave_up: u64,
    /// ... that the admission controller shed without running.
    pub shed: u64,
    /// Committed transactions per second.
    pub tps: f64,
    /// Median response time (µs) of executed (non-shed) submissions,
    /// including any time spent queued at the admission gate.
    pub p50_us: u64,
    /// 99th-percentile response time (µs), same population.
    pub p99_us: u64,
}

impl SaturationPoint {
    /// Fraction of submissions shed.
    pub(crate) fn shed_rate(&self) -> f64 {
        self.shed as f64 / self.submitted.max(1) as f64
    }
}

/// One system × admission-policy series of the `saturation` experiment.
#[derive(Debug, Clone)]
pub(crate) struct SaturationSeries {
    /// Engine label ("Baseline" / "DORA").
    pub system: &'static str,
    /// Whether the admission gate was active.
    pub admission: bool,
    /// One entry per offered-load point, in sweep order.
    pub points: Vec<SaturationPoint>,
}

impl SaturationSeries {
    /// Display label ("DORA+admission").
    pub(crate) fn label(&self) -> String {
        if self.admission {
            format!("{}+admission", self.system)
        } else {
            self.system.to_string()
        }
    }

    /// Best committed tps across the sweep.
    pub(crate) fn peak_tps(&self) -> f64 {
        self.points.iter().map(|p| p.tps).fold(0.0, f64::max)
    }

    /// Throughput at the last (most oversaturated) point as a fraction of
    /// the peak — the figure of merit: admission control should hold this
    /// near 1.0 while an ungated system degrades.
    pub(crate) fn peak_retention(&self) -> f64 {
        match self.points.last() {
            Some(last) => last.tps / self.peak_tps().max(1.0),
            None => 0.0,
        }
    }
}

/// Everything the `saturation` experiment measured; serialized to
/// `BENCH_saturation.json` by the CI bench-smoke job.
#[derive(Debug, Clone)]
pub(crate) struct SaturationSummary {
    /// Measured interval length per load point, in milliseconds.
    pub interval_ms: u64,
    /// Hardware contexts the offered load is normalized against.
    pub hardware_contexts: usize,
    /// Execution slots of the admission policy (for the gated series).
    pub max_active: usize,
    /// Queue slots behind them before arrivals are shed.
    pub max_queued: usize,
    /// TPC-B branches.
    pub branches: i64,
    /// The four series: {Baseline, DORA} × admission {off, on}.
    pub series: Vec<SaturationSeries>,
}

impl SaturationSummary {
    /// Renders the summary as a small JSON document (the workspace has no
    /// serde; every field is a number, a bool or a fixed label, so
    /// hand-rolling is safe).
    pub(crate) fn to_json(&self) -> String {
        let series = self
            .series
            .iter()
            .map(|series| {
                let points = series
                    .points
                    .iter()
                    .map(|p| {
                        format!(
                            concat!(
                                "        {{\"load_percent\": {}, \"clients\": {}, ",
                                "\"tps\": {:.1}, \"p50_us\": {}, \"p99_us\": {}, ",
                                "\"shed_rate\": {:.4}, \"submitted\": {}, ",
                                "\"committed\": {}, \"aborted\": {}, ",
                                "\"gave_up\": {}, \"shed\": {}}}"
                            ),
                            p.load_percent,
                            p.clients,
                            p.tps,
                            p.p50_us,
                            p.p99_us,
                            p.shed_rate(),
                            p.submitted,
                            p.committed,
                            p.aborted,
                            p.gave_up,
                            p.shed,
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(",\n");
                format!(
                    concat!(
                        "    {{\"label\": \"{}\", \"system\": \"{}\", ",
                        "\"admission\": {}, \"peak_tps\": {:.1}, ",
                        "\"peak_retention\": {:.3}, \"points\": [\n{}\n    ]}}"
                    ),
                    series.label(),
                    series.system,
                    series.admission,
                    series.peak_tps(),
                    series.peak_retention(),
                    points,
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            concat!(
                "{{\n  \"experiment\": \"saturation\",\n  \"interval_ms\": {},\n",
                "  \"hardware_contexts\": {},\n  \"max_active\": {},\n",
                "  \"max_queued\": {},\n  \"branches\": {},\n",
                "  \"series\": [\n{}\n  ]\n}}\n"
            ),
            self.interval_ms,
            self.hardware_contexts,
            self.max_active,
            self.max_queued,
            self.branches,
            series
        )
    }
}

/// Runs one offered-load point against an open server: `clients` closed-loop
/// threads, each on its own session, submitting spec-conformant TPC-B
/// parameter bindings through the prepared template. A client whose submit
/// is shed backs off briefly (a real client would retry later), so shed
/// spinning neither floods the tally nor starves the admitted work.
fn run_saturation_point(
    server: &Arc<Server>,
    statement: &Statement,
    workload: &Arc<TpcB>,
    scale: &Scale,
    load: f64,
    stats: &WorkloadStats,
) -> SaturationPoint {
    use std::sync::atomic::{AtomicBool, Ordering};

    let clients = scale.clients_for(load);
    let recording = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));

    let handles: Vec<_> = (0..clients)
        .map(|client| {
            let server = Arc::clone(server);
            let statement = statement.clone();
            let workload = Arc::clone(workload);
            let recording = Arc::clone(&recording);
            let stop = Arc::clone(&stop);
            let stats = stats.clone();
            std::thread::spawn(move || {
                let session = server.session_with_window(1);
                let mut rng = SmallRng::seed_from_u64(0xd07a + client as u64 * 7919 + load as u64);
                let mut tally = [0u64; 5]; // submitted, committed, aborted, gave-up, shed
                let mut latency = LatencyHistogram::new();
                while !stop.load(Ordering::Relaxed) {
                    let (home_branch, _, account, teller, amount) = workload.inputs(&mut rng);
                    let params = Params::of([home_branch, account, teller]).with_float(amount);
                    let start = Instant::now();
                    let outcome = session.execute_with(&statement, params);
                    if recording.load(Ordering::Relaxed) {
                        tally[0] += 1;
                        let txn_outcome = match outcome {
                            SubmitOutcome::Committed => {
                                tally[1] += 1;
                                Some(TxnOutcome::Committed)
                            }
                            SubmitOutcome::Aborted => {
                                tally[2] += 1;
                                Some(TxnOutcome::Aborted)
                            }
                            SubmitOutcome::GaveUp => {
                                tally[3] += 1;
                                Some(TxnOutcome::GaveUp)
                            }
                            SubmitOutcome::Shed => {
                                tally[4] += 1;
                                None
                            }
                            // Unreachable in this experiment (no submit
                            // deadline, no fault injection), but accounted
                            // so the tally stays exact if the config grows:
                            // a timed-out submission never ran (like a
                            // shed), a failed one executed (like an abort).
                            SubmitOutcome::TimedOut => {
                                tally[4] += 1;
                                None
                            }
                            SubmitOutcome::Failed => {
                                tally[2] += 1;
                                Some(TxnOutcome::Aborted)
                            }
                        };
                        if let Some(txn_outcome) = txn_outcome {
                            let elapsed = start.elapsed();
                            latency.record(elapsed);
                            stats.record_timed(TpcB::ACCOUNT_UPDATE, txn_outcome, elapsed);
                        }
                    }
                    if outcome == SubmitOutcome::Shed {
                        // A shed client backs off for ~a transaction's worth
                        // of work before retrying; immediate re-submission
                        // would turn the gate itself into the hot spot and
                        // measure the spin, not the admission policy.
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                }
                (tally, latency)
            })
        })
        .collect();

    std::thread::sleep(scale.warmup);
    recording.store(true, Ordering::Relaxed);
    let started = Instant::now();
    std::thread::sleep(scale.duration);
    recording.store(false, Ordering::Relaxed);
    let elapsed = started.elapsed();
    stop.store(true, Ordering::Relaxed);

    let mut totals = [0u64; 5];
    let mut latency = LatencyHistogram::new();
    for handle in handles {
        let (tally, client_latency) = handle.join().expect("saturation client");
        for (total, count) in totals.iter_mut().zip(tally) {
            *total += count;
        }
        latency.merge(&client_latency);
    }

    SaturationPoint {
        load_percent: load,
        clients,
        submitted: totals[0],
        committed: totals[1],
        aborted: totals[2],
        gave_up: totals[3],
        shed: totals[4],
        tps: totals[1] as f64 / elapsed.as_secs_f64().max(1e-9),
        p50_us: latency.percentile(50.0).as_micros() as u64,
        p99_us: latency.percentile(99.0).as_micros() as u64,
    }
}

fn run_saturation_series(
    scale: &Scale,
    system: SystemUnderTest,
    admission: Option<AdmissionConfig>,
    stats: &WorkloadStats,
) -> SaturationSeries {
    let db = Database::new(scale.system_config());
    let tpcb = scale.tpcb();
    tpcb.setup(&db).expect("setup TPC-B");
    let workload = Arc::new(tpcb);

    let server = Server::open(
        Arc::clone(&db),
        Arc::clone(&workload) as Arc<dyn Workload>,
        ServerConfig {
            engine: system,
            executors_per_table: scale.executors_per_table,
            dora: DoraConfig::default(),
            admission,
            session_window: 1,
            submit_deadline: None,
            retry: RetryPolicy::default(),
        },
    )
    .expect("open server");
    // Prepared once; each submission binds its own inputs.
    let statement = server
        .prepare(
            workload
                .account_update_program(&db, 1, 1, 1, 0.0)
                .expect("transfer plan"),
        )
        .expect("prepare transfer");

    let server = Arc::new(server);
    let points = scale
        .saturation_points()
        .iter()
        .map(|&load| run_saturation_point(&server, &statement, &workload, scale, load, stats))
        .collect();
    server.close();

    SaturationSeries {
        system: system.label(),
        admission: admission.is_some(),
        points,
    }
}

/// The overload experiment: TPC-B offered load swept from well under
/// saturation to 2× over it, for {Baseline, DORA} × admission {off, on},
/// driven end-to-end through the `dora-server` front-end (prepared
/// template, one session per client, every submit through the admission
/// gate). The vehicle for the paper's Figure 6 (ungated throughput
/// collapses past saturation) and Figure 8 (admission control holds the
/// peak) claims as *measured* rows rather than narrative.
pub(crate) fn saturation_with_summary(scale: &Scale) -> (Report, SaturationSummary) {
    // One execution slot per hardware context: the gate caps concurrency at
    // the machine's parallelism, which is what "perfect admission control"
    // means operationally. The queue is kept shallow — half the slots — so
    // that at 2x overload arrivals genuinely shed instead of all parking
    // (a queue deeper than the client surplus would hide the shed path).
    let policy = AdmissionConfig {
        max_active: scale.hardware_contexts,
        max_queued: (scale.hardware_contexts / 2).max(1),
    };
    let stats = WorkloadStats::new();
    let mut series = Vec::new();
    for system in SystemUnderTest::ALL {
        for admission in [None, Some(policy)] {
            series.push(run_saturation_series(scale, system, admission, &stats));
        }
    }
    let summary = SaturationSummary {
        interval_ms: scale.duration.as_millis() as u64,
        hardware_contexts: scale.hardware_contexts,
        max_active: policy.max_active,
        max_queued: policy.max_queued,
        branches: scale.tpcb_branches,
        series,
    };

    let mut report = Report::new(
        "Saturation: offered load vs throughput, admission control on/off (TPC-B via dora-server)",
    );
    report.line(format!(
        "  {} hardware contexts, admission policy: {} active / {} queued, {} ms per point",
        summary.hardware_contexts, summary.max_active, summary.max_queued, summary.interval_ms
    ));
    report.blank();
    for series in &summary.series {
        report.line(format!("{}:", series.label()));
        report.line(format!(
            "  {:>10} {:>10} {:>12} {:>10} {:>10} {:>8}",
            "load(%)", "clients", "tps", "p50(us)", "p99(us)", "shed"
        ));
        for point in &series.points {
            report.line(format!(
                "  {:>10.0} {:>10} {:>12.0} {:>10} {:>10} {:>8}",
                point.load_percent,
                point.clients,
                point.tps,
                point.p50_us,
                point.p99_us,
                pct(point.shed_rate()),
            ));
        }
        report.kv(
            "peak tps / retention at 2x overload",
            format!(
                "{:.0} / {}",
                series.peak_tps(),
                pct(series.peak_retention())
            ),
        );
        report.blank();
    }
    report.line("  per-transaction-type summary (all series, executed submissions):");
    txn_stats_table(&mut report, &stats);
    report.blank();
    report.line("  (response times include admission-queue wait; shed submissions are");
    report.line("   excluded from the latency population — they never execute)");
    (report, summary)
}

/// Seed of every chaos run's fault plan. Fixed so the experiment is
/// reproducible: re-running `repro chaos` replays the identical per-site
/// fault schedule (see `FaultPlan`).
pub(crate) const CHAOS_SEED: u64 = 0xC4A0_5D07;

/// The fault knobs of one chaos cell. The log-device error and spike sites
/// run at `rate`; flusher stalls and executor panics at a quarter of it
/// (they are per-batch / per-action sites, which fire against far larger
/// populations). Spike and stall magnitudes are pinned to moderate values
/// (a few device-write times, not milliseconds) so the measured gap is the
/// *healing policy* — a dead log vs. retried writes — rather than the
/// injected latency itself, which taxes healed and unhealed series alike.
/// `healing` toggles the storage half of self-healing: with it off, the
/// first failed device write kills the log for good.
fn chaos_fault_config(rate: f64, healing: bool) -> FaultConfig {
    FaultConfig {
        seed: CHAOS_SEED,
        device_error_rate: rate,
        device_spike_rate: rate,
        device_spike_micros: 100,
        flusher_stall_rate: rate / 4.0,
        flusher_stall_micros: 500,
        executor_panic_rate: rate / 4.0,
        max_write_retries: if healing { 8 } else { 0 },
        ..FaultConfig::default()
    }
}

/// Storage configuration of one chaos cell: the scale's baseline config
/// with the cell's fault plan installed.
fn chaos_system_config(scale: &Scale, rate: f64, healing: bool) -> SystemConfig {
    SystemConfig {
        faults: chaos_fault_config(rate, healing),
        ..scale.system_config()
    }
}

/// One measured cell of the `chaos` experiment: a fixed fault rate driven
/// through the serving front-end, with every submission resolved to exactly
/// one outcome and the fault-path counters recorded alongside.
#[derive(Debug, Clone)]
pub(crate) struct ChaosPoint {
    /// Per-write fault probability of the simulated log device (error and
    /// spike sites; stalls and panics run at a quarter of this).
    pub fault_rate: f64,
    /// Submissions during the measured interval.
    pub submitted: u64,
    /// ... that committed durably.
    pub committed: u64,
    /// ... that aborted (after any server-side retries).
    pub aborted: u64,
    /// ... that exhausted the engine's deadlock-retry budget.
    pub gave_up: u64,
    /// ... shed by admission control.
    pub shed: u64,
    /// ... that expired in the admission queue.
    pub timed_out: u64,
    /// ... that committed in memory but lost durability for good (ghost
    /// commits on a permanently failed log — never safe to retry).
    pub failed: u64,
    /// Durably committed transactions per second: goodput, not throughput.
    pub goodput_tps: f64,
    /// Median response time (µs) of executed submissions, *including* time
    /// spent in server-side retries and backoff.
    pub p50_us: u64,
    /// 99th-percentile response time (µs), same population.
    pub p99_us: u64,
    /// Faults the plan injected over the whole run (including warm-up).
    pub faults_injected: u64,
    /// Failed device writes the flushers retried (the storage half of
    /// self-healing at work).
    pub flush_retries: u64,
    /// Commit waiters told durability was lost for good.
    pub durability_lost: u64,
    /// Injected panics caught and quarantined by executor supervision.
    pub panics_recovered: u64,
    /// Stalled-flusher nudges by the log watchdog.
    pub watchdog_nudges: u64,
    /// Aborted submissions the sessions re-ran (the serving half of
    /// self-healing at work).
    pub txn_retries: u64,
    /// Post-run consistency: the live database conserves money across
    /// branches/tellers/accounts, and replaying the surviving log into a
    /// fresh replica does too (no torn transactions, even mid-chaos).
    pub consistent: bool,
}

/// One system × self-healing series of the `chaos` experiment. The first
/// point is always the fault-free baseline the retention is computed
/// against.
#[derive(Debug, Clone)]
pub(crate) struct ChaosSeries {
    /// Engine label ("Baseline" / "DORA").
    pub system: &'static str,
    /// Whether the self-healing paths were on (flusher write retries,
    /// server-side abort retries, submit deadline).
    pub healing: bool,
    /// One entry per fault rate, in sweep order; `points[0]` is fault-free.
    pub points: Vec<ChaosPoint>,
}

impl ChaosSeries {
    /// Display label ("DORA+healing").
    pub(crate) fn label(&self) -> String {
        if self.healing {
            format!("{}+healing", self.system)
        } else {
            self.system.to_string()
        }
    }

    /// Goodput of the fault-free point.
    pub(crate) fn clean_tps(&self) -> f64 {
        self.points.first().map(|p| p.goodput_tps).unwrap_or(0.0)
    }

    /// `point`'s goodput as a fraction of the fault-free goodput — the
    /// figure of merit: self-healing should hold this near 1.0 at moderate
    /// fault rates while the unhealed system collapses.
    pub(crate) fn retention(&self, point: &ChaosPoint) -> f64 {
        point.goodput_tps / self.clean_tps().max(1.0)
    }
}

/// Everything the `chaos` experiment measured; serialized to
/// `BENCH_chaos.json` by the CI bench-smoke job.
#[derive(Debug, Clone)]
pub(crate) struct ChaosSummary {
    /// Measured interval length per cell, in milliseconds.
    pub interval_ms: u64,
    /// Closed-loop client threads per cell.
    pub clients: usize,
    /// TPC-B branches.
    pub branches: i64,
    /// The fault plan's seed.
    pub seed: u64,
    /// Fault rates swept (first entry is the fault-free 0.0).
    pub fault_points: Vec<f64>,
    /// Whether two plans built from the same config previewed the identical
    /// per-site decision schedule (the seeded-determinism guarantee).
    pub deterministic: bool,
    /// The four series: {Baseline, DORA} × healing {off, on}.
    pub series: Vec<ChaosSeries>,
}

impl ChaosSummary {
    /// Renders the summary as a small JSON document (hand-rolled like the
    /// other summaries — every field is a number, a bool or a fixed label).
    pub(crate) fn to_json(&self) -> String {
        let fault_points = self
            .fault_points
            .iter()
            .map(|r| format!("{r}"))
            .collect::<Vec<_>>()
            .join(",");
        let series = self
            .series
            .iter()
            .map(|series| {
                let points = series
                    .points
                    .iter()
                    .map(|p| {
                        format!(
                            concat!(
                                "        {{\"fault_rate\": {}, \"goodput_tps\": {:.1}, ",
                                "\"retention\": {:.3}, \"p50_us\": {}, \"p99_us\": {}, ",
                                "\"submitted\": {}, \"committed\": {}, \"aborted\": {}, ",
                                "\"gave_up\": {}, \"shed\": {}, \"timed_out\": {}, ",
                                "\"failed\": {}, \"faults_injected\": {}, ",
                                "\"flush_retries\": {}, \"durability_lost\": {}, ",
                                "\"panics_recovered\": {}, \"watchdog_nudges\": {}, ",
                                "\"txn_retries\": {}, \"consistent\": {}}}"
                            ),
                            p.fault_rate,
                            p.goodput_tps,
                            series.retention(p),
                            p.p50_us,
                            p.p99_us,
                            p.submitted,
                            p.committed,
                            p.aborted,
                            p.gave_up,
                            p.shed,
                            p.timed_out,
                            p.failed,
                            p.faults_injected,
                            p.flush_retries,
                            p.durability_lost,
                            p.panics_recovered,
                            p.watchdog_nudges,
                            p.txn_retries,
                            p.consistent,
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(",\n");
                format!(
                    concat!(
                        "    {{\"label\": \"{}\", \"system\": \"{}\", ",
                        "\"healing\": {}, \"clean_tps\": {:.1}, ",
                        "\"points\": [\n{}\n    ]}}"
                    ),
                    series.label(),
                    series.system,
                    series.healing,
                    series.clean_tps(),
                    points,
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            concat!(
                "{{\n  \"experiment\": \"chaos\",\n  \"interval_ms\": {},\n",
                "  \"clients\": {},\n  \"branches\": {},\n",
                "  \"seed\": {},\n",
                "  \"deterministic\": {},\n  \"fault_points\": [{}],\n",
                "  \"series\": [\n{}\n  ]\n}}\n"
            ),
            self.interval_ms,
            self.clients,
            self.branches,
            self.seed,
            self.deterministic,
            fault_points,
            series
        )
    }
}

/// Sums one balance column of a TPC-B table.
fn chaos_balance_total(db: &Database, table: &str, column: usize) -> f64 {
    let id = db.table_id(table).expect("tpcb table");
    let txn = db.begin();
    let mut total = 0.0;
    db.scan_table(&txn, id, CcMode::Full, |_, row| {
        total += row[column].as_float().unwrap_or(0.0);
    })
    .expect("scan tpcb table");
    db.commit(&txn).expect("read-only commit");
    total
}

/// TPC-B money conservation: every transaction applies the same delta to
/// one branch, one teller and one account, so the three totals agree iff
/// no transaction was torn.
fn chaos_balances_agree(db: &Database) -> bool {
    let branches = chaos_balance_total(db, "branch", 1);
    let tellers = chaos_balance_total(db, "teller", 2);
    let accounts = chaos_balance_total(db, "account", 2);
    (branches - tellers).abs() < 1e-6 && (tellers - accounts).abs() < 1e-6
}

/// Post-run consistency of one chaos cell: the live database conserves
/// money (panic-quarantined and aborted transactions rolled back fully),
/// and replaying whatever survived in the log into a fresh replica does
/// too — even when chaos permanently failed the log mid-run, recovery
/// must reconstruct a consistent (possibly shorter) history.
fn chaos_consistency_check(db: &Database, scale: &Scale) -> bool {
    if !chaos_balances_agree(db) {
        return false;
    }
    let replica = Database::new(chaos_system_config(scale, 0.0, true));
    let tpcb = scale.tpcb();
    if tpcb.create_schema(&replica).is_err() || tpcb.load(&replica).is_err() {
        return false;
    }
    if db.recover_into(&replica).is_err() {
        return false;
    }
    chaos_balances_agree(&replica)
}

/// Runs one chaos cell: `clients` closed-loop threads submitting TPC-B
/// through the serving front-end while the cell's fault plan injects
/// device errors, latency spikes, flusher stalls and executor panics.
fn run_chaos_point(
    scale: &Scale,
    system: SystemUnderTest,
    healing: bool,
    rate: f64,
    stats: &WorkloadStats,
) -> ChaosPoint {
    use std::sync::atomic::{AtomicBool, Ordering};

    let db = Database::new(chaos_system_config(scale, rate, healing));
    let tpcb = scale.tpcb();
    tpcb.setup(&db).expect("setup TPC-B");
    let workload = Arc::new(tpcb);

    let mut config = ServerConfig {
        engine: system,
        executors_per_table: scale.executors_per_table,
        dora: DoraConfig::default(),
        admission: Some(AdmissionConfig::for_slots(scale.hardware_contexts)),
        session_window: 1,
        submit_deadline: None,
        retry: RetryPolicy::default(),
    };
    if healing {
        // The serving half of self-healing: bounded retries of aborted
        // submissions (with jittered backoff) under a per-submit deadline.
        config.submit_deadline = Some(Duration::from_millis(50));
        config.retry = RetryPolicy::retries(3);
    }
    let server = Server::open(
        Arc::clone(&db),
        Arc::clone(&workload) as Arc<dyn Workload>,
        config,
    )
    .expect("open server");
    // Prepared once; each submission binds its own inputs.
    let statement = server
        .prepare(
            workload
                .account_update_program(&db, 1, 1, 1, 0.0)
                .expect("transfer plan"),
        )
        .expect("prepare transfer");
    let server = Arc::new(server);

    let clients = scale.clients_for(100.0);
    let recording = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    // Counter deltas cover the whole run (warm-up included): they diagnose
    // the fault paths, while the tallies below measure the recorded window.
    let before = global().snapshot();

    let handles: Vec<_> = (0..clients)
        .map(|client| {
            let server = Arc::clone(&server);
            let statement = statement.clone();
            let workload = Arc::clone(&workload);
            let recording = Arc::clone(&recording);
            let stop = Arc::clone(&stop);
            let stats = stats.clone();
            std::thread::spawn(move || {
                let session = server.session_with_window(1);
                let mut rng = SmallRng::seed_from_u64(0xC4A05 + client as u64 * 6151);
                // submitted, committed, aborted, gave-up, shed, timed-out,
                // failed — exactly the SubmitOutcome buckets.
                let mut tally = [0u64; 7];
                let mut latency = LatencyHistogram::new();
                while !stop.load(Ordering::Relaxed) {
                    let (home_branch, _, account, teller, amount) = workload.inputs(&mut rng);
                    let params = Params::of([home_branch, account, teller]).with_float(amount);
                    let start = Instant::now();
                    let outcome = session.execute_with(&statement, params);
                    if recording.load(Ordering::Relaxed) {
                        tally[0] += 1;
                        let txn_outcome = match outcome {
                            SubmitOutcome::Committed => {
                                tally[1] += 1;
                                Some(TxnOutcome::Committed)
                            }
                            SubmitOutcome::Aborted => {
                                tally[2] += 1;
                                Some(TxnOutcome::Aborted)
                            }
                            SubmitOutcome::GaveUp => {
                                tally[3] += 1;
                                Some(TxnOutcome::GaveUp)
                            }
                            SubmitOutcome::Shed => {
                                tally[4] += 1;
                                None
                            }
                            SubmitOutcome::TimedOut => {
                                tally[5] += 1;
                                None
                            }
                            // Executed but not durable; for the per-type
                            // stats it counts as an abort (the response
                            // time is real), the tally keeps it distinct.
                            SubmitOutcome::Failed => {
                                tally[6] += 1;
                                Some(TxnOutcome::Aborted)
                            }
                        };
                        if let Some(txn_outcome) = txn_outcome {
                            let elapsed = start.elapsed();
                            latency.record(elapsed);
                            stats.record_timed(TpcB::ACCOUNT_UPDATE, txn_outcome, elapsed);
                        }
                    }
                    if outcome == SubmitOutcome::Shed {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                }
                (tally, latency)
            })
        })
        .collect();

    std::thread::sleep(scale.warmup);
    recording.store(true, Ordering::Relaxed);
    let started = Instant::now();
    std::thread::sleep(scale.duration);
    recording.store(false, Ordering::Relaxed);
    let elapsed = started.elapsed();
    stop.store(true, Ordering::Relaxed);

    let mut totals = [0u64; 7];
    let mut latency = LatencyHistogram::new();
    for handle in handles {
        let (tally, client_latency) = handle.join().expect("chaos client");
        for (total, count) in totals.iter_mut().zip(tally) {
            *total += count;
        }
        latency.merge(&client_latency);
    }
    server.close();
    let delta = global().snapshot().since(&before);
    let consistent = chaos_consistency_check(&db, scale);

    ChaosPoint {
        fault_rate: rate,
        submitted: totals[0],
        committed: totals[1],
        aborted: totals[2],
        gave_up: totals[3],
        shed: totals[4],
        timed_out: totals[5],
        failed: totals[6],
        goodput_tps: totals[1] as f64 / elapsed.as_secs_f64().max(1e-9),
        p50_us: latency.percentile(50.0).as_micros() as u64,
        p99_us: latency.percentile(99.0).as_micros() as u64,
        faults_injected: delta.counter(CounterKind::FaultsInjected),
        flush_retries: delta.counter(CounterKind::FlushRetries),
        durability_lost: delta.counter(CounterKind::DurabilityLost),
        panics_recovered: delta.counter(CounterKind::ExecutorPanicsRecovered),
        watchdog_nudges: delta.counter(CounterKind::WatchdogNudges),
        txn_retries: delta.counter(CounterKind::TxnRetried),
        consistent,
    }
}

/// The chaos experiment: TPC-B through the serving front-end while a
/// seeded fault plan injects log-device errors, latency spikes, flusher
/// stalls and executor panics, for {Baseline, DORA} × self-healing
/// {off, on}. With healing off, the first failed device write kills the
/// log and aborted work is never re-offered; with healing on, the
/// flushers retry with capped backoff, supervision quarantines panicked
/// transactions, and sessions retry aborts under a submit deadline —
/// goodput should hold near the fault-free level at moderate fault rates
/// where the unhealed system visibly degrades.
pub(crate) fn chaos_with_summary(scale: &Scale) -> (Report, ChaosSummary) {
    // The seeded-determinism guarantee, checked live: two plans built from
    // the same config must preview the identical decision sequence at every
    // site. (Which *operation* consumes decision k depends on thread
    // interleaving; what decision k *is* does not.)
    let probe = chaos_fault_config(0.05, true);
    let (a, b) = (FaultPlan::new(probe.clone()), FaultPlan::new(probe));
    let deterministic = FaultSite::ALL
        .iter()
        .all(|&site| a.schedule(site, 4096) == b.schedule(site, 4096));

    let mut fault_points = vec![0.0];
    fault_points.extend(scale.chaos_fault_points());
    let stats = WorkloadStats::new();
    let mut series = Vec::new();
    for system in SystemUnderTest::ALL {
        for healing in [false, true] {
            let points = fault_points
                .iter()
                .map(|&rate| run_chaos_point(scale, system, healing, rate, &stats))
                .collect();
            series.push(ChaosSeries {
                system: system.label(),
                healing,
                points,
            });
        }
    }
    let summary = ChaosSummary {
        interval_ms: scale.duration.as_millis() as u64,
        clients: scale.clients_for(100.0),
        branches: scale.tpcb_branches,
        seed: CHAOS_SEED,
        fault_points,
        deterministic,
        series,
    };

    let mut report = Report::new(
        "Chaos: goodput under injected faults, self-healing on/off (TPC-B via dora-server)",
    );
    report.line(format!(
        "  {} clients, fault seed {:#x}, {} ms per cell",
        summary.clients, summary.seed, summary.interval_ms
    ));
    report.kv(
        "deterministic schedule",
        if summary.deterministic { "yes" } else { "NO" },
    );
    report.blank();
    for series in &summary.series {
        report.line(format!("{}:", series.label()));
        report.line(format!(
            "  {:>8} {:>10} {:>10} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>6}",
            "rate",
            "tps",
            "retain",
            "p99(us)",
            "failed",
            "t-out",
            "retried",
            "faults",
            "panics",
            "ok"
        ));
        for point in &series.points {
            report.line(format!(
                "  {:>8.3} {:>10.0} {:>10} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>6}",
                point.fault_rate,
                point.goodput_tps,
                pct(series.retention(point)),
                point.p99_us,
                point.failed,
                point.timed_out,
                point.txn_retries,
                point.faults_injected,
                point.panics_recovered,
                if point.consistent { "yes" } else { "NO" },
            ));
        }
        report.blank();
    }
    report.line("  per-transaction-type summary (all series, executed submissions):");
    txn_stats_table(&mut report, &stats);
    report.blank();
    report.line("  (retain = goodput vs the series' own fault-free cell; failed =");
    report.line("   ghost commits on a dead log; ok = live state and log");
    report.line("   replay both conserve money after the run)");
    (report, summary)
}

/// Runs one paper figure at a scale and renders its report.
pub(crate) type Figure = fn(&Scale) -> Report;

/// Runs one of this reproduction's own experiments at a scale, returning its
/// report and its JSON summary.
pub(crate) type Summarized = fn(&Scale) -> (Report, String);

/// The paper's figures, each under the name `repro` runs it by. `fig9` is
/// the step-by-step Payment execution walk-through, which the integration
/// test `payment_twelve_steps` validates instead of a measurement.
pub const FIGURES: &[(&str, Figure)] = &[
    ("fig1", fig1),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig10", fig10),
    ("fig11", fig11),
];

/// This reproduction's own experiments, each under the name `repro` runs it
/// by; the name is also the stem of its `BENCH_<name>.json` artifact. The
/// report and the summary come from one measurement.
pub const SUMMARIZED: &[(&str, Summarized)] = &[
    ("skew", |scale| {
        let (report, summary) = skew_with_summary(scale);
        (report, summary.to_json())
    }),
    ("commit", |scale| {
        let (report, summary) = commit_with_summary(scale);
        (report, summary.to_json())
    }),
    ("recover", |scale| {
        let (report, summary) = recover_with_summary(scale);
        (report, summary.to_json())
    }),
    ("saturation", |scale| {
        let (report, summary) = saturation_with_summary(scale);
        (report, summary.to_json())
    }),
    ("chaos", |scale| {
        let (report, summary) = chaos_with_summary(scale);
        (report, summary.to_json())
    }),
];

/// Runs the figure named `name` (`fig1`, `fig2`, ...), or `None` if
/// [`FIGURES`] has no such name.
pub fn by_name(name: &str, scale: &Scale) -> Option<Report> {
    FIGURES
        .iter()
        .find(|(figure, _)| *figure == name)
        .map(|(_, run)| run(scale))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn micro_scale() -> Scale {
        Scale {
            duration: Duration::from_millis(80),
            warmup: Duration::from_millis(10),
            tm1_subscribers: 300,
            tpcc_warehouses: 2,
            tpcc_customers_per_district: 20,
            tpcc_items: 30,
            tpcb_branches: 2,
            tpcb_accounts_per_branch: 30,
            executors_per_table: 2,
            hardware_contexts: 4,
            log_flush_micros: 0,
            skew_keys: 100,
            zipf_theta: 0.99,
            recover_txns: 120,
        }
    }

    #[test]
    fn fig4_describes_payment_graph_shape() {
        let report = fig4(&micro_scale());
        let text = report.render();
        assert!(text.contains("phase 1"), "{text}");
        assert!(text.contains("phase 2"), "{text}");
        assert!(text.contains("payment-history"), "{text}");
    }

    #[test]
    fn fig5_reports_lock_classes_for_both_systems() {
        let report = fig5(&micro_scale());
        let text = report.render();
        assert!(text.contains("Baseline"));
        assert!(text.contains("DORA"));
        assert!(text.contains("TPC-C OrderStatus"));
    }

    #[test]
    fn experiment_lookup_by_name() {
        let scale = micro_scale();
        assert!(by_name("fig4", &scale).is_some());
        assert!(by_name("fig99", &scale).is_none());
    }

    #[test]
    fn saturation_runs_all_series_and_accounts_exactly() {
        let scale = micro_scale();
        let (report, summary) = saturation_with_summary(&scale);
        let text = report.render();
        assert!(text.contains("Baseline"), "{text}");
        assert!(text.contains("DORA+admission"), "{text}");
        assert!(text.contains("transaction type"), "{text}");

        assert_eq!(summary.series.len(), 4, "{{Baseline, DORA}} x {{off, on}}");
        for series in &summary.series {
            assert_eq!(series.points.len(), scale.saturation_points().len());
            for point in &series.points {
                assert_eq!(
                    point.submitted,
                    point.committed + point.aborted + point.gave_up + point.shed,
                    "{}: accounting must be exact",
                    series.label()
                );
                if !series.admission {
                    assert_eq!(point.shed, 0, "{}: nothing sheds ungated", series.label());
                }
            }
            assert!(
                series.peak_tps() > 0.0,
                "{}: the sweep committed nothing",
                series.label()
            );
        }

        let json = summary.to_json();
        assert!(json.contains("\"experiment\": \"saturation\""), "{json}");
        assert!(json.contains("\"admission\": true"), "{json}");
        assert!(json.contains("\"shed_rate\""), "{json}");
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close} in {json}"
            );
        }
    }

    #[test]
    fn chaos_runs_all_series_and_accounts_exactly() {
        dora_common::silence_injected_panics();
        let scale = micro_scale();
        let (report, summary) = chaos_with_summary(&scale);
        let text = report.render();
        assert!(text.contains("Baseline"), "{text}");
        assert!(text.contains("DORA+healing"), "{text}");

        assert!(summary.deterministic, "seeded schedules must reproduce");
        assert_eq!(summary.series.len(), 4, "{{Baseline, DORA}} x {{off, on}}");
        for series in &summary.series {
            assert_eq!(series.points.len(), summary.fault_points.len());
            for point in &series.points {
                assert_eq!(
                    point.submitted,
                    point.committed
                        + point.aborted
                        + point.gave_up
                        + point.shed
                        + point.timed_out
                        + point.failed,
                    "{}: accounting must be exact",
                    series.label()
                );
                assert!(
                    point.consistent,
                    "{}@{}: post-run state or recovery inconsistent",
                    series.label(),
                    point.fault_rate
                );
            }
            let clean = &series.points[0];
            assert_eq!(clean.faults_injected, 0, "rate 0 must draw nothing");
            assert_eq!(clean.failed, 0);
            assert!(
                clean.committed > 0,
                "{}: fault-free cell idle",
                series.label()
            );
        }

        let json = summary.to_json();
        assert!(json.contains("\"experiment\": \"chaos\""), "{json}");
        assert!(json.contains("\"healing\": true"), "{json}");
        assert!(json.contains("\"flush_retries\""), "{json}");
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close} in {json}"
            );
        }
    }

    #[test]
    fn chaos_summary_renders_valid_json_shape() {
        let point = ChaosPoint {
            fault_rate: 0.02,
            submitted: 100,
            committed: 90,
            aborted: 5,
            gave_up: 1,
            shed: 2,
            timed_out: 1,
            failed: 1,
            goodput_tps: 900.0,
            p50_us: 120,
            p99_us: 900,
            faults_injected: 40,
            flush_retries: 12,
            durability_lost: 1,
            panics_recovered: 3,
            watchdog_nudges: 0,
            txn_retries: 7,
            consistent: true,
        };
        let clean = ChaosPoint {
            fault_rate: 0.0,
            submitted: 110,
            committed: 100,
            aborted: 6,
            gave_up: 1,
            shed: 3,
            timed_out: 0,
            failed: 0,
            goodput_tps: 1000.0,
            faults_injected: 0,
            flush_retries: 0,
            durability_lost: 0,
            panics_recovered: 0,
            txn_retries: 0,
            ..point.clone()
        };
        let summary = ChaosSummary {
            interval_ms: 80,
            clients: 4,
            branches: 2,
            seed: CHAOS_SEED,
            fault_points: vec![0.0, 0.02],
            deterministic: true,
            series: vec![ChaosSeries {
                system: "DORA",
                healing: true,
                points: vec![clean, point],
            }],
        };
        assert!((summary.series[0].retention(&summary.series[0].points[1]) - 0.9).abs() < 1e-9);
        let json = summary.to_json();
        assert!(json.contains("\"experiment\": \"chaos\""), "{json}");
        assert!(json.contains("\"label\": \"DORA+healing\""), "{json}");
        assert!(json.contains("\"deterministic\": true"), "{json}");
        assert!(json.contains("\"retention\": 0.900"), "{json}");
        assert!(json.contains("\"fault_points\": [0,0.02]"), "{json}");
        assert!(json.contains("\"watchdog_nudges\": 0"), "{json}");
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close} in {json}"
            );
        }
    }

    #[test]
    fn skew_summary_renders_valid_json_shape() {
        let summary = SkewSummary {
            theta: 0.99,
            keys: 100,
            executors: 2,
            clients: 3,
            interval_ms: 80,
            phases: vec![SkewPhase {
                label: "adaptive",
                before_tps: 1000.5,
                after_tps: 2000.25,
                resizes: 3,
                final_loads: vec![40, 60],
            }],
        };
        let json = summary.to_json();
        assert!(json.contains("\"experiment\": \"skew\""), "{json}");
        assert!(json.contains("\"theta\": 0.99"), "{json}");
        assert!(json.contains("\"resizes\": 3"), "{json}");
        assert!(json.contains("\"final_loads\": [40,60]"), "{json}");
        assert!(json.contains("\"load_ratio\": 1.500"), "{json}");
        // Balanced braces/brackets — the cheapest structural validity check
        // without a JSON parser in the workspace.
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close} in {json}"
            );
        }
    }

    #[test]
    fn commit_summary_renders_valid_json_shape() {
        let summary = CommitSummary {
            branches: 8,
            clients: 4,
            interval_ms: 80,
            flush_points: vec![15, 60],
            rows: vec![
                CommitRow {
                    engine: "Baseline",
                    mode: "group",
                    flush_us: 15,
                    tps: 1000.0,
                    committed: 100,
                    flush_groups: 90,
                    mean_group: 1.1,
                    max_group: 2,
                    led_share: 1.0,
                    elr_releases: 0,
                    commit_wait_us: 25.5,
                    latency_us: 120.0,
                },
                CommitRow {
                    engine: "DORA",
                    mode: "group+elr",
                    flush_us: 60,
                    tps: 2500.0,
                    committed: 250,
                    flush_groups: 40,
                    mean_group: 6.25,
                    max_group: 16,
                    led_share: 0.975,
                    elr_releases: 250,
                    commit_wait_us: 80.0,
                    latency_us: 150.0,
                },
            ],
        };
        let json = summary.to_json();
        assert!(json.contains("\"experiment\": \"commit\""), "{json}");
        assert!(json.contains("\"flush_points\": [15,60]"), "{json}");
        assert!(json.contains("\"flush_us\": 60, \"tps\": 2500.0"), "{json}");
        assert!(!json.contains("streams"), "{json}");
        assert!(json.contains("\"mode\": \"group\""), "{json}");
        assert!(json.contains("\"mode\": \"group+elr\""), "{json}");
        assert!(json.contains("\"mean_group\": 6.250"), "{json}");
        assert!(json.contains("\"led_share\": 0.975"), "{json}");
        assert!(json.contains("\"elr_releases\": 250"), "{json}");
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close} in {json}"
            );
        }
    }

    #[test]
    fn recover_summary_renders_valid_json_shape() {
        let summary = RecoverSummary {
            branches: 8,
            txns_logged: 3_000,
            row: RecoverRow {
                txns: 3_000,
                records: 12_000,
                delta_records: 6_000,
                full_ms: 10.0,
                checkpoint_ms: 4.0,
                checkpoint_build: Default::default(),
            },
        };
        let json = summary.to_json();
        assert!(json.contains("\"experiment\": \"recover\""), "{json}");
        assert!(!json.contains("streams"), "{json}");
        assert!(json.contains("\"checkpoint_speedup\": 2.500"), "{json}");
        assert!(json.contains("\"replay_tps\": 300000.0"), "{json}");
        assert!(json.contains("\"delta_records\": 6000"), "{json}");
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close} in {json}"
            );
        }
    }

    #[test]
    fn recover_row_derived_metrics_guard_zero_time() {
        let row = RecoverRow {
            txns: 100,
            records: 400,
            delta_records: 0,
            full_ms: 0.0,
            checkpoint_ms: 0.0,
            checkpoint_build: Default::default(),
        };
        assert_eq!(row.replay_tps(), 0.0);
        assert_eq!(row.checkpoint_speedup(), 0.0);
    }

    #[test]
    fn commit_flush_points_are_nonzero() {
        let scale = micro_scale();
        let points = scale.commit_flush_points();
        assert_eq!(points.len(), 2);
        assert!(points.iter().all(|&p| p > 0));
        assert!(points[1] > points[0]);
    }

    #[test]
    fn skew_phase_load_ratio_clamps_idle_executors() {
        let phase = SkewPhase {
            label: "static",
            before_tps: 0.0,
            after_tps: 0.0,
            resizes: 0,
            final_loads: vec![100, 0],
        };
        assert_eq!(phase.load_ratio(), 100.0);
        let empty = SkewPhase {
            final_loads: vec![],
            ..phase
        };
        assert_eq!(empty.load_ratio(), 1.0);
    }
}
