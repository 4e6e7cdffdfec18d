//! Shared scaffolding for the experiments: workload construction at the
//! chosen scale, engine setup and driver runs.

use std::sync::Arc;
use std::time::Duration;

use dora_common::{config::num_cpus, SystemConfig};
use dora_core::DoraConfig;
use dora_engine::{build_engine_with, ClientDriver, DriverConfig, ExecutionEngine, RunResult};
use dora_storage::Database;
use dora_workloads::{Workload, WorkloadStats};

/// Which engine a run exercises. This is the registered engine kind itself:
/// the harness never branches on it — [`prepare`] hands it to the engine
/// factory and everything downstream drives an `Arc<dyn ExecutionEngine>`.
pub use dora_common::EngineKind as SystemUnderTest;

/// Experiment scale: `quick` keeps dataset sizes and measurement intervals
/// small enough for CI; `full` approaches the paper's setup more closely.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Measured interval per driver run.
    pub duration: Duration,
    /// Warm-up excluded from measurements.
    pub warmup: Duration,
    /// TM1 subscribers.
    pub tm1_subscribers: i64,
    /// TPC-C warehouses.
    pub tpcc_warehouses: i64,
    /// TPC-C customers per district.
    pub tpcc_customers_per_district: i64,
    /// TPC-C catalog items.
    pub tpcc_items: i64,
    /// TPC-B branches.
    pub tpcb_branches: i64,
    /// TPC-B accounts per branch.
    pub tpcb_accounts_per_branch: i64,
    /// DORA executors per table.
    pub executors_per_table: usize,
    /// Hardware contexts the offered load is normalized against.
    pub hardware_contexts: usize,
    /// Simulated log-flush latency in microseconds.
    pub log_flush_micros: u64,
    /// Counter rows for the skewed-counters workload (the adaptive
    /// repartitioning experiment).
    pub skew_keys: i64,
    /// Zipfian skew parameter θ for the skewed-counters workload.
    pub zipf_theta: f64,
    /// Counter rows for the fan-out workload (the `dispatch` message-path
    /// experiment).
    pub fanout_keys: i64,
    /// Counters bumped per fan-out transaction — the phase's action count,
    /// i.e. how many messages one dispatch sprays across the executors.
    pub fanout_actions: usize,
    /// Pacing interval for the `htap` experiment's analytical clients: each
    /// scan thread starts one snapshot sweep per interval (back-to-back when
    /// a sweep runs longer). Pacing makes the analytical load scale with the
    /// thread count while keeping the scan-side CPU demand bounded, so the
    /// OLTP-interference measurement isolates lock/latch effects instead of
    /// raw CPU oversubscription on small hosts.
    pub htap_scan_interval: Duration,
    /// Transactions logged before the `recover` experiment measures replay.
    pub recover_txns: usize,
}

impl Scale {
    /// Quick scale for CI and `--quick` runs (a few seconds per figure).
    ///
    /// The offered-load normalization assumes at least 8 hardware contexts:
    /// on hosts with fewer cores the load sweep then still varies the client
    /// count (oversubscribing the CPU), which is the only way to create the
    /// critical-section pressure the paper studies on such machines.
    pub fn quick() -> Self {
        let contexts = num_cpus().max(8);
        Self {
            duration: Duration::from_millis(250),
            warmup: Duration::from_millis(60),
            tm1_subscribers: 2_000,
            tpcc_warehouses: 4,
            tpcc_customers_per_district: 60,
            tpcc_items: 200,
            tpcb_branches: 8,
            tpcb_accounts_per_branch: 200,
            executors_per_table: (contexts / 4).clamp(1, 4),
            hardware_contexts: contexts,
            log_flush_micros: 20,
            skew_keys: 2_000,
            zipf_theta: 0.99,
            fanout_keys: 4_096,
            fanout_actions: 8,
            htap_scan_interval: Duration::from_millis(50),
            recover_txns: 3_000,
        }
    }

    /// Full scale: larger datasets and longer measured intervals. Still sized
    /// for a commodity multicore rather than the paper's 64-context Niagara.
    pub fn full() -> Self {
        let contexts = num_cpus().max(8);
        Self {
            duration: Duration::from_secs(2),
            warmup: Duration::from_millis(500),
            tm1_subscribers: 100_000,
            tpcc_warehouses: 16,
            tpcc_customers_per_district: 300,
            tpcc_items: 1_000,
            tpcb_branches: 100,
            tpcb_accounts_per_branch: 1_000,
            executors_per_table: (contexts / 4).clamp(1, 8),
            hardware_contexts: contexts,
            log_flush_micros: 40,
            skew_keys: 50_000,
            zipf_theta: 0.99,
            fanout_keys: 65_536,
            fanout_actions: 8,
            htap_scan_interval: Duration::from_millis(200),
            recover_txns: 30_000,
        }
    }

    /// The offered-CPU-load points (percent) swept by the load-sweep figures,
    /// including one point past saturation like the paper's x-axes.
    pub fn load_points(&self) -> Vec<f64> {
        vec![25.0, 50.0, 75.0, 100.0, 110.0]
    }

    /// The offered-load points (percent) swept by the `saturation`
    /// experiment: from well under saturation to 2× over it, so the series
    /// show what each system does once arrivals outpace the hardware — the
    /// regime of the paper's Figures 6 and 8 where the conventional system
    /// collapses and admission control is supposed to hold the peak.
    pub fn saturation_points(&self) -> Vec<f64> {
        vec![50.0, 75.0, 100.0, 150.0, 200.0]
    }

    /// Client-thread count producing approximately `percent` offered load.
    pub fn clients_for(&self, percent: f64) -> usize {
        ((percent / 100.0) * self.hardware_contexts as f64)
            .round()
            .max(1.0) as usize
    }

    /// Storage configuration at this scale.
    pub fn system_config(&self) -> SystemConfig {
        SystemConfig {
            hardware_contexts: self.hardware_contexts,
            log_flush_micros: self.log_flush_micros,
            buffer_pool_pages: 200_000,
            ..SystemConfig::default()
        }
    }

    /// TM1 at this scale.
    pub fn tm1(&self) -> dora_workloads::Tm1 {
        dora_workloads::Tm1::new(self.tm1_subscribers)
    }

    /// TPC-C at this scale.
    pub fn tpcc(&self) -> dora_workloads::Tpcc {
        dora_workloads::Tpcc::with_scale(
            self.tpcc_warehouses,
            self.tpcc_customers_per_district,
            self.tpcc_items,
        )
    }

    /// TPC-B at this scale.
    pub fn tpcb(&self) -> dora_workloads::TpcB {
        dora_workloads::TpcB::with_accounts(self.tpcb_branches, self.tpcb_accounts_per_branch)
    }

    /// The zipfian skewed-counters workload at this scale (static hot range;
    /// callers add drift for the migration scenario).
    pub fn skewed(&self) -> dora_workloads::SkewedCounters {
        dora_workloads::SkewedCounters::new(self.skew_keys, self.zipf_theta)
    }

    /// The high-fan-out counters workload at this scale (the `dispatch`
    /// message-path experiment).
    pub fn fanout(&self) -> dora_workloads::FanoutCounters {
        dora_workloads::FanoutCounters::new(self.fanout_keys, self.fanout_actions)
    }

    /// Fault rates swept by the `chaos` experiment: a moderate rate where
    /// the self-healing paths should hold goodput near the fault-free
    /// level, and a harsher one where even the healed system visibly pays.
    /// The fault-free 0.0 every series is normalized against is prepended
    /// by the experiment itself. Rates are probabilities, so the points
    /// are scale-independent.
    pub fn chaos_fault_points(&self) -> Vec<f64> {
        vec![0.02, 0.08]
    }

    /// Simulated log-device latencies (µs) the `commit` durability
    /// experiment sweeps: the scale's own flush latency and a 4× slower
    /// device, where group commit matters proportionally more. Clamped away
    /// from zero — the experiment's point is a nonzero durability window.
    pub fn commit_flush_points(&self) -> Vec<u64> {
        let base = self.log_flush_micros.max(15);
        vec![base, base * 4]
    }
}

/// A fully prepared system: database + loaded workload + bound engine.
pub struct PreparedSystem {
    /// The storage manager.
    pub db: Arc<Database>,
    /// The workload (already loaded into `db` and bound to `engine`).
    pub workload: Arc<dyn Workload>,
    /// The engine under test, already bound to `workload`.
    pub engine: Arc<dyn ExecutionEngine>,
}

impl PreparedSystem {
    /// Shuts down any engine-owned threads.
    pub fn shutdown(&self) {
        self.engine.shutdown();
    }
}

/// Builds a database, loads `workload` into it and binds it to the requested
/// engine via the engine factory — no per-architecture code here.
pub fn prepare(
    workload: impl Workload + 'static,
    scale: &Scale,
    system: SystemUnderTest,
) -> PreparedSystem {
    prepare_with_config(workload, scale, system, DoraConfig::default())
}

/// [`prepare`] with an explicit DORA configuration — the hook experiments use
/// to pin configuration axes (e.g. `conflict_elision` off for the A/B
/// baseline of the `conflicts` experiment, or for Figure 11, whose hand-built
/// DORA-P plan must not be silently auto-serialized by the conflict
/// analyzer).
pub fn prepare_with_config(
    workload: impl Workload + 'static,
    scale: &Scale,
    system: SystemUnderTest,
    dora_config: DoraConfig,
) -> PreparedSystem {
    let db = Database::new(scale.system_config());
    workload.setup(&db).expect("workload setup");
    let workload: Arc<dyn Workload> = Arc::new(workload);
    let engine = build_engine_with(system, Arc::clone(&db), dora_config);
    engine
        .bind(Arc::clone(&workload), scale.executors_per_table)
        .expect("bind workload");
    PreparedSystem {
        db,
        workload,
        engine,
    }
}

/// Runs `clients` closed-loop clients against the prepared system for the
/// scale's measured interval.
pub fn run_clients(prepared: &PreparedSystem, scale: &Scale, clients: usize) -> RunResult {
    let driver = ClientDriver::new(DriverConfig {
        clients,
        duration: scale.duration,
        warmup: scale.warmup,
        hardware_contexts: scale.hardware_contexts,
    });
    driver.run_engine(Arc::clone(&prepared.engine))
}

/// [`run_clients`], also tallying each transaction's type, outcome and
/// response time into `stats`. Each client records into its own private
/// recorder (merged at the end) so the tallies add no shared mutex to the
/// measured hot path. The tallies include the warm-up interval — they
/// characterize the mix, not the measured window.
pub fn run_clients_timed(
    prepared: &PreparedSystem,
    scale: &Scale,
    clients: usize,
    stats: &WorkloadStats,
) -> RunResult {
    let driver = ClientDriver::new(DriverConfig {
        clients,
        duration: scale.duration,
        warmup: scale.warmup,
        hardware_contexts: scale.hardware_contexts,
    });
    let per_client: Vec<WorkloadStats> = (0..clients).map(|_| WorkloadStats::new()).collect();
    let result = {
        let engine = Arc::clone(&prepared.engine);
        let per_client = per_client.clone();
        driver.run(move |client, rng| engine.execute_one_timed(rng, &per_client[client]))
    };
    for recorder in &per_client {
        stats.merge(recorder);
    }
    result
}

/// One-call helper: prepare the system, sweep the given offered-load points
/// and return `(load_percent, RunResult)` pairs. The system is shut down
/// before returning.
pub fn sweep(
    workload: impl Workload + 'static,
    scale: &Scale,
    system: SystemUnderTest,
    load_points: &[f64],
) -> Vec<(f64, RunResult)> {
    sweep_stats(workload, scale, system, load_points).0
}

/// [`sweep`], also returning the per-transaction-type tallies (outcomes and
/// response times) aggregated across every load point of the sweep — the
/// rows of the pg_meter-style summary table the reports print.
pub fn sweep_stats(
    workload: impl Workload + 'static,
    scale: &Scale,
    system: SystemUnderTest,
    load_points: &[f64],
) -> (Vec<(f64, RunResult)>, WorkloadStats) {
    sweep_stats_with_config(workload, scale, system, load_points, DoraConfig::default())
}

/// [`sweep`] with an explicit DORA configuration (see
/// [`prepare_with_config`]). The system is shut down before returning.
pub fn sweep_with_config(
    workload: impl Workload + 'static,
    scale: &Scale,
    system: SystemUnderTest,
    load_points: &[f64],
    dora_config: DoraConfig,
) -> Vec<(f64, RunResult)> {
    sweep_stats_with_config(workload, scale, system, load_points, dora_config).0
}

/// [`sweep_stats`] with an explicit DORA configuration (see
/// [`prepare_with_config`]).
pub fn sweep_stats_with_config(
    workload: impl Workload + 'static,
    scale: &Scale,
    system: SystemUnderTest,
    load_points: &[f64],
    dora_config: DoraConfig,
) -> (Vec<(f64, RunResult)>, WorkloadStats) {
    let prepared = prepare_with_config(workload, scale, system, dora_config);
    let stats = WorkloadStats::for_workload(&*prepared.workload);
    let mut results = Vec::with_capacity(load_points.len());
    for &load in load_points {
        let clients = scale.clients_for(load);
        results.push((load, run_clients_timed(&prepared, scale, clients, &stats)));
    }
    prepared.shutdown();
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dora_workloads::{Tm1, Tm1Mix};

    fn tiny_scale() -> Scale {
        Scale {
            duration: Duration::from_millis(60),
            warmup: Duration::from_millis(10),
            tm1_subscribers: 200,
            tpcc_warehouses: 1,
            tpcc_customers_per_district: 20,
            tpcc_items: 20,
            tpcb_branches: 2,
            tpcb_accounts_per_branch: 20,
            executors_per_table: 2,
            hardware_contexts: 4,
            log_flush_micros: 0,
            skew_keys: 100,
            zipf_theta: 0.99,
            fanout_keys: 64,
            fanout_actions: 4,
            htap_scan_interval: Duration::from_millis(5),
            recover_txns: 120,
        }
    }

    #[test]
    fn scale_maps_load_to_clients() {
        let scale = tiny_scale();
        assert_eq!(scale.clients_for(100.0), 4);
        assert_eq!(scale.clients_for(50.0), 2);
        assert_eq!(scale.clients_for(1.0), 1);
        assert_eq!(scale.load_points().len(), 5);
    }

    #[test]
    fn sweep_stats_tallies_per_type_rows() {
        let scale = tiny_scale();
        let (results, stats) = sweep_stats(
            Tm1::new(scale.tm1_subscribers),
            &scale,
            SystemUnderTest::Baseline,
            &[50.0],
        );
        assert_eq!(results.len(), 1);
        let rows = stats.all_stats();
        assert!(!rows.is_empty(), "mix labels pre-registered");
        let total: u64 = rows.iter().map(|(_, s)| s.total()).sum();
        assert!(total > 0, "the sweep tallied no transactions");
        let timed: u64 = rows.iter().map(|(_, s)| s.latency.count()).sum();
        assert_eq!(total, timed, "every tallied transaction was timed");
    }

    #[test]
    fn every_registered_engine_produces_commits() {
        let scale = tiny_scale();
        for system in SystemUnderTest::ALL {
            let workload = Tm1::new(scale.tm1_subscribers).with_mix(Tm1Mix::GetSubscriberDataOnly);
            let prepared = prepare(workload, &scale, system);
            let result = run_clients(&prepared, &scale, 2);
            assert!(
                result.committed > 0,
                "{} run produced no commits",
                system.label()
            );
            prepared.shutdown();
        }
    }
}
