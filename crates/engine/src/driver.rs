//! Closed-loop load driver.
//!
//! The paper's experiments spawn a number of clients that repeatedly submit
//! transactions; the x-axis of most figures is the *offered CPU load*
//! (measured utilization plus time spent runnable), swept by varying the
//! number of clients. [`ClientDriver`] reproduces that methodology for both
//! engines: the job closure it runs may call the baseline engine or submit
//! DORA flow graphs — the driver neither knows nor cares.
//!
//! Besides throughput and latency it captures the delta of every metric the
//! figures need: the time-breakdown categories (Figures 1–3), the lock counts
//! per class (Figure 5) and the process CPU time, from which the measured CPU
//! utilization is derived.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use dora_common::sync::OneShot;
use dora_metrics::{global, CounterKind, LatencyHistogram, Snapshot, TimeBreakdown, TimeCategory};

use crate::exec::ExecutionEngine;

pub use dora_common::outcome::TxnOutcome;

/// Driver parameters.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Number of client threads submitting transactions.
    pub clients: usize,
    /// Measured interval length.
    pub duration: Duration,
    /// Warm-up interval excluded from the measurements.
    pub warmup: Duration,
    /// Number of hardware contexts the offered load is normalized against.
    pub hardware_contexts: usize,
}

/// Everything measured during one driver run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Number of client threads used.
    pub clients: usize,
    /// Length of the measured interval.
    pub elapsed: Duration,
    /// Transactions committed during the measured interval.
    pub committed: u64,
    /// Transactions aborted for workload reasons during the measured
    /// interval.
    pub aborted: u64,
    /// Transactions that exhausted their deadlock-retry budget during the
    /// measured interval (conventional engines only; kept separate from
    /// `aborted` so retry exhaustion is visible in reports).
    pub gave_up: u64,
    /// Committed transactions per second.
    pub throughput_tps: f64,
    /// Client-observed latency distribution.
    pub latency: LatencyHistogram,
    /// Delta of every metric counter/timer over the measured interval.
    pub metrics: Snapshot,
    /// Time breakdown derived from `metrics`.
    pub breakdown: TimeBreakdown,
    /// Offered CPU load in percent (clients / hardware contexts).
    pub offered_load_percent: f64,
    /// Measured CPU utilization in percent (process CPU time over wall-clock
    /// time, normalized by the hardware contexts). `None` when the platform
    /// does not expose process CPU time.
    pub cpu_utilization_percent: Option<f64>,
}

impl RunResult {
    /// Locks acquired per 100 committed transactions, split the way Figure 5
    /// plots them: (row-level, higher-level, DORA thread-local).
    pub fn locks_per_100_txns(&self) -> (f64, f64, f64) {
        let txns = self.committed.max(1) as f64;
        (
            100.0 * self.metrics.counter(CounterKind::RowLevelLock) as f64 / txns,
            100.0 * self.metrics.counter(CounterKind::HigherLevelLock) as f64 / txns,
            100.0 * self.metrics.counter(CounterKind::DoraLocalLock) as f64 / txns,
        )
    }

    /// Throughput divided by measured CPU utilization — the y-axis of
    /// Figure 1(a). Falls back to offered load when utilization is
    /// unavailable.
    pub fn throughput_per_cpu_util(&self) -> f64 {
        let util = self
            .cpu_utilization_percent
            .unwrap_or(self.offered_load_percent)
            .max(1.0);
        self.throughput_tps / util
    }

    /// Mean client-visible commit wait (precommit to durable) per committed
    /// transaction, from the [`TimeCategory::CommitWait`] delta. This is the
    /// commit-latency share of the client latency, recorded separately so
    /// group-commit experiments can tell durability stalls from execution
    /// time.
    pub fn mean_commit_wait(&self) -> Duration {
        if self.committed == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.metrics.nanos(TimeCategory::CommitWait) / self.committed)
    }

    /// Abort rate over the measured interval (workload aborts plus retry
    /// give-ups, over all finished transactions).
    pub fn abort_rate(&self) -> f64 {
        let total = self.committed + self.aborted + self.gave_up;
        if total == 0 {
            0.0
        } else {
            (self.aborted + self.gave_up) as f64 / total as f64
        }
    }
}

/// Drop guard run by every client thread: the last client to exit — whether
/// normally or by unwinding out of a panicked job — trips the latch so the
/// coordinator stops waiting on a run nobody is driving.
struct ClientExit {
    active: Arc<AtomicUsize>,
    latch: Arc<OneShot<()>>,
}

impl Drop for ClientExit {
    fn drop(&mut self) {
        if self.active.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.latch.set(());
        }
    }
}

/// Reads the process's accumulated CPU time from `/proc/self/stat`
/// (user + system). Returns `None` on platforms without procfs.
pub(crate) fn process_cpu_time() -> Option<Duration> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command field may contain spaces but is wrapped in parentheses;
    // split after the closing parenthesis.
    let after = stat.rsplit_once(')')?.1;
    let fields: Vec<&str> = after.split_whitespace().collect();
    // Fields after the comm field: state is index 0, utime is index 11,
    // stime index 12 (see proc(5)).
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    // USER_HZ is 100 on every Linux configuration we target.
    Some(Duration::from_millis((utime + stime) * 10))
}

/// The closed-loop driver.
#[derive(Debug, Clone)]
pub struct ClientDriver {
    config: DriverConfig,
}

impl ClientDriver {
    /// Creates a driver with the given configuration.
    pub fn new(config: DriverConfig) -> Self {
        Self { config }
    }

    /// The driver configuration.
    pub fn config(&self) -> &DriverConfig {
        &self.config
    }

    /// Runs `job` on every client thread until the configured duration
    /// elapses. The job receives the client index and a per-client RNG and
    /// returns the outcome of one transaction.
    pub fn run<J>(&self, job: J) -> RunResult
    where
        J: Fn(usize, &mut SmallRng) -> TxnOutcome + Send + Sync + 'static,
    {
        let job = Arc::new(job);
        let recording = Arc::new(AtomicBool::new(false));
        let latch = Arc::new(OneShot::new());
        let active = Arc::new(AtomicUsize::new(self.config.clients));
        let committed = Arc::new(AtomicU64::new(0));
        let aborted = Arc::new(AtomicU64::new(0));
        let gave_up = Arc::new(AtomicU64::new(0));
        let latencies = Arc::new(Mutex::new(LatencyHistogram::new()));

        let handles: Vec<_> = (0..self.config.clients)
            .map(|client| {
                let job = Arc::clone(&job);
                let recording = Arc::clone(&recording);
                let latch = Arc::clone(&latch);
                let active = Arc::clone(&active);
                let committed = Arc::clone(&committed);
                let aborted = Arc::clone(&aborted);
                let gave_up = Arc::clone(&gave_up);
                let latencies = Arc::clone(&latencies);
                std::thread::Builder::new()
                    .name(format!("client-{client}"))
                    .spawn(move || {
                        let _exit = ClientExit {
                            active,
                            latch: Arc::clone(&latch),
                        };
                        let mut rng = SmallRng::seed_from_u64(0x5EED_0000 + client as u64);
                        let mut local_latency = LatencyHistogram::new();
                        while latch.get().is_none() {
                            let start = Instant::now();
                            let outcome = job(client, &mut rng);
                            if recording.load(Ordering::Relaxed) {
                                local_latency.record(start.elapsed());
                                match outcome {
                                    TxnOutcome::Committed => {
                                        committed.fetch_add(1, Ordering::Relaxed);
                                    }
                                    TxnOutcome::Aborted => {
                                        aborted.fetch_add(1, Ordering::Relaxed);
                                    }
                                    TxnOutcome::GaveUp => {
                                        gave_up.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                            }
                        }
                        latencies.lock().merge(&local_latency);
                    })
                    .expect("spawn client thread")
            })
            .collect();

        // The coordinator parks on the latch for the warm-up and measured
        // intervals instead of sleep-polling; if every client exits early the
        // wait returns at once rather than sleeping out the schedule.
        latch.wait_until(Instant::now() + self.config.warmup);
        let metrics_before = global().snapshot();
        let cpu_before = process_cpu_time();
        let started = Instant::now();
        recording.store(true, Ordering::SeqCst);

        latch.wait_until(Instant::now() + self.config.duration);

        recording.store(false, Ordering::SeqCst);
        let elapsed = started.elapsed();
        let metrics_after = global().snapshot();
        let cpu_after = process_cpu_time();
        latch.set(());
        for handle in handles {
            let _ = handle.join();
        }

        let metrics = metrics_after.since(&metrics_before);
        let breakdown = TimeBreakdown::from_snapshot(&metrics);
        let committed = committed.load(Ordering::Relaxed);
        let aborted = aborted.load(Ordering::Relaxed);
        let gave_up = gave_up.load(Ordering::Relaxed);
        let cpu_utilization_percent = match (cpu_before, cpu_after) {
            (Some(before), Some(after)) => {
                let busy = after.saturating_sub(before).as_secs_f64();
                let capacity = elapsed.as_secs_f64() * self.config.hardware_contexts as f64;
                Some((100.0 * busy / capacity).min(120.0))
            }
            _ => None,
        };

        let latency = latencies.lock().clone();
        RunResult {
            clients: self.config.clients,
            elapsed,
            committed,
            aborted,
            gave_up,
            throughput_tps: committed as f64 / elapsed.as_secs_f64(),
            latency,
            metrics,
            breakdown,
            offered_load_percent: 100.0 * self.config.clients as f64
                / self.config.hardware_contexts as f64,
            cpu_utilization_percent,
        }
    }

    /// Runs a closed-loop load against `engine`: every client thread draws
    /// transactions from the engine's bound workload via
    /// [`ExecutionEngine::execute_one`]. This is how every sweep-path caller
    /// drives an engine — the driver knows nothing about which execution
    /// architecture is behind the trait object.
    pub fn run_engine(&self, engine: Arc<dyn ExecutionEngine>) -> RunResult {
        self.run(move |_client, rng| engine.execute_one(rng))
    }

    /// Single-client latency measurement against `engine`, the methodology
    /// of Figure 7.
    pub fn measure_engine(
        &self,
        iterations: usize,
        engine: &dyn ExecutionEngine,
    ) -> LatencyHistogram {
        self.measure_single(iterations, |rng| engine.execute_one(rng))
    }

    /// Runs `job` exactly once on a single client and reports the observed
    /// latency — the single-transaction response-time methodology of
    /// Figure 7.
    pub(crate) fn measure_single<J>(&self, iterations: usize, mut job: J) -> LatencyHistogram
    where
        J: FnMut(&mut SmallRng) -> TxnOutcome,
    {
        let mut rng = SmallRng::seed_from_u64(0xFEED);
        let mut histogram = LatencyHistogram::new();
        for _ in 0..iterations {
            let start = Instant::now();
            let _ = job(&mut rng);
            histogram.record(start.elapsed());
        }
        histogram
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_counts_outcomes_and_reports_throughput() {
        let driver = ClientDriver::new(DriverConfig {
            clients: 2,
            duration: Duration::from_millis(100),
            warmup: Duration::from_millis(10),
            hardware_contexts: 4,
        });
        let result = driver.run(|_client, rng| {
            use rand::Rng;
            // Simulate a fast transaction that aborts 25% of the time and
            // exhausts its retry budget another 12.5%.
            std::thread::sleep(Duration::from_micros(100));
            match rng.random_range(0..8) {
                0..=1 => TxnOutcome::Aborted,
                2 => TxnOutcome::GaveUp,
                _ => TxnOutcome::Committed,
            }
        });
        assert!(result.committed > 0);
        assert!(result.gave_up > 0, "give-ups must be counted distinctly");
        assert!(result.throughput_tps > 0.0);
        assert!(result.abort_rate() > 0.0 && result.abort_rate() < 1.0);
        assert_eq!(result.clients, 2);
        assert!((result.offered_load_percent - 50.0).abs() < 1e-9);
        assert!(result.latency.count() == result.committed + result.aborted + result.gave_up);
    }

    #[test]
    fn dead_clients_wake_the_coordinator_early() {
        // Every client panics immediately; the latch must wake the
        // coordinator instead of letting it sleep out warmup + duration.
        let driver = ClientDriver::new(DriverConfig {
            clients: 2,
            duration: Duration::from_secs(30),
            warmup: Duration::from_secs(30),
            hardware_contexts: 4,
        });
        let wall = Instant::now();
        let result = driver.run(|_, _| panic!("client dies"));
        assert!(
            wall.elapsed() < Duration::from_secs(10),
            "coordinator must not sleep out the full schedule"
        );
        assert_eq!(result.committed, 0);
    }

    #[test]
    fn process_cpu_time_is_monotonic_on_linux() {
        if let Some(before) = process_cpu_time() {
            // Burn a little CPU.
            let mut x = 0u64;
            for i in 0..5_000_000u64 {
                x = x.wrapping_add(i * i);
            }
            std::hint::black_box(x);
            let after = process_cpu_time().expect("still available");
            assert!(after >= before);
        }
    }

    #[test]
    fn commit_wait_is_reported_separately_from_execute_latency() {
        let driver = ClientDriver::new(DriverConfig {
            clients: 1,
            duration: Duration::from_millis(80),
            warmup: Duration::from_millis(10),
            hardware_contexts: 2,
        });
        let result = driver.run(|_, _| {
            // Simulate a transaction whose commit stalls 200us on the log.
            std::thread::sleep(Duration::from_micros(300));
            dora_metrics::record_time(TimeCategory::CommitWait, Duration::from_micros(200));
            TxnOutcome::Committed
        });
        assert!(result.committed > 0);
        // Other tests in this process may add CommitWait time concurrently,
        // so only the lower bound is exact.
        assert!(result.mean_commit_wait() >= Duration::from_micros(150));
        assert!(result.mean_commit_wait() <= result.latency.mean());
    }

    #[test]
    fn measure_single_records_every_iteration() {
        let driver = ClientDriver::new(DriverConfig {
            clients: 1,
            duration: Duration::from_millis(200),
            warmup: Duration::from_millis(50),
            hardware_contexts: 1,
        });
        let histogram = driver.measure_single(10, |_| TxnOutcome::Committed);
        assert_eq!(histogram.count(), 10);
    }

    #[test]
    fn locks_per_100_txns_normalizes_by_commits() {
        let driver = ClientDriver::new(DriverConfig {
            clients: 1,
            duration: Duration::from_millis(50),
            warmup: Duration::from_millis(5),
            hardware_contexts: 2,
        });
        let result = driver.run(|_, _| {
            dora_metrics::incr(CounterKind::RowLevelLock);
            dora_metrics::incr(CounterKind::RowLevelLock);
            TxnOutcome::Committed
        });
        let (row, _higher, _local) = result.locks_per_100_txns();
        // Roughly two row locks per transaction => ~200 per 100 transactions.
        // Other tests running concurrently may inflate the numerator, so only
        // check the lower bound.
        assert!(row >= 150.0, "row locks per 100 txns was {row}");
    }
}
