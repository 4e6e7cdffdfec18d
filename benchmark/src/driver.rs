//! The load driver: closed- and open-loop phases on client threads, one
//! exact sample per transaction, and the statistics read off the samples.
//!
//! Open loop: arrivals are due on a seeded Poisson schedule at a fixed
//! absolute rate; the client threads claim the next arrival, wait until it
//! is due, execute it, and time it **from its due time** — so a stall delays
//! every arrival due during it, and that delay is counted.

use std::io::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use crate::recorder::{percentile, samples_beyond, sorted, Sliced};
use crate::schedule::{input_seed, poisson_due_times};
use crate::sut::{Outcome, Scanner, Sweep, System, ThreadTally};

/// Every phase is cut into this many equal slices; a reported value is the
/// median of the per-slice values. Eight, so that the slices a checkpoint
/// stall (100-300 ms, one to three per phase) lands in stay a minority.
pub const SLICES: usize = 8;

/// An open phase stops claiming arrivals this long after its schedule ends;
/// what is still unclaimed then was refused (never happens unless the
/// system is far slower than the frozen rates assume).
const OVERRUN_FACTOR: f64 = 1.5;

#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Every client submits its next transaction when the previous returns.
    Closed,
    /// Poisson arrivals at this many transactions per second.
    Open(f64),
}

/// One transaction. Times are ns from the phase start; the span boundaries
/// between `send` and `done` are recorded only in a traced run (0 otherwise).
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub index: u32,
    pub label: u8,
    pub outcome: Outcome,
    pub due: u64,
    /// The client turned to this arrival (`send − due` is how late the
    /// generator ran).
    pub send: u64,
    pub generated: u64,
    pub prepare_start: u64,
    pub prepared: u64,
    pub executed: u64,
    pub done: u64,
}

impl Sample {
    pub fn latency(&self) -> u64 {
        self.done - self.due
    }

    fn lateness(&self) -> u64 {
        self.send - self.due
    }
}

/// One analytical sweep of the scan thread.
#[derive(Debug, Clone, Copy)]
pub struct SweepRecord {
    pub start: u64,
    pub end: u64,
    pub sweep: Sweep,
}

/// Process CPU time and wall time at a slice boundary.
#[derive(Debug, Clone, Copy)]
struct Boundary {
    at: u64,
    cpu_ns: u64,
}

pub struct PhaseResult {
    pub name: &'static str,
    pub id: u64,
    pub traced: bool,
    pub length_ns: u64,
    pub samples: Vec<Sample>,
    pub sweeps: Vec<SweepRecord>,
    /// Arrivals of an open phase nobody claimed before the overrun limit.
    pub refused: u64,
    /// Centralized locks the scan thread took, and transactions it committed.
    pub scan_tally: (u64, u64),
    boundaries: Vec<Boundary>,
}

pub struct Driver<'a> {
    pub system: &'a System,
    pub scanner: Option<Scanner>,
    pub seed: u64,
}

/// The scan thread of `htap_tpcb` starts a sweep this often. A sweep takes
/// 30-50 ms, so sweeps are in flight about a sixth of the time. Back-to-back
/// sweeps would hold one of the host's two cores all the time, and the
/// transactional side would then measure the scheduler; sweeps in flight
/// half the time (tried: every 100 ms) put the median latency on the edge
/// between "beside a sweep" and "alone", and it flips between the two.
const SWEEP_INTERVAL_NS: u64 = 250_000_000;

/// Waits for an arrival's due instant by yielding in a loop, never by
/// sleeping: a sleeping client lets the core go idle, and on the reference
/// VM the wake-ups that follow an idle spell (executor, flusher, client)
/// take 50 us or 150 us depending on a state the benchmark cannot see —
/// the median latency of a run then flips between two values (spread 15-30 %
/// between seeds; 3-10 % with this loop). Yielding hands the core to any
/// runnable executor first.
fn yield_until(base: Instant, due_ns: u64) {
    while (base.elapsed().as_nanos() as u64) < due_ns {
        thread::yield_now();
    }
}

/// Decrements the count of running clients when its thread ends, however it
/// ends, so the scan thread always stops.
struct Leaving<'a>(&'a AtomicUsize);

impl Drop for Leaving<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

impl Driver<'_> {
    /// Runs one phase to completion and returns everything it recorded.
    pub fn run_phase(
        &self,
        id: u64,
        name: &'static str,
        load: Load,
        length: Duration,
        traced: bool,
    ) -> Result<PhaseResult, String> {
        let length_ns = length.as_nanos() as u64;
        let due = match load {
            Load::Closed => None,
            Load::Open(rate) => Some(poisson_due_times(self.seed, id, rate, length_ns)),
        };
        let overrun_ns = (length_ns as f64 * OVERRUN_FACTOR) as u64;
        let next = AtomicU64::new(0);
        let clients = self.system.def.clients;
        let active_clients = AtomicUsize::new(clients);
        let labels = self.system.labels();
        let base = Instant::now();
        let now = || base.elapsed().as_nanos() as u64;

        let client = || -> Result<Vec<Sample>, String> {
            let _leaving = Leaving(&active_clients);
            let mut samples = Vec::new();
            let result = (|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let (due_at, send) = match &due {
                    Some(due) => {
                        let Some(&due_at) = due.get(index as usize) else {
                            return Ok(());
                        };
                        yield_until(base, due_at);
                        let send = now();
                        if send > overrun_ns {
                            return Ok(());
                        }
                        (due_at, send)
                    }
                    None => {
                        let send = now();
                        if send >= length_ns {
                            return Ok(());
                        }
                        (send, send)
                    }
                };
                let program = self.system.next_program(input_seed(self.seed, id, index))?;
                let generated = if traced { now() } else { 0 };
                let label = System::label(&program);
                let label = labels
                    .iter()
                    .position(|known| *known == label)
                    .ok_or_else(|| format!("label `{label}` is not in txn_labels()"))?;
                let prepare_start = if traced { now() } else { 0 };
                let prepared = self.system.prepare(program)?;
                let prepared_at = if traced { now() } else { 0 };
                let outcome = self.system.execute(&prepared);
                let executed = now();
                samples.push(Sample {
                    index: index as u32,
                    label: label as u8,
                    outcome,
                    due: due_at,
                    send,
                    generated,
                    prepare_start,
                    prepared: prepared_at,
                    executed,
                    done: if traced { now() } else { executed },
                });
            })();
            result.map(|()| samples)
        };

        let scan = |scanner: &Scanner| -> Result<(Vec<SweepRecord>, (u64, u64)), String> {
            let tally = ThreadTally::start();
            let mut sweeps = Vec::new();
            for sweep_index in 0.. {
                // Paced: one sweep starts every SWEEP_INTERVAL_NS (back to
                // back only when a sweep outlasts it).
                thread::sleep(Duration::from_nanos(
                    (sweep_index * SWEEP_INTERVAL_NS).saturating_sub(now()),
                ));
                if active_clients.load(Ordering::Acquire) == 0 {
                    break;
                }
                let start = now();
                let sweep = scanner.sweep()?;
                sweeps.push(SweepRecord {
                    start,
                    end: now(),
                    sweep,
                });
            }
            Ok((sweeps, tally.finish()))
        };

        let (samples, scanned, boundaries) = thread::scope(|scope| {
            let handles: Vec<_> = (0..clients).map(|_| scope.spawn(client)).collect();
            let scan_handle = self
                .scanner
                .as_ref()
                .map(|scanner| scope.spawn(move || scan(scanner)));
            // This thread only samples the clock and the process CPU time at
            // the slice boundaries.
            let mut boundaries = vec![Boundary {
                at: now(),
                cpu_ns: process_cpu_ns(),
            }];
            for slice in 1..=SLICES as u64 {
                let boundary = length_ns * slice / SLICES as u64;
                thread::sleep(Duration::from_nanos(boundary.saturating_sub(now())));
                boundaries.push(Boundary {
                    at: now(),
                    cpu_ns: process_cpu_ns(),
                });
            }
            let mut samples = Vec::new();
            let mut first_error = None;
            for handle in handles {
                match handle.join().expect("client thread panicked") {
                    Ok(mut own) => samples.append(&mut own),
                    Err(error) => first_error = first_error.or(Some(error)),
                }
            }
            let scanned = scan_handle.map(|handle| handle.join().expect("scan thread panicked"));
            match first_error {
                Some(error) => Err(error),
                None => Ok((samples, scanned, boundaries)),
            }
        })?;
        let (sweeps, scan_tally) = scanned.transpose()?.unwrap_or_default();
        let mut samples = samples;
        samples.sort_unstable_by_key(|s| s.index);
        let refused = due.map_or(0, |due| (due.len() - samples.len()) as u64);
        Ok(PhaseResult {
            name,
            id,
            traced,
            length_ns,
            samples,
            sweeps,
            refused,
            scan_tally,
            boundaries,
        })
    }
}

// ----- statistics ---------------------------------------------------------------

/// Outcome counts of a phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub committed: u64,
    pub rolled_back: u64,
    pub gave_up: u64,
    pub errors: u64,
    pub refused: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.committed += other.committed;
        self.rolled_back += other.rolled_back;
        self.gave_up += other.gave_up;
        self.errors += other.errors;
        self.refused += other.refused;
    }

    /// Operations that did not end as the workload specifies: a specified
    /// rollback is an answer, these are not.
    pub fn failed(&self) -> u64 {
        self.gave_up + self.errors + self.refused
    }

    /// Not committed ÷ attempted (rollbacks included).
    pub fn fail_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.committed) as f64 / self.attempted as f64
        }
    }
}

impl PhaseResult {
    pub fn tally(&self) -> Tally {
        let mut tally = Tally {
            attempted: self.samples.len() as u64 + self.refused,
            refused: self.refused,
            ..Tally::default()
        };
        for sample in &self.samples {
            match sample.outcome {
                Outcome::Committed => tally.committed += 1,
                Outcome::RolledBack => tally.rolled_back += 1,
                Outcome::GaveUp => tally.gave_up += 1,
                Outcome::Error => tally.errors += 1,
            }
        }
        tally
    }

    /// Per-slice (committed per second, process CPU µs per committed
    /// transaction), slices cut by completion time at the boundaries this
    /// phase's sampler thread actually woke at.
    pub fn throughput(&self) -> (Sliced, Sliced) {
        let mut tps = Vec::new();
        let mut cpu = Vec::new();
        for pair in self.boundaries.windows(2) {
            let committed = self
                .samples
                .iter()
                .filter(|s| {
                    s.outcome == Outcome::Committed && (pair[0].at..pair[1].at).contains(&s.done)
                })
                .count() as f64;
            tps.push(committed / ((pair[1].at - pair[0].at) as f64 / 1e9));
            cpu.push((pair[1].cpu_ns - pair[0].cpu_ns) as f64 / 1e3 / committed.max(1.0));
        }
        (Sliced::of(&tps), Sliced::of(&cpu))
    }

    /// Committed transactions per second over the whole phase.
    pub fn committed_per_s(&self) -> f64 {
        self.tally().committed as f64 / (self.length_ns as f64 / 1e9)
    }

    /// The samples of slice `k`, cut by due time (so a slow slice cannot
    /// push its arrivals into the next one).
    fn slice(&self, k: usize) -> impl Iterator<Item = &Sample> {
        let low = self.length_ns * k as u64 / SLICES as u64;
        let high = self.length_ns * (k as u64 + 1) / SLICES as u64;
        self.samples
            .iter()
            .filter(move |s| (low..high).contains(&s.due))
    }

    /// Per-slice latency quantile (µs from due time, all types pooled).
    pub fn sliced_quantile(&self, q: f64) -> Sliced {
        let per_slice: Vec<f64> = (0..SLICES)
            .map(|k| percentile(&sorted(self.slice(k).map(Sample::latency)), q) as f64 / 1e3)
            .collect();
        Sliced::of(&per_slice)
    }

    /// Latency quantile (µs from due time) over the whole phase, and the
    /// samples beyond it.
    pub fn pooled_quantile(&self, q: f64) -> (f64, usize) {
        let latencies = sorted(self.samples.iter().map(Sample::latency));
        (
            percentile(&latencies, q) as f64 / 1e3,
            samples_beyond(latencies.len(), q),
        )
    }

    /// p99 of how late the generator turned to an arrival (µs).
    pub fn generator_lateness_p99_us(&self) -> f64 {
        percentile(&sorted(self.samples.iter().map(Sample::lateness)), 0.99) as f64 / 1e3
    }

    /// Mean lateness of the last slice minus the first (µs): a queue that
    /// keeps growing shows as a positive value of the order of the phase.
    pub fn backlog_growth_us(&self) -> f64 {
        let mean_lateness = |k: usize| {
            let (sum, count) = self.slice(k).fold((0u64, 0u64), |(sum, count), s| {
                (sum + s.lateness(), count + 1)
            });
            sum as f64 / count.max(1) as f64 / 1e3
        };
        mean_lateness(SLICES - 1) - mean_lateness(0)
    }

    pub fn latency_max_us(&self) -> f64 {
        self.samples.iter().map(Sample::latency).max().unwrap_or(0) as f64 / 1e3
    }

    /// (p50, p99) latency in µs of one transaction type; zeros if it never ran.
    pub fn label_latency_us(&self, label: u8) -> (f64, f64) {
        let latencies = sorted(
            self.samples
                .iter()
                .filter(|s| s.label == label)
                .map(Sample::latency),
        );
        (
            percentile(&latencies, 0.5) as f64 / 1e3,
            percentile(&latencies, 0.99) as f64 / 1e3,
        )
    }

    /// Medians (ns) of the traced spans: next_program, prepare, execute, and
    /// the root span's self time; plus execute's share of the root span
    /// (sum over sum). Zeros for an untraced phase.
    pub fn span_medians(&self) -> SpanStats {
        if !self.traced || self.samples.is_empty() {
            return SpanStats::default();
        }
        let median_of = |span: fn(&Sample) -> u64| {
            percentile(&sorted(self.samples.iter().map(span)), 0.5) as f64
        };
        let execute_total: u64 = self.samples.iter().map(|s| s.executed - s.prepared).sum();
        let root_total: u64 = self.samples.iter().map(Sample::latency).sum();
        SpanStats {
            next_program_ns: median_of(|s| s.generated - s.send),
            prepare_ns: median_of(|s| s.prepared - s.prepare_start),
            execute_ns: median_of(|s| s.executed - s.prepared),
            self_ns: median_of(|s| (s.prepare_start - s.generated) + (s.done - s.executed)),
            execute_share: execute_total as f64 / root_total.max(1) as f64,
        }
    }

    /// Rows the scan thread visited per second, ns per row, mean staleness.
    pub fn scan_stats(&self) -> (f64, f64, f64) {
        let rows: u64 = self.sweeps.iter().map(|s| s.sweep.rows).sum();
        let busy: u64 = self.sweeps.iter().map(|s| s.end - s.start).sum();
        let staleness: u64 = self.sweeps.iter().map(|s| s.sweep.staleness).sum();
        (
            rows as f64 / (self.length_ns as f64 / 1e9),
            busy as f64 / rows.max(1) as f64,
            staleness as f64 / self.sweeps.len().max(1) as f64,
        )
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStats {
    pub next_program_ns: f64,
    pub prepare_ns: f64,
    pub execute_ns: f64,
    pub self_ns: f64,
    pub execute_share: f64,
}

// ----- trace file -----------------------------------------------------------------

/// Transactions written per phase; the span statistics use every sample, the
/// file keeps the first this many so it stays a few MB.
const TRACE_TXNS_PER_PHASE: usize = 5_000;

/// Writes the traced phases as JSON lines: a root `txn` span (due → done)
/// per transaction and its children `wait`, `workloads.next_program`,
/// `engine.prepare`, `engine.execute`, all sharing the transaction's id.
pub fn write_trace(
    path: &std::path::Path,
    phases: &[&PhaseResult],
    labels: &[&str],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for phase in phases.iter().filter(|p| p.traced) {
        for sample in phase.samples.iter().take(TRACE_TXNS_PER_PHASE) {
            let id = (phase.id << 32) | u64::from(sample.index);
            writeln!(
                out,
                "{{\"id\": {id}, \"span\": \"txn\", \"parent\": null, \"phase\": \"{}\", \"label\": \"{}\", \"outcome\": \"{:?}\", \"start_ns\": {}, \"end_ns\": {}}}",
                phase.name, labels[sample.label as usize], sample.outcome, sample.due, sample.done
            )?;
            for (span, start, end) in [
                ("wait", sample.due, sample.send),
                ("workloads.next_program", sample.send, sample.generated),
                ("engine.prepare", sample.prepare_start, sample.prepared),
                ("engine.execute", sample.prepared, sample.executed),
            ] {
                writeln!(
                    out,
                    "{{\"id\": {id}, \"span\": \"{span}\", \"parent\": \"txn\", \"start_ns\": {start}, \"end_ns\": {end}}}"
                )?;
            }
        }
    }
    out.flush()
}

// ----- process accounting -----------------------------------------------------------

/// `struct rusage` of 64-bit Linux: two `timeval`s and fourteen `long`s.
#[repr(C)]
struct Rusage {
    user_s: i64,
    user_us: i64,
    system_s: i64,
    system_us: i64,
    max_rss_kb: i64,
    rest: [i64; 13],
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("process accounting reads `struct rusage` as laid out on 64-bit Linux");

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

fn rusage() -> Rusage {
    let mut usage = Rusage {
        user_s: 0,
        user_us: 0,
        system_s: 0,
        system_us: 0,
        max_rss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage` (the layout above
    // is the 64-bit Linux one, enforced by the `compile_error!`), and
    // RUSAGE_SELF (0) is a valid `who`; the call writes only into `usage`.
    let status = unsafe { getrusage(0, &mut usage) };
    assert_eq!(status, 0, "getrusage(RUSAGE_SELF) failed");
    usage
}

/// CPU time (user + system, all threads) this process has used, in ns.
pub fn process_cpu_ns() -> u64 {
    let usage = rusage();
    ((usage.user_s + usage.system_s) * 1_000_000 + usage.user_us + usage.system_us) as u64 * 1_000
}

/// Peak resident set size of this process, in kB.
pub fn peak_rss_kb() -> u64 {
    rusage().max_rss_kb as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(index: u32, due: u64, send: u64, done: u64, outcome: Outcome) -> Sample {
        Sample {
            index,
            label: 0,
            outcome,
            due,
            send,
            generated: send,
            prepare_start: send,
            prepared: send,
            executed: done,
            done,
        }
    }

    /// A phase of `SLICES` slices of 1 µs each.
    fn phase(samples: Vec<Sample>) -> PhaseResult {
        PhaseResult {
            name: "test",
            id: 1,
            traced: false,
            length_ns: SLICES as u64 * 1_000,
            samples,
            sweeps: Vec::new(),
            refused: 0,
            scan_tally: (0, 0),
            boundaries: (0..=SLICES as u64)
                .map(|k| Boundary {
                    at: k * 1_000,
                    cpu_ns: k * 500,
                })
                .collect(),
        }
    }

    #[test]
    fn latency_counts_from_the_due_time_and_slices_by_it() {
        // One arrival per slice, 100 ns into it, served in 100 ns — except
        // that the second waited 600 ns for a client and the third rolled
        // back.
        let mut samples: Vec<Sample> = (0..SLICES as u64)
            .map(|k| {
                sample(
                    k as u32,
                    k * 1_000 + 100,
                    k * 1_000 + 100,
                    k * 1_000 + 200,
                    Outcome::Committed,
                )
            })
            .collect();
        samples[1] = sample(1, 1_100, 1_700, 1_800, Outcome::Committed);
        samples[2].outcome = Outcome::RolledBack;
        let result = phase(samples);
        let p50 = result.sliced_quantile(0.5);
        assert_eq!((p50.min, p50.median, p50.max), (0.1, 0.1, 0.7));
        assert_eq!(result.pooled_quantile(0.99), (0.7, 0));
        assert_eq!(result.pooled_quantile(0.5), (0.1, SLICES / 2));
        assert_eq!(result.generator_lateness_p99_us(), 0.6);
        assert_eq!(result.latency_max_us(), 0.7);
        let tally = result.tally();
        assert_eq!(
            (
                tally.attempted,
                tally.committed,
                tally.rolled_back,
                tally.failed()
            ),
            (SLICES as u64, SLICES as u64 - 1, 1, 0)
        );
        assert_eq!(tally.fail_share(), 1.0 / SLICES as f64);
        // One commit per 1 µs slice, none in the third; 500 ns of CPU each.
        let (tps, cpu) = result.throughput();
        assert_eq!((tps.min, tps.median), (0.0, 1e6));
        assert_eq!(cpu.median, 0.5);
    }

    #[test]
    fn backlog_growth_is_last_slice_lateness_minus_first() {
        let last = (SLICES as u64 - 1) * 1_000;
        let result = phase(vec![
            sample(0, 100, 100, 200, Outcome::Committed),
            sample(1, last + 100, last + 900, last + 950, Outcome::Committed),
        ]);
        assert_eq!(result.backlog_growth_us(), 0.8);
    }

    #[test]
    fn process_accounting_moves_forward() {
        let before = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_ns() > before);
        assert!(peak_rss_kb() > 0);
    }
}
