//! Access-pattern tracing for Figure 10.
//!
//! Figure 10 of the paper plots, over ~0.7 s of TPC-C Payment execution on a
//! 10-warehouse database, which worker thread touches which District record
//! at each point in time: under thread-to-transaction assignment the accesses
//! are uncoordinated (any thread touches any district), under thread-to-data
//! they form clean per-executor bands.
//!
//! The tracer records `(elapsed, thread, district)` triples. For the baseline
//! the recording thread is the client/worker thread that executes the
//! transaction; for DORA the recorded "thread" is the executor the routing
//! rule assigns the district's dataset to — which is, by construction, the
//! thread that performs the access.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// One recorded access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct AccessEvent {
    /// Time since the trace started.
    pub elapsed: Duration,
    /// Index of the thread (worker or executor) performing the access.
    pub thread: usize,
    /// Global district index (`(w_id - 1) * 10 + d_id`).
    pub district: usize,
}

/// A concurrent trace collector.
#[derive(Debug, Clone)]
pub(crate) struct AccessTrace {
    started: Instant,
    events: Arc<Mutex<Vec<AccessEvent>>>,
}

impl Default for AccessTrace {
    fn default() -> Self {
        Self::new()
    }
}

impl AccessTrace {
    /// Starts an empty trace.
    pub(crate) fn new() -> Self {
        Self {
            started: Instant::now(),
            events: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Records one access.
    pub(crate) fn record(&self, thread: usize, district: usize) {
        let event = AccessEvent {
            elapsed: self.started.elapsed(),
            thread,
            district,
        };
        self.events.lock().push(event);
    }

    /// Builds the threads × districts access-count matrix.
    pub(crate) fn matrix(&self, threads: usize, districts: usize) -> Vec<Vec<u64>> {
        let mut matrix = vec![vec![0u64; districts]; threads];
        for event in self.events.lock().iter() {
            if event.thread < threads && event.district < districts {
                matrix[event.thread][event.district] += 1;
            }
        }
        matrix
    }

    /// For each thread, the number of *distinct* districts it touched. The
    /// paper's qualitative claim is that this is ~all districts for the
    /// conventional system and a small disjoint subset for DORA.
    pub(crate) fn distinct_districts_per_thread(
        &self,
        threads: usize,
        districts: usize,
    ) -> Vec<usize> {
        self.matrix(threads, districts)
            .iter()
            .map(|row| row.iter().filter(|&&count| count > 0).count())
            .collect()
    }

    /// Renders a compact ASCII heat map (one row per thread, one column per
    /// district, '.' for zero and digits/'#' for increasing counts).
    pub(crate) fn render_heatmap(&self, threads: usize, districts: usize) -> String {
        let matrix = self.matrix(threads, districts);
        let mut out = String::new();
        for (thread, row) in matrix.iter().enumerate() {
            out.push_str(&format!("    thread {thread:>2} |"));
            for &count in row {
                let symbol = match count {
                    0 => '.',
                    1..=4 => '+',
                    5..=24 => 'o',
                    _ => '#',
                };
                out.push(symbol);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_summarizes_accesses() {
        let trace = AccessTrace::new();
        trace.record(0, 1);
        trace.record(0, 1);
        trace.record(1, 5);
        assert_eq!(trace.events.lock().len(), 3);
        let matrix = trace.matrix(2, 10);
        assert_eq!(matrix[0][1], 2);
        assert_eq!(matrix[1][5], 1);
        assert_eq!(trace.distinct_districts_per_thread(2, 10), vec![1, 1]);
        let heatmap = trace.render_heatmap(2, 10);
        assert!(heatmap.contains("thread  0"));
        assert!(heatmap.contains('+'));
    }

    #[test]
    fn banded_vs_uncoordinated_patterns_are_distinguishable() {
        // Simulate DORA-style banding: thread t touches only districts
        // [10t, 10t+10).
        let banded = AccessTrace::new();
        for t in 0..4 {
            for d in 0..10 {
                for _ in 0..5 {
                    banded.record(t, t * 10 + d);
                }
            }
        }
        // Conventional: every thread touches every district.
        let uncoordinated = AccessTrace::new();
        for t in 0..4 {
            for d in 0..40 {
                uncoordinated.record(t, d);
            }
        }
        let banded_distinct = banded.distinct_districts_per_thread(4, 40);
        let uncoordinated_distinct = uncoordinated.distinct_districts_per_thread(4, 40);
        assert!(banded_distinct.iter().all(|&d| d == 10));
        assert!(uncoordinated_distinct.iter().all(|&d| d == 40));
    }
}
