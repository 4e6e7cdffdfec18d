//! Timing harness for the single-thread layer probes.

use std::time::Instant;

use crate::recorder::median;

/// Batches per probe; the reported value is the median batch.
const BATCHES: usize = 5;

/// Nanoseconds per call of `op`: `BATCHES` batches of `iterations` calls,
/// median batch. `op` receives a running call index to vary its keys with.
pub fn ns_per_op(iterations: u64, mut op: impl FnMut(u64)) -> f64 {
    let mut batches = [0.0; BATCHES];
    let mut call = 0;
    for batch in &mut batches {
        let start = Instant::now();
        for _ in 0..iterations {
            op(call);
            call += 1;
        }
        *batch = start.elapsed().as_nanos() as f64 / iterations as f64;
    }
    median(&batches)
}
