//! Client sessions: the submit surface with a bounded in-flight window.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

use dora_core::{Params, PreparedProgram};
use dora_metrics::{incr, CounterKind};

use crate::server::{ServerCore, SubmitOutcome};
use crate::statement::Statement;

/// The per-session in-flight bound: `acquire` blocks while the window is
/// full, `release` wakes one blocked submitter. This is client-side
/// backpressure (a flooding session stalls in its own window instead of
/// stacking work on the server) and per-session fairness (no session can
/// hold more than `limit` execution slots, however many threads share it).
struct Window {
    in_flight: Mutex<usize>,
    freed: Condvar,
    limit: usize,
}

impl Window {
    fn new(limit: usize) -> Self {
        Self {
            in_flight: Mutex::new(0),
            freed: Condvar::new(),
            limit: limit.max(1),
        }
    }

    fn acquire(&self) {
        let mut in_flight = self.in_flight.lock();
        while *in_flight >= self.limit {
            self.freed.wait(&mut in_flight);
        }
        *in_flight += 1;
    }

    fn release(&self) {
        let mut in_flight = self.in_flight.lock();
        debug_assert!(*in_flight > 0, "release without a matching acquire");
        *in_flight -= 1;
        self.freed.notify_one();
    }

    fn occupancy(&self) -> usize {
        *self.in_flight.lock()
    }
}

/// One client's connection to a [`Server`](crate::Server).
///
/// Sessions are cheap, `Send + Sync`, and independent: threads sharing a
/// session share its in-flight window, threads on different sessions only
/// contend at the server's admission gate. A session outlives `close` —
/// submits after the server drains simply return
/// [`SubmitOutcome::Shed`].
pub struct Session {
    core: Arc<ServerCore>,
    window: Arc<Window>,
    /// xorshift state for retry-backoff jitter; shared by clones (like the
    /// window) so a session's worker threads draw from one stream.
    jitter: Arc<AtomicU64>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("window", &self.window.limit)
            .field("in_flight", &self.window.occupancy())
            .finish()
    }
}

impl Clone for Session {
    /// Clones share the same in-flight window — hand clones to worker
    /// threads when they should count as *one* client; open separate
    /// sessions when they should not.
    fn clone(&self) -> Self {
        Self {
            core: Arc::clone(&self.core),
            window: Arc::clone(&self.window),
            jitter: Arc::clone(&self.jitter),
        }
    }
}

impl Session {
    pub(crate) fn new(core: Arc<ServerCore>, window: usize) -> Self {
        Self {
            core,
            window: Arc::new(Window::new(window)),
            jitter: Arc::new(AtomicU64::new(0x9E37_79B9_7F4A_7C15)),
        }
    }

    /// Next word of the session's jitter stream (xorshift64; cheap, racy by
    /// design — jitter needs no sequential consistency).
    fn next_jitter(&self) -> u64 {
        let mut x = self.jitter.load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter.store(x, Ordering::Relaxed);
        x
    }

    /// Executes `statement` as prepared, blocking first if the session
    /// window is full.
    ///
    /// If the server was configured with a [`RetryPolicy`], aborted
    /// submissions are re-run with jittered backoff, within the submit
    /// deadline; the outcome reported is the last attempt's. Only aborts
    /// retry — shed/timed-out work never ran (re-offering load to an
    /// overloaded gate makes overload worse), and a failed (ghost) commit
    /// must never be re-run.
    ///
    /// [`RetryPolicy`]: crate::RetryPolicy
    pub fn execute(&self, statement: &Statement) -> SubmitOutcome {
        self.run(statement.prepared())
    }

    /// Executes `statement`'s plan bound to `params` instead of the
    /// parameters it was prepared with; otherwise as
    /// [`execute`](Self::execute). A binding the plan cannot run (a slot
    /// missing) aborts.
    pub fn execute_with(&self, statement: &Statement, params: Params) -> SubmitOutcome {
        match self.core.prepare(statement.bind(params)) {
            Ok(prepared) => self.run(&prepared),
            Err(_) => SubmitOutcome::Aborted,
        }
    }

    fn run(&self, prepared: &PreparedProgram) -> SubmitOutcome {
        self.window.acquire();
        let outcome = self.submit_with_retry(prepared);
        self.window.release();
        outcome
    }

    fn submit_with_retry(&self, prepared: &PreparedProgram) -> SubmitOutcome {
        let policy = self.core.retry_policy();
        let deadline = self.core.submit_deadline();
        let started = Instant::now();
        let mut outcome = self.core.submit(prepared);
        for attempt in 0..policy.max_retries {
            if outcome != SubmitOutcome::Aborted {
                break;
            }
            if let Some(limit) = deadline {
                if started.elapsed() >= limit {
                    break;
                }
            }
            incr(CounterKind::TxnRetried);
            std::thread::sleep(policy.backoff_for(attempt, self.next_jitter()));
            outcome = self.core.submit(prepared);
        }
        outcome
    }

    /// Submissions from this session currently inside `execute*` calls.
    pub fn in_flight(&self) -> usize {
        self.window.occupancy()
    }

    /// The session's in-flight window limit.
    pub fn window(&self) -> usize {
        self.window.limit
    }
}
