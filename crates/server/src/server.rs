//! The server: open → prepare → execute → close.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dora_common::prelude::*;
use dora_core::{DoraConfig, TxnProgram};
use dora_engine::{build_engine_with, ExecutionEngine};
use dora_metrics::{incr, CounterKind};
use dora_storage::Database;
use dora_workloads::Workload;

use crate::gate::{AdmissionConfig, Gate, GateOutcome};
use crate::session::Session;
use crate::statement::{Params, Statement, StatementKind};

/// How a submitted transaction ended, as reported to the client.
///
/// The first three mirror [`TxnOutcome`]; [`Shed`](Self::Shed) is the
/// admission controller's overload response — the transaction never
/// executed and the client should back off or retry later.
/// [`TimedOut`](Self::TimedOut) and [`Failed`](Self::Failed) come from the
/// resilience layer: a submit deadline expiring in the admission queue, and
/// a commit whose durability was lost for good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The transaction committed.
    Committed,
    /// The transaction aborted for workload reasons.
    Aborted,
    /// The transaction exhausted its deadlock-retry budget.
    GaveUp,
    /// The admission controller rejected the transaction without running
    /// it (queue full at saturation, or the server is draining).
    Shed,
    /// The submission exceeded its deadline while parked in the admission
    /// queue; it never executed and is safe to retry later.
    TimedOut,
    /// The transaction executed but its commit can never become durable:
    /// the log device failed past the retry budget
    /// ([`DbError::DurabilityLost`]). With early lock release its effects
    /// may already be applied in memory (a ghost commit), so clients must
    /// **not** resubmit — re-running could apply it twice.
    Failed,
}

impl From<TxnOutcome> for SubmitOutcome {
    fn from(outcome: TxnOutcome) -> Self {
        match outcome {
            TxnOutcome::Committed => SubmitOutcome::Committed,
            TxnOutcome::Aborted => SubmitOutcome::Aborted,
            TxnOutcome::GaveUp => SubmitOutcome::GaveUp,
        }
    }
}

impl SubmitOutcome {
    /// `true` only for [`Committed`](Self::Committed).
    pub fn is_committed(self) -> bool {
        self == SubmitOutcome::Committed
    }

    /// `true` only for [`Shed`](Self::Shed).
    pub fn is_shed(self) -> bool {
        self == SubmitOutcome::Shed
    }

    /// `true` only for [`TimedOut`](Self::TimedOut).
    pub fn is_timed_out(self) -> bool {
        self == SubmitOutcome::TimedOut
    }

    /// `true` only for [`Failed`](Self::Failed).
    pub fn is_failed(self) -> bool {
        self == SubmitOutcome::Failed
    }

    /// `true` for outcomes a client may safely resubmit: the transaction
    /// either never executed ([`Shed`](Self::Shed),
    /// [`TimedOut`](Self::TimedOut)) or aborted cleanly
    /// ([`Aborted`](Self::Aborted), [`GaveUp`](Self::GaveUp)). `false` for
    /// [`Committed`](Self::Committed) and — crucially — for
    /// [`Failed`](Self::Failed), whose ghost commit must never be re-run.
    pub fn is_safe_to_resubmit(self) -> bool {
        matches!(
            self,
            SubmitOutcome::Aborted
                | SubmitOutcome::GaveUp
                | SubmitOutcome::Shed
                | SubmitOutcome::TimedOut
        )
    }
}

/// Bounded, jittered-backoff retry for aborted submissions, applied inside
/// [`Session::execute_with`](crate::Session::execute_with). Only
/// [`SubmitOutcome::Aborted`] is retried: shed and timed-out work never ran
/// (the client decides whether to re-offer load), gave-up already burned an
/// engine-level retry budget, and failed must never be re-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Re-submissions after the first attempt; `0` disables retrying.
    pub max_retries: u32,
    /// Base backoff before the first retry, in microseconds; doubled per
    /// attempt (capped at 64x) with uniform jitter over the top half.
    pub backoff_micros: u64,
    /// Upper bound on any single backoff, in microseconds.
    pub backoff_cap_micros: u64,
}

impl Default for RetryPolicy {
    /// Retrying is opt-in: the default policy never resubmits.
    fn default() -> Self {
        Self {
            max_retries: 0,
            backoff_micros: 100,
            backoff_cap_micros: 5_000,
        }
    }
}

impl RetryPolicy {
    /// A policy that retries aborts up to `max_retries` times with the
    /// default backoff shape.
    pub fn retries(max_retries: u32) -> Self {
        Self {
            max_retries,
            ..Self::default()
        }
    }

    /// The backoff before retry number `attempt` (0-based). `jitter` is any
    /// random word; the sleep lands uniformly in `[base/2, base]` so
    /// synchronized retry herds spread out.
    pub(crate) fn backoff_for(&self, attempt: u32, jitter: u64) -> Duration {
        let base = self
            .backoff_micros
            .saturating_mul(1u64 << attempt.min(6))
            .min(self.backoff_cap_micros);
        let span = base / 2;
        let jittered = if span > 0 {
            span + jitter % (span + 1)
        } else {
            base
        };
        Duration::from_micros(jittered)
    }
}

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Which execution architecture serves the database.
    pub engine: EngineKind,
    /// DORA executors bound per table (ignored by the baseline).
    pub executors_per_table: usize,
    /// DORA engine configuration (ignored by the baseline).
    pub dora: DoraConfig,
    /// Admission policy wired into every submit; `None` disables shedding
    /// and queueing entirely (every arrival runs — the A/B baseline the
    /// saturation experiment compares against).
    pub admission: Option<AdmissionConfig>,
    /// Default per-session in-flight window ([`Server::session`]); a
    /// session's concurrent submitters block past this depth, which is
    /// both client-side backpressure and per-session fairness — no single
    /// session can occupy more than `session_window` execution slots.
    pub session_window: usize,
    /// Per-submit deadline: a submission still parked in the admission
    /// queue when it expires gives its queue slot back and returns
    /// [`SubmitOutcome::TimedOut`] instead of waiting forever. It also
    /// bounds the total time the retry policy may spend on one submission.
    /// `None` (the default) waits indefinitely.
    pub submit_deadline: Option<Duration>,
    /// Retry policy for aborted submissions (default: off).
    pub retry: RetryPolicy,
    /// Serve read-only statements from a lock-free MVCC snapshot instead of
    /// running them through the engine's locked path (default: on). Each
    /// eligible submission pins a fresh snapshot, so it sees every commit
    /// published before it started and never blocks — or is blocked by —
    /// OLTP writers.
    pub snapshot_reads: bool,
}

impl ServerConfig {
    /// A configuration for `engine` with admission sized to the machine
    /// (one execution slot per hardware context, queue twice as deep).
    pub fn new(engine: EngineKind) -> Self {
        let contexts = dora_common::config::num_cpus();
        Self {
            engine,
            executors_per_table: 2,
            dora: DoraConfig::default(),
            admission: Some(AdmissionConfig::for_slots(contexts)),
            session_window: 8,
            submit_deadline: None,
            retry: RetryPolicy::default(),
            snapshot_reads: true,
        }
    }

    /// A small-footprint configuration for tests.
    pub fn for_tests(engine: EngineKind) -> Self {
        Self {
            engine,
            executors_per_table: 2,
            dora: DoraConfig::for_tests(),
            admission: Some(AdmissionConfig {
                max_active: 4,
                max_queued: 8,
            }),
            session_window: 4,
            submit_deadline: None,
            retry: RetryPolicy::default(),
            snapshot_reads: true,
        }
    }

    /// This configuration with a different admission policy.
    pub fn with_admission(self, admission: Option<AdmissionConfig>) -> Self {
        Self { admission, ..self }
    }

    /// This configuration with a per-submit deadline.
    pub fn with_submit_deadline(self, deadline: Duration) -> Self {
        Self {
            submit_deadline: Some(deadline),
            ..self
        }
    }

    /// This configuration with a retry policy for aborted submissions.
    pub fn with_retry(self, retry: RetryPolicy) -> Self {
        Self { retry, ..self }
    }

    /// This configuration with snapshot serving of read-only statements
    /// switched on or off.
    pub fn with_snapshot_reads(self, snapshot_reads: bool) -> Self {
        Self {
            snapshot_reads,
            ..self
        }
    }
}

/// Shared server internals; sessions keep the core alive even if the
/// [`Server`] handle is dropped first.
pub(crate) struct ServerCore {
    engine: Arc<dyn ExecutionEngine>,
    gate: Gate,
    closed: AtomicBool,
    session_window: usize,
    submit_deadline: Option<Duration>,
    retry: RetryPolicy,
    snapshot_reads: bool,
}

impl ServerCore {
    /// One gated submit: admission decides (within the configured
    /// deadline), the engine executes, the slot is returned. This is the
    /// *only* path work reaches the engine through, so the admission
    /// policy really does govern everything.
    pub(crate) fn submit(&self, statement: &Statement, params: &Params) -> SubmitOutcome {
        match self.gate.admit_within(self.submit_deadline) {
            GateOutcome::Shed => SubmitOutcome::Shed,
            GateOutcome::TimedOut => SubmitOutcome::TimedOut,
            GateOutcome::Run => {
                let outcome = self.execute(statement, params);
                self.gate.finish();
                outcome
            }
        }
    }

    fn execute(&self, statement: &Statement, params: &Params) -> SubmitOutcome {
        let built;
        let prepared = match &*statement.kind {
            StatementKind::Prepared(prepared) => prepared,
            // Per-binding build (routing keys are baked in at build time),
            // then the engine's prepare. Eligibility for the snapshot path is
            // decided per build: the program only exists once the parameters
            // are bound.
            StatementKind::Template(build) => {
                match build(self.engine.db(), params).and_then(|p| self.engine.prepare(p)) {
                    Ok(prepared) => {
                        built = prepared;
                        &built
                    }
                    Err(_) => return SubmitOutcome::Aborted,
                }
            }
        };
        let result = if self.snapshot_reads && prepared.is_read_only() {
            // Read-only statements skip both engines entirely: they run on
            // this thread against a freshly pinned snapshot, with no DORA
            // routing and no lock-manager traffic.
            let snapshot = Arc::new(self.engine.snapshot());
            self.engine.execute_on_snapshot(prepared, &snapshot)
        } else {
            self.engine.execute_prepared_checked(prepared)
        };
        match result {
            Ok(outcome) => outcome.into(),
            // Durability lost for good: surface the distinct, non-retryable
            // outcome so no layer (including our own retry policy) re-runs
            // a possible ghost commit.
            Err(DbError::DurabilityLost) => SubmitOutcome::Failed,
            Err(_) => SubmitOutcome::Aborted,
        }
    }

    pub(crate) fn session_window(&self) -> usize {
        self.session_window
    }

    pub(crate) fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    pub(crate) fn submit_deadline(&self) -> Option<Duration> {
        self.submit_deadline
    }
}

/// A database being served: holds the execution engine behind the
/// admission gate, hands out [`Statement`]s and [`Session`]s, and drains
/// gracefully on [`close`](Self::close).
pub struct Server {
    core: Arc<ServerCore>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("engine", &self.core.engine.kind().label())
            .field("active", &self.core.gate.active())
            .field("queued", &self.core.gate.queued())
            .field("closed", &self.core.closed.load(Ordering::Relaxed))
            .finish()
    }
}

impl Server {
    /// Opens `db` for serving: builds the configured execution engine over
    /// it and binds `workload` (which must already be set up — the server
    /// serves data, it does not load it).
    pub fn open(
        db: Arc<Database>,
        workload: Arc<dyn Workload>,
        config: ServerConfig,
    ) -> DbResult<Self> {
        let engine = build_engine_with(config.engine, db, config.dora.clone());
        engine.bind(workload, config.executors_per_table)?;
        Ok(Self {
            core: Arc::new(ServerCore {
                engine,
                gate: Gate::new(config.admission),
                closed: AtomicBool::new(false),
                session_window: config.session_window.max(1),
                submit_deadline: config.submit_deadline,
                retry: config.retry,
                snapshot_reads: config.snapshot_reads,
            }),
        })
    }

    /// Compiles `program` once into a reusable fixed-parameter
    /// [`Statement`]. Every execution of the returned handle reuses the
    /// compiled form — prepare once, execute many.
    pub fn prepare(&self, program: TxnProgram) -> DbResult<Statement> {
        Ok(Statement::prepared(self.core.engine.prepare(program)?))
    }

    /// Registers a parameterized statement: `build` is invoked per
    /// parameter binding to produce the program for those routing keys
    /// (see [`Statement`] for why parameter substitution needs a builder).
    pub fn prepare_template(
        &self,
        name: &'static str,
        build: impl Fn(&Database, &Params) -> DbResult<TxnProgram> + Send + Sync + 'static,
    ) -> Statement {
        Statement::template(name, build)
    }

    /// Opens a client session with the configured in-flight window.
    pub fn session(&self) -> Session {
        incr(CounterKind::SessionsOpened);
        Session::new(Arc::clone(&self.core), self.core.session_window())
    }

    /// Opens a client session with an explicit in-flight window (clamped
    /// to at least 1).
    pub fn session_with_window(&self, window: usize) -> Session {
        incr(CounterKind::SessionsOpened);
        Session::new(Arc::clone(&self.core), window.max(1))
    }

    /// The underlying storage manager.
    pub fn db(&self) -> &Arc<Database> {
        self.core.engine.db()
    }

    /// The serving architecture.
    pub fn engine_kind(&self) -> EngineKind {
        self.core.engine.kind()
    }

    /// Transactions currently executing.
    pub fn in_flight(&self) -> usize {
        self.core.gate.active()
    }

    /// Transactions currently parked in the admission queue.
    pub fn queue_depth(&self) -> usize {
        self.core.gate.queued()
    }

    /// `true` once [`close`](Self::close) has begun.
    pub fn is_closed(&self) -> bool {
        self.core.closed.load(Ordering::Acquire)
    }

    /// Graceful shutdown: new submissions are shed immediately, everything
    /// already admitted or queued runs to completion, then the engine's
    /// threads stop. Blocks until the drain is complete; idempotent
    /// (late callers wait for the same drain). Sessions remain valid but
    /// every subsequent submit returns [`SubmitOutcome::Shed`].
    pub fn close(&self) {
        self.core.gate.close();
        if !self.core.closed.swap(true, Ordering::AcqRel) {
            self.core.engine.shutdown();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.close();
    }
}
