//! Deterministic fault injection.
//!
//! The durability tricks this reproduction measures — early lock release and
//! asynchronous group commit — are exactly the mechanisms that turn one slow
//! or failed log write into cascading stalls and ghost commits. To exercise
//! those paths repeatably, faults are *planned*, not random: every injection
//! decision is a pure function of the configured seed, the fault site and the
//! ordinal of the draw at that site. Two runs with the same [`FaultConfig`]
//! therefore draw the identical decision sequence per site, regardless of
//! thread interleaving (interleaving only changes *which wall-clock operation*
//! consumes draw `k`, never what draw `k` decides).
//!
//! Besides the drawn faults a plan offers **holds** ([`FaultPlan::hold`]): a
//! test parks every thread that reaches a site until it lets go — a barrier at
//! a point inside the system, for the interleavings a test has to force rather
//! than hope for. A plan nobody holds pays one atomic load per site visit.
//!
//! The plan itself lives here in `dora-common` so every layer (storage's log
//! device, the DORA executors, the serving front-end's tests) shares one
//! schedule; the layers that consume decisions count them through
//! `dora-metrics` at the call site.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

/// Knobs for the deterministic fault injector. All rates are probabilities in
/// `[0, 1]`; a rate of zero disables that site entirely (and draws nothing
/// from its decision stream). The default configuration injects nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed for the per-site decision streams. Fixing the seed fixes the
    /// entire fault schedule.
    pub seed: u64,
    /// Probability that a simulated log-device write fails transiently.
    pub device_error_rate: f64,
    /// Probability that a simulated log-device write takes a latency spike.
    pub device_spike_rate: f64,
    /// Extra latency of a spiked device write, in microseconds.
    pub device_spike_micros: u64,
    /// Probability that a log flusher stalls before a device write.
    pub flusher_stall_rate: f64,
    /// Duration of an injected flusher stall, in microseconds.
    pub flusher_stall_micros: u64,
    /// Probability that an executor panics at an action boundary.
    pub executor_panic_rate: f64,
    /// How many times a flusher retries a failed device write before
    /// declaring the log's durability lost for good. `0` disables the
    /// self-healing retry path: the first failed write kills the log.
    pub max_write_retries: u32,
    /// Base of the capped exponential backoff between write retries, in
    /// microseconds (doubled per attempt, capped at 32x the base).
    pub retry_backoff_micros: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            seed: 0xD07A,
            device_error_rate: 0.0,
            device_spike_rate: 0.0,
            device_spike_micros: 500,
            flusher_stall_rate: 0.0,
            flusher_stall_micros: 2_000,
            executor_panic_rate: 0.0,
            max_write_retries: 8,
            retry_backoff_micros: 50,
        }
    }
}

impl FaultConfig {
    /// `true` if any fault site has a non-zero rate — the cheap gate callers
    /// use to skip injection bookkeeping entirely on clean runs.
    pub fn enabled(&self) -> bool {
        self.device_error_rate > 0.0
            || self.device_spike_rate > 0.0
            || self.flusher_stall_rate > 0.0
            || self.executor_panic_rate > 0.0
    }

    fn rate(&self, site: FaultSite) -> f64 {
        match site {
            FaultSite::DeviceWriteError => self.device_error_rate,
            FaultSite::DeviceLatencySpike => self.device_spike_rate,
            FaultSite::FlusherStall => self.flusher_stall_rate,
            FaultSite::ExecutorPanic => self.executor_panic_rate,
            // No knob: the site is only ever held ([`FaultPlan::hold`]).
            FaultSite::CheckpointStall
            | FaultSite::SnapshotReadGap
            | FaultSite::SnapshotAdoption => 0.0,
        }
    }
}

/// Where a fault can be injected. Each site has its own independent decision
/// stream so enabling one site never perturbs another's schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A simulated log-device write fails transiently.
    DeviceWriteError,
    /// A simulated log-device write takes a latency spike.
    DeviceLatencySpike,
    /// A log flusher stalls before writing.
    FlusherStall,
    /// An executor thread panics at an action boundary.
    ExecutorPanic,
    /// A checkpoint build stalls right after its cut: the records are out of
    /// the log, the checkpoint that will hold them is not complete.
    CheckpointStall,
    /// A snapshot point read stalls between reading the heap and asking the
    /// version chains, the window a writer can seed and mutate the row in.
    SnapshotReadGap,
    /// The first snapshot of a versioning period stalls after starting the
    /// period and before adopting the transactions in flight.
    SnapshotAdoption,
}

impl FaultSite {
    /// Every fault site, in decision-stream order.
    pub const ALL: [FaultSite; 7] = [
        FaultSite::DeviceWriteError,
        FaultSite::DeviceLatencySpike,
        FaultSite::FlusherStall,
        FaultSite::ExecutorPanic,
        FaultSite::CheckpointStall,
        FaultSite::SnapshotReadGap,
        FaultSite::SnapshotAdoption,
    ];

    fn index(self) -> usize {
        match self {
            FaultSite::DeviceWriteError => 0,
            FaultSite::DeviceLatencySpike => 1,
            FaultSite::FlusherStall => 2,
            FaultSite::ExecutorPanic => 3,
            FaultSite::CheckpointStall => 4,
            FaultSite::SnapshotReadGap => 5,
            FaultSite::SnapshotAdoption => 6,
        }
    }
}

/// A live fault schedule: a [`FaultConfig`] plus one draw counter per site.
///
/// [`Self::should_inject`] consumes the next decision of the site's stream;
/// `Self::decision` previews any decision without consuming anything, which
/// is how tests and the chaos experiment verify that a fixed seed reproduces
/// the identical schedule.
#[derive(Debug)]
pub struct FaultPlan {
    config: FaultConfig,
    draws: [AtomicU64; FaultSite::ALL.len()],
    /// Live [`FaultHold`]s per site.
    holds: [AtomicUsize; FaultSite::ALL.len()],
    /// Threads asleep at each held site right now.
    parked: [AtomicUsize; FaultSite::ALL.len()],
    /// Where threads that reached a held site sleep.
    hold_lock: Mutex<()>,
    released: Condvar,
}

impl FaultPlan {
    /// Builds a plan with all draw counters at zero.
    pub fn new(config: FaultConfig) -> Self {
        Self {
            config,
            draws: std::array::from_fn(|_| AtomicU64::new(0)),
            holds: std::array::from_fn(|_| AtomicUsize::new(0)),
            parked: std::array::from_fn(|_| AtomicUsize::new(0)),
            hold_lock: Mutex::new(()),
            released: Condvar::new(),
        }
    }

    /// A plan that never injects anything.
    pub fn disabled() -> Self {
        Self::new(FaultConfig::default())
    }

    /// The configuration this plan draws from.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// `true` if any site can fire (see [`FaultConfig::enabled`]).
    pub fn enabled(&self) -> bool {
        self.config.enabled()
    }

    /// Consumes the next decision of `site`'s stream. Sites with a zero rate
    /// draw nothing and always answer `false`.
    pub fn should_inject(&self, site: FaultSite) -> bool {
        let rate = self.config.rate(site);
        if rate <= 0.0 {
            return false;
        }
        let draw = self.draws[site.index()].fetch_add(1, Ordering::Relaxed);
        self.decision(site, draw)
    }

    /// The decision the `draw`-th consumption of `site`'s stream yields — a
    /// pure function of `(seed, site, draw)`, usable to preview or replay the
    /// schedule without touching the live counters.
    pub(crate) fn decision(&self, site: FaultSite, draw: u64) -> bool {
        let rate = self.config.rate(site);
        if rate <= 0.0 {
            return false;
        }
        let salt = (site.index() as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let hash = splitmix64(self.config.seed ^ salt ^ draw.wrapping_mul(0xD1B5_4A32_D192_ED03));
        // Top 53 bits give a uniform draw in [0, 1).
        ((hash >> 11) as f64 / (1u64 << 53) as f64) < rate
    }

    /// The first `n` decisions of `site`'s stream (schedule preview).
    pub fn schedule(&self, site: FaultSite, n: u64) -> Vec<bool> {
        (0..n).map(|draw| self.decision(site, draw)).collect()
    }

    /// How many decisions `site`'s stream has consumed so far.
    pub fn draws(&self, site: FaultSite) -> u64 {
        self.draws[site.index()].load(Ordering::Relaxed)
    }

    /// Parks every thread that reaches `site` ([`Self::park_while_held`])
    /// from now until the returned guard is dropped.
    pub fn hold(self: &Arc<Self>, site: FaultSite) -> FaultHold {
        self.holds[site.index()].fetch_add(1, Ordering::SeqCst);
        FaultHold {
            plan: Arc::clone(self),
            site,
        }
    }

    /// Called by the code at `site`: sleeps for as long as anybody holds the
    /// site and says whether it had to. Costs one load when nobody does.
    pub fn park_while_held(&self, site: FaultSite) -> bool {
        let holds = &self.holds[site.index()];
        if holds.load(Ordering::SeqCst) == 0 {
            return false;
        }
        let mut guard = self.hold_lock.lock();
        self.parked[site.index()].fetch_add(1, Ordering::SeqCst);
        while holds.load(Ordering::SeqCst) > 0 {
            self.released.wait(&mut guard);
        }
        self.parked[site.index()].fetch_sub(1, Ordering::SeqCst);
        true
    }

    /// How many threads a hold on `site` has asleep right now: what a test
    /// polls to know its victim has arrived.
    pub fn parked(&self, site: FaultSite) -> usize {
        self.parked[site.index()].load(Ordering::SeqCst)
    }
}

/// A live hold on one site of a [`FaultPlan`]; dropping it releases the
/// threads parked there.
#[derive(Debug)]
pub struct FaultHold {
    plan: Arc<FaultPlan>,
    site: FaultSite,
}

impl Drop for FaultHold {
    fn drop(&mut self) {
        // Under the mutex a parked thread re-checks the count with, so the
        // notification cannot fall between its check and its wait.
        let _guard = self.plan.hold_lock.lock();
        self.plan.holds[self.site.index()].fetch_sub(1, Ordering::SeqCst);
        self.plan.released.notify_all();
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Panic payload used for injected executor panics, so supervision code and
/// the process panic hook can tell a *planned* crash from a genuine bug.
#[derive(Debug, Clone, Copy)]
pub struct InjectedPanic;

/// Installs a process panic hook that suppresses the default backtrace noise
/// for [`InjectedPanic`] payloads (chaos runs inject thousands) while leaving
/// every other panic's reporting untouched. Idempotent.
pub fn silence_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !info.payload().is::<InjectedPanic>() {
                default_hook(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaotic() -> FaultConfig {
        FaultConfig {
            seed: 42,
            device_error_rate: 0.25,
            device_spike_rate: 0.1,
            flusher_stall_rate: 0.05,
            executor_panic_rate: 0.02,
            ..FaultConfig::default()
        }
    }

    #[test]
    fn default_config_is_inert() {
        let plan = FaultPlan::disabled();
        assert!(!plan.enabled());
        for site in FaultSite::ALL {
            for _ in 0..100 {
                assert!(!plan.should_inject(site));
            }
            assert_eq!(plan.draws(site), 0, "zero-rate sites must not draw");
        }
    }

    #[test]
    fn same_seed_reproduces_the_identical_schedule() {
        let a = FaultPlan::new(chaotic());
        let b = FaultPlan::new(chaotic());
        for site in FaultSite::ALL {
            assert_eq!(a.schedule(site, 10_000), b.schedule(site, 10_000));
        }
        // Live draws agree with the previewed schedule.
        let live: Vec<bool> = (0..10_000)
            .map(|_| a.should_inject(FaultSite::DeviceWriteError))
            .collect();
        assert_eq!(live, b.schedule(FaultSite::DeviceWriteError, 10_000));
    }

    #[test]
    fn different_seeds_diverge_and_rates_are_roughly_honored() {
        let a = FaultPlan::new(chaotic());
        let b = FaultPlan::new(FaultConfig {
            seed: 43,
            ..chaotic()
        });
        let sa = a.schedule(FaultSite::DeviceWriteError, 4_096);
        let sb = b.schedule(FaultSite::DeviceWriteError, 4_096);
        assert_ne!(sa, sb, "different seeds must yield different schedules");
        let hits = sa.iter().filter(|&&h| h).count() as f64 / 4_096.0;
        assert!(
            (hits - 0.25).abs() < 0.05,
            "empirical rate {hits} strays too far from 0.25"
        );
    }

    #[test]
    fn a_held_site_parks_its_visitors_until_the_hold_is_dropped() {
        let plan = Arc::new(FaultPlan::disabled());
        assert!(!plan.park_while_held(FaultSite::CheckpointStall));
        let hold = plan.hold(FaultSite::CheckpointStall);
        assert!(
            !plan.park_while_held(FaultSite::FlusherStall),
            "holds are per site"
        );
        let (through_tx, through_rx) = std::sync::mpsc::channel();
        let visitor = {
            let plan = Arc::clone(&plan);
            std::thread::spawn(move || {
                plan.park_while_held(FaultSite::CheckpointStall);
                through_tx.send(()).unwrap();
            })
        };
        let patience = std::time::Duration::from_millis(50);
        assert!(
            through_rx.recv_timeout(patience).is_err(),
            "the visitor got through a held site"
        );
        drop(hold);
        through_rx
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("the visitor is released with the hold");
        visitor.join().unwrap();
        assert_eq!(plan.parked(FaultSite::CheckpointStall), 0);
        assert!(!plan.park_while_held(FaultSite::CheckpointStall));
    }

    #[test]
    fn sites_have_independent_streams() {
        let plan = FaultPlan::new(chaotic());
        // Consuming one site's stream must not move another's.
        for _ in 0..50 {
            plan.should_inject(FaultSite::FlusherStall);
        }
        assert_eq!(plan.draws(FaultSite::FlusherStall), 50);
        assert_eq!(plan.draws(FaultSite::DeviceWriteError), 0);
    }
}
