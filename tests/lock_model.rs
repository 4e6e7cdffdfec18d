//! The centralized lock manager against a model: seeded streams of
//! transactions on several threads that share a small pool of locks, each
//! grant checked against a shadow table of who holds what.
//!
//! Like `tests/index_model.rs`, operation `k` of a thread's stream is a pure
//! function of `(seed, thread, k)`, so a failure names the operation that
//! drew it; the interleaving of the threads is the host's. The streams mix
//! all five modes, fresh requests, upgrades of held locks, commits and
//! aborts, on a pool small enough that requests queue and deadlock. Checked:
//!
//! * after every grant, the modes granted on that lock are pairwise
//!   compatible;
//! * every blocked request ends in a grant or as a deadlock victim, never in
//!   the wait timeout (a lost wake-up, or a deadlock the detector missed);
//! * at the end, no lock head is left linked.
//!
//! Two fixed cases ride along: a queue that must be granted in FIFO order,
//! and one transaction with thousands of record locks. The debug build
//! (tier-1) runs about 12 000 operations; the release build a million.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dora_repro::common::prelude::*;
use dora_repro::metrics::{global, CounterKind};
use dora_repro::storage::lock::{HeldLocks, LockId, LockManager, LockMode};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Seeds run, and operations per thread and seed: 12 000 operations over
/// all threads in debug, 1 000 000 in release.
const SEEDS: u64 = if cfg!(debug_assertions) { 3 } else { 8 };
const OPS: u64 = if cfg!(debug_assertions) {
    1_000
} else {
    31_250
};
const THREADS: u64 = 4;
/// A wait this long is a failure: the detector fires at the moment a cycle
/// closes, and no transaction holds a lock longer than a few operations.
const WAIT_TIMEOUT: Duration = Duration::from_secs(5);

const MODES: [LockMode; 5] = [
    LockMode::IS,
    LockMode::IX,
    LockMode::S,
    LockMode::SIX,
    LockMode::X,
];

/// The shared pool: two tables and four records.
fn pool() -> [LockId; 6] {
    [
        LockId::Table(TableId(1)),
        LockId::Table(TableId(2)),
        LockId::record(TableId(1), Rid::new(0, 1)),
        LockId::record(TableId(1), Rid::new(0, 2)),
        LockId::record(TableId(1), Rid::new(7, 0)),
        LockId::record(TableId(2), Rid::new(0, 1)),
    ]
}

/// The draws of operation `op` of thread `thread` in stream `seed`.
fn draws(seed: u64, thread: u64, op: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (thread << 40) ^ op)
}

/// Held by each test: the FIFO case reads the process-wide wait counter, so
/// the tests of this file run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Who holds which mode on each lock, as the threads saw their grants.
type Shadow = Mutex<HashMap<LockId, Vec<(TxnId, LockMode)>>>;

/// Records `txn`'s grant of `mode` on `id` and checks it against the other
/// holders.
fn shadow_grant(shadow: &Shadow, txn: TxnId, id: LockId, mode: LockMode, at: &str) {
    let mut shadow = shadow.lock().unwrap();
    let holders = shadow.entry(id).or_default();
    holders.retain(|(holder, _)| *holder != txn);
    for (holder, held) in holders.iter() {
        assert!(
            mode.compatible(*held),
            "{at}: {txn} granted {mode:?} on {id:?} while {holder} holds {held:?}"
        );
    }
    holders.push((txn, mode));
}

/// Forgets `txn`'s holdings; called before the manager releases them, so a
/// later grant never meets a stale entry.
fn shadow_release(shadow: &Shadow, txn: TxnId) {
    let mut shadow = shadow.lock().unwrap();
    for holders in shadow.values_mut() {
        holders.retain(|(holder, _)| *holder != txn);
    }
}

#[derive(Debug, Default)]
struct Tally {
    grants: u64,
    victims: u64,
    commits: u64,
    aborts: u64,
}

fn run_thread(
    manager: &LockManager,
    shadow: &Shadow,
    seed: u64,
    thread: u64,
    next_txn: &AtomicU64,
) -> Tally {
    let pool = pool();
    let mut tally = Tally::default();
    let mut txn = TxnId(next_txn.fetch_add(1, Ordering::Relaxed));
    let mut held = HeldLocks::new();
    let mut taken: Vec<LockId> = Vec::new();
    for op in 0..OPS {
        let mut rng = draws(seed, thread, op);
        let at = format!("seed {seed} thread {thread} op {op}");
        let roll = rng.random_range(0..100);
        let request = match roll {
            // A fresh lock, or a held one again in any mode.
            0..=54 => Some((
                pool[rng.random_range(0..pool.len())],
                rng.random_range(0..5usize),
            )),
            // An upgrade: a held lock in a stronger mode.
            55..=79 if !taken.is_empty() => Some((
                taken[rng.random_range(0..taken.len())],
                rng.random_range(2..5usize),
            )),
            _ => None,
        };
        let finish = match request {
            Some((id, mode)) => {
                let mode = MODES[mode];
                let started = Instant::now();
                match manager.acquire(txn, &mut held, id, mode) {
                    Ok(()) => {
                        let granted = held.mode(&id).expect("a granted lock is in the ledger");
                        assert!(granted.covers(mode), "{at}: {granted:?} misses {mode:?}");
                        shadow_grant(shadow, txn, id, granted, &at);
                        if !taken.contains(&id) {
                            taken.push(id);
                        }
                        tally.grants += 1;
                        false
                    }
                    Err(DbError::Deadlock { victim }) => {
                        assert_eq!(victim, txn, "{at}: wrong victim");
                        assert!(
                            started.elapsed() < WAIT_TIMEOUT,
                            "{at}: {txn}'s {mode:?} request on {id:?} was neither granted nor \
                             chosen as a deadlock victim within {WAIT_TIMEOUT:?}"
                        );
                        tally.victims += 1;
                        true
                    }
                    Err(other) => panic!("{at}: {other}"),
                }
            }
            // Commit (most) or abort: both release everything.
            None => {
                if roll < 95 {
                    tally.commits += 1;
                } else {
                    tally.aborts += 1;
                }
                true
            }
        };
        if finish {
            shadow_release(shadow, txn);
            manager.release_all(txn, std::mem::take(&mut held));
            taken.clear();
            txn = TxnId(next_txn.fetch_add(1, Ordering::Relaxed));
        } else if rng.random_range(0..3) == 0 {
            std::thread::yield_now();
        }
    }
    shadow_release(shadow, txn);
    manager.release_all(txn, held);
    tally
}

#[test]
fn concurrent_streams_grant_only_compatible_modes_and_never_hang() {
    let _serial = serial();
    let mut total = Tally::default();
    for seed in 0..SEEDS {
        let manager = LockManager::new(true).with_wait_timeout(WAIT_TIMEOUT);
        let shadow = Shadow::default();
        let next_txn = AtomicU64::new(1);
        let tallies: Vec<Tally> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..THREADS)
                .map(|thread| {
                    let (manager, shadow, next_txn) = (&manager, &shadow, &next_txn);
                    scope.spawn(move || run_thread(manager, shadow, seed, thread, next_txn))
                })
                .collect();
            threads
                .into_iter()
                .map(|thread| thread.join().expect("a stream thread failed"))
                .collect()
        });
        assert_eq!(
            manager.live_lock_heads(),
            0,
            "seed {seed}: heads left linked"
        );
        for tally in tallies {
            total.grants += tally.grants;
            total.victims += tally.victims;
            total.commits += tally.commits;
            total.aborts += tally.aborts;
        }
    }
    eprintln!("lock model: {total:?}");
    assert!(
        total.commits > 0 && total.aborts > 0 && total.victims > 0,
        "the streams must commit, abort and deadlock: {total:?}"
    );
}

/// Requests queue in arrival order: a shared request that arrives behind a
/// waiting exclusive one is granted after it, although it is compatible with
/// the holders it meets.
#[test]
fn a_queue_is_granted_in_arrival_order() {
    let _serial = serial();
    let manager = Arc::new(LockManager::new(true).with_wait_timeout(WAIT_TIMEOUT));
    let id = LockId::record(TableId(3), Rid::new(1, 1));
    let (mut first, mut second) = (HeldLocks::new(), HeldLocks::new());
    manager
        .acquire(TxnId(1), &mut first, id, LockMode::S)
        .unwrap();
    manager
        .acquire(TxnId(4), &mut second, id, LockMode::S)
        .unwrap();

    // Each waiter records when it was granted and releases at once.
    let order = Arc::new(Mutex::new(Vec::new()));
    let waits = || global().snapshot().counter(CounterKind::LockWaits);
    let mut waiters = Vec::new();
    for (txn, mode) in [(TxnId(2), LockMode::X), (TxnId(3), LockMode::S)] {
        let queued = waits();
        let (manager, order) = (Arc::clone(&manager), Arc::clone(&order));
        waiters.push(std::thread::spawn(move || {
            let mut held = HeldLocks::new();
            manager.acquire(txn, &mut held, id, mode).unwrap();
            order.lock().unwrap().push(txn);
            manager.release_all(txn, held);
        }));
        // One wait more than before: this waiter is queued.
        let deadline = Instant::now() + WAIT_TIMEOUT;
        while waits() == queued {
            assert!(Instant::now() < deadline, "{txn} never queued");
            std::thread::yield_now();
        }
    }
    manager.release_all(TxnId(1), first);
    manager.release_all(TxnId(4), second);
    for waiter in waiters {
        waiter.join().unwrap();
    }
    assert_eq!(*order.lock().unwrap(), [TxnId(2), TxnId(3)]);
    assert_eq!(manager.live_lock_heads(), 0);
}

/// One transaction with thousands of record locks: every one is in the
/// ledger, re-acquiring a covered one is a no-op, and release unlinks them
/// all.
#[test]
fn a_large_ledger_holds_every_lock_once() {
    let _serial = serial();
    const LOCKS: u16 = 5_000;
    let manager = LockManager::new(true);
    let txn = TxnId(1);
    let mut held = HeldLocks::new();
    let record = |i: u16| LockId::record(TableId(1), Rid::new(u32::from(i) / 7, i % 7));
    for i in 0..LOCKS {
        let mode = if i % 3 == 0 { LockMode::S } else { LockMode::X };
        manager.acquire(txn, &mut held, record(i), mode).unwrap();
    }
    assert_eq!(manager.live_lock_heads(), usize::from(LOCKS));
    for i in 0..LOCKS {
        manager
            .acquire(txn, &mut held, record(i), LockMode::S)
            .unwrap();
    }
    assert_eq!(held.len(), usize::from(LOCKS));
    for i in 0..LOCKS {
        let expected = if i % 3 == 0 { LockMode::S } else { LockMode::X };
        assert_eq!(held.mode(&record(i)), Some(expected), "lock {i}");
    }
    assert_eq!(manager.live_lock_heads(), usize::from(LOCKS));
    manager.release_all(txn, held);
    assert_eq!(manager.live_lock_heads(), 0);
}
