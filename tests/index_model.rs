//! The B-Tree index against a model: random operation streams on a unique
//! and a non-unique index, each checked step by step against a
//! `BTreeMap<Key, Vec<IndexEntry>>` that does the same thing the slow, obvious
//! way.
//!
//! Like every `FaultPlan` draw, operation `k` of a stream is a pure function
//! of `(seed, k)`, so a failure names the seed and the operation that
//! reproduce it. The keys mix Int, Float and Text components and arities 1–4
//! in one index, include text past the tree's out-of-line threshold, and come
//! from a pool small enough that keys repeat, buckets grow, entries are
//! flagged and re-inserted, and leaves fill up and split or garbage-collect
//! their flagged keys. The debug build (tier-1) runs a few thousand
//! operations; the release build about a million.

use std::collections::BTreeMap;
use std::ops::Bound;

use dora_repro::common::prelude::*;
use dora_repro::storage::btree::{BTreeIndex, IndexEntry};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Seeds run, and operations per seed and index: 12 000 in debug, 1 000 000
/// in release.
const SEEDS: u64 = if cfg!(debug_assertions) { 4 } else { 8 };
const OPS: u64 = if cfg!(debug_assertions) {
    1_500
} else {
    62_500
};
/// Distinct keys a stream draws from.
const KEY_POOL: u64 = if cfg!(debug_assertions) { 600 } else { 12_000 };

type Model = BTreeMap<Key, Vec<IndexEntry>>;

/// The draws of operation `op` of stream `seed`.
fn draws(seed: u64, op: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ op)
}

/// Key number `n` of the pool: mostly Int keys of arity 1–4 that share
/// prefixes, plus Float and Text keys, and every 97th a text wider than a
/// node keeps inline.
fn key(n: u64) -> Key {
    let n = n as i64;
    match n % 7 {
        0 => Key::int(n),
        1 => Key::int2(n / 7, n % 5),
        2 => Key::int3(n / 70, n % 3, -n),
        3 => Key::from_values([n / 700, n % 4, n % 11, n]),
        4 => Key::from_values([Value::Int(n / 7), Value::Float(n as f64 / 3.0 - 100.0)]),
        5 if n % 97 == 5 => Key::from_values([format!("wide-{n}-{}", "w".repeat(220))]),
        5 => Key::from_values([Value::Text(format!("t{}\0{}", n % 13, n)), Value::Int(n)]),
        _ => Key::from_values([Value::Text(format!("é{n}")), Value::Int(n % 3)]),
    }
}

/// Routing fields for an entry under `key`: none, the key's first
/// component (stored as a prefix), or something else entirely.
fn routing(rng: &mut SmallRng, key: &Key) -> Key {
    match rng.random_range(0..4) {
        0 => Key::empty(),
        1 => key.prefix(1),
        2 => Key::int(rng.random_range(0..4)),
        _ => Key::from_values([Value::Text(format!("r{}", rng.random_range(0..3)))]),
    }
}

fn live(bucket: &[IndexEntry]) -> Vec<IndexEntry> {
    bucket.iter().filter(|e| !e.deleted).cloned().collect()
}

/// A bucket whose every entry is flagged may have been garbage-collected by
/// a leaf split; if the index no longer holds it, neither does the model.
fn sync_collected(index: &BTreeIndex, model: &mut Model, key: &Key, gc_seen: &mut u64) {
    let collectable = model
        .get(key)
        .is_some_and(|bucket| bucket.iter().all(|e| e.deleted));
    if collectable && index.get_with_deleted(key).is_empty() {
        model.remove(key);
        *gc_seen += 1;
    }
}

fn run_stream(seed: u64, unique: bool, gc_seen: &mut u64, deepest: &mut usize) {
    let index = BTreeIndex::new(unique);
    let mut model = Model::new();
    for op in 0..OPS {
        let mut rng = draws(seed, op);
        let at = format!("seed {seed} op {op} (unique {unique})");
        let k = key(rng.random_range(0..KEY_POOL));
        sync_collected(&index, &mut model, &k, gc_seen);
        match rng.random_range(0..100) {
            // Insert, sometimes an already flagged entry.
            0..=39 => {
                let mut entry = IndexEntry::new(
                    Rid::new(rng.random_range(0..50), rng.random_range(0..8)),
                    routing(&mut rng, &k),
                );
                entry.deleted = rng.random_range(0..20) == 0;
                let result = index.insert(&k, entry.clone());
                let bucket = model.entry(k.clone()).or_default();
                if unique && bucket.iter().any(|e| !e.deleted) {
                    assert!(
                        matches!(result, Err(DbError::DuplicateKey { .. })),
                        "{at}: duplicate {k} accepted: {result:?}"
                    );
                } else {
                    result.unwrap_or_else(|e| panic!("{at}: insert {k}: {e}"));
                    bucket.retain(|e| !e.deleted);
                    bucket.push(entry);
                }
            }
            // Replay a batch, never checked for uniqueness.
            40..=44 => {
                let batch: Vec<(Key, IndexEntry)> = (0..rng.random_range(1..4))
                    .map(|i| {
                        let k = if i == 0 {
                            k.clone()
                        } else {
                            key(rng.random_range(0..KEY_POOL))
                        };
                        let rid = Rid::new(rng.random_range(0..50), rng.random_range(0..8));
                        let entry = IndexEntry::new(rid, routing(&mut rng, &k));
                        (k, entry)
                    })
                    .collect();
                for (k, _) in &batch {
                    sync_collected(&index, &mut model, k, gc_seen);
                }
                index
                    .insert_replayed(&batch)
                    .unwrap_or_else(|e| panic!("{at}: replay: {e}"));
                for (k, entry) in batch {
                    let bucket = model.entry(k).or_default();
                    bucket.retain(|e| !e.deleted);
                    bucket.push(entry);
                }
            }
            // Remove one RID's entries, usually one that is there.
            45..=59 => {
                let rid = pick_rid(&mut rng, &model, &k);
                let result = index.remove(&k, rid);
                match model.get_mut(&k) {
                    Some(bucket) if bucket.iter().any(|e| e.rid == rid) => {
                        result.unwrap_or_else(|e| panic!("{at}: remove {k} {rid}: {e}"));
                        bucket.retain(|e| e.rid != rid);
                        if bucket.is_empty() {
                            model.remove(&k);
                        }
                    }
                    _ => assert!(
                        matches!(result, Err(DbError::NotFound { .. })),
                        "{at}: removed absent {k} {rid}: {result:?}"
                    ),
                }
            }
            // Set or clear the deleted flag.
            60..=74 => {
                let rid = pick_rid(&mut rng, &model, &k);
                let flag = rng.random_range(0..4) != 0;
                let result = index.set_deleted_flag(&k, rid, flag);
                match model.get_mut(&k) {
                    Some(bucket) if bucket.iter().any(|e| e.rid == rid) => {
                        result.unwrap_or_else(|e| panic!("{at}: flag {k} {rid}: {e}"));
                        for entry in bucket.iter_mut().filter(|e| e.rid == rid) {
                            entry.deleted = flag;
                        }
                    }
                    _ => assert!(
                        matches!(result, Err(DbError::NotFound { .. })),
                        "{at}: flagged absent {k} {rid}: {result:?}"
                    ),
                }
            }
            // Point reads.
            75..=89 => {
                let bucket = model.get(&k).cloned().unwrap_or_default();
                assert_eq!(index.get(&k), live(&bucket), "{at}: get {k}");
                assert_eq!(
                    index.get_rid(&k),
                    live(&bucket).first().map(|e| e.rid),
                    "{at}: get_rid {k}"
                );
                assert_eq!(
                    index.get_first(&k),
                    live(&bucket).into_iter().next(),
                    "{at}: get_first {k}"
                );
                assert_eq!(
                    index.get_with_deleted(&k),
                    bucket,
                    "{at}: get_with_deleted {k}"
                );
            }
            // Range reads with bounds and a limit.
            _ => {
                let low = (rng.random_range(0..8) != 0).then(|| key(rng.random_range(0..KEY_POOL)));
                let high =
                    (rng.random_range(0..5) != 0).then(|| key(rng.random_range(0..KEY_POOL)));
                let limit = [0, 1, 3, 40, 500][rng.random_range(0..5usize)];
                let range = KeyRange::new(low, high);
                let expected: Vec<(Key, IndexEntry)> = model_range(&model, &range)
                    .flat_map(|(k, bucket)| live(bucket).into_iter().map(move |e| (k.clone(), e)))
                    .take(limit)
                    .collect();
                assert_eq!(
                    index.range(&range, limit),
                    expected,
                    "{at}: range {range:?} limit {limit}"
                );
                let mut rids = Vec::new();
                index.range_rids(&range, limit, |rid| rids.push(rid));
                let expected_rids: Vec<Rid> = expected.iter().map(|(_, e)| e.rid).collect();
                assert_eq!(
                    rids, expected_rids,
                    "{at}: range_rids {range:?} limit {limit}"
                );
            }
        }
        if op % 1_000 == 999 {
            let live_keys = model
                .values()
                .filter(|b| b.iter().any(|e| !e.deleted))
                .count();
            assert_eq!(index.len(), live_keys, "{at}: live key count");
            let mut rids = Vec::new();
            index.range_rids(&KeyRange::all(), usize::MAX, |rid| rids.push(rid));
            let expected: Vec<Rid> = model
                .values()
                .flat_map(|b| live(b))
                .map(|e| e.rid)
                .collect();
            assert_eq!(rids, expected, "{at}: every live RID in key order");
        }
    }
    *deepest = (*deepest).max(index.depth());
}

/// The model's buckets in `range`.
fn model_range<'a>(
    model: &'a Model,
    range: &KeyRange,
) -> impl Iterator<Item = (&'a Key, &'a Vec<IndexEntry>)> {
    let empty = matches!((&range.low, &range.high), (Some(low), Some(high)) if low > high);
    let low = range.low.clone().map_or(Bound::Unbounded, Bound::Included);
    let high = range.high.clone().map_or(Bound::Unbounded, Bound::Excluded);
    (!empty)
        .then(|| model.range((low, high)))
        .into_iter()
        .flatten()
}

/// A RID under `key` in the model most of the time, else any.
fn pick_rid(rng: &mut SmallRng, model: &Model, key: &Key) -> Rid {
    match model.get(key) {
        Some(bucket) if rng.random_range(0..5) != 0 => {
            bucket[rng.random_range(0..bucket.len())].rid
        }
        _ => Rid::new(rng.random_range(0..50), rng.random_range(0..8)),
    }
}

#[test]
fn the_index_behaves_like_a_sorted_map_of_buckets() {
    let (mut gc_seen, mut deepest) = (0, 0);
    for seed in 0..SEEDS {
        for unique in [true, false] {
            run_stream(seed, unique, &mut gc_seen, &mut deepest);
        }
    }
    assert!(
        gc_seen > 0,
        "no leaf split ever garbage-collected a flagged key"
    );
    assert!(deepest >= 2, "no stream split a node (depth {deepest})");
}
