//! Property-based tests over the core data structures and invariants, using
//! the public API of the workspace crates.
//!
//! The build environment cannot fetch `proptest`, so these use a small
//! seeded-random harness: each property is checked against a few hundred
//! randomly generated cases, and failures report the generated inputs so
//! the case can be replayed by seed.

use dora_repro::common::prelude::*;
use dora_repro::dora::adaptive::balanced_rule;
use dora_repro::dora::routing::RoutingRule;
use dora_repro::storage::btree::{BTreeIndex, IndexEntry};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 300;

/// Every key in the domain maps to exactly one executor, executor indexes
/// are within range, and the mapping is monotone in the key (range rules
/// partition the domain into contiguous datasets).
#[test]
fn routing_rule_partitions_domain() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xA100 + case);
        let executors = rng.random_range(1usize..12);
        let low = rng.random_range(-1_000i64..1_000);
        let span = rng.random_range(1i64..5_000);
        let high = low + span;
        let rule = RoutingRule::even_ranges(low, high, executors);
        assert_eq!(rule.executor_count(), executors, "case {case}");

        let mut probes: Vec<i64> = (0..rng.random_range(1usize..50))
            .map(|_| rng.random_range(-2_000i64..7_000))
            .collect();
        probes.sort_unstable();
        let mut last: Option<(i64, usize)> = None;
        for value in probes {
            let executor = rule.route(&Key::int(value)).unwrap();
            assert!(
                executor < executors,
                "case {case}: executor {executor} out of range"
            );
            if let Some((previous_value, previous_executor)) = last {
                if value >= previous_value {
                    assert!(
                        executor >= previous_executor,
                        "case {case}: routing not monotone at key {value}"
                    );
                }
            }
            last = Some((value, executor));
        }
    }
}

/// Checks that a range rule tiles the entire key domain with no gaps or
/// overlaps: executor datasets are contiguous, every in-domain dataset is at
/// least `min_width` keys wide, and routing agrees with the reported
/// ownership at both edges of every dataset.
fn assert_rule_tiles(rule: &RoutingRule, low: i64, high: i64, min_width: i64, context: &str) {
    let executors = rule.executor_count();
    let mut expected_low = i64::MIN;
    for index in 0..executors {
        let (range_low, range_high) = rule
            .range_of(index)
            .unwrap_or_else(|| panic!("{context}: executor {index} has no range"));
        assert_eq!(range_low, expected_low, "{context}: gap/overlap at {index}");
        assert!(
            range_low <= range_high,
            "{context}: inverted range at {index}"
        );
        let clipped = range_high.min(high) - range_low.max(low) + 1;
        assert!(
            clipped >= min_width,
            "{context}: dataset {index} narrower than {min_width} in-domain keys"
        );
        if range_high < i64::MAX {
            assert_eq!(
                rule.route(&Key::int(range_high)),
                Some(index),
                "{context}: top edge of {index} routes elsewhere"
            );
        }
        if range_low > i64::MIN {
            assert_eq!(
                rule.route(&Key::int(range_low)),
                Some(index),
                "{context}: bottom edge of {index} routes elsewhere"
            );
        }
        if index + 1 == executors {
            assert_eq!(range_high, i64::MAX, "{context}: open top end missing");
        } else {
            expected_low = range_high + 1;
        }
    }
}

/// Any rule the skew detector synthesizes — over arbitrary current rules,
/// load vectors, domains and minimum widths — still tiles the full key
/// domain with no gaps or overlaps, keeps the executor count, and honors
/// the minimum range width.
#[test]
fn skew_detector_rules_tile_the_domain() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xB100 + case);
        let executors = rng.random_range(2usize..10);
        let low = rng.random_range(-500i64..500);
        let min_width = rng.random_range(1i64..6);
        let span = rng.random_range(executors as i64 * min_width..4_000);
        let high = low + span - 1;
        let current = RoutingRule::even_ranges(low, high, executors);
        let loads: Vec<u64> = (0..executors)
            .map(|_| rng.random_range(0u64..10_000))
            .collect();
        let Some(rebalanced) = balanced_rule(&current, &loads, (low, high), min_width) else {
            continue; // balanced already, or zero load — nothing to check
        };
        assert_eq!(
            rebalanced.executor_count(),
            executors,
            "case {case}: executor count changed"
        );
        assert_rule_tiles(&rebalanced, low, high, min_width, &format!("case {case}"));
    }
}

/// Iterated rebalancing (the controller's steady state) preserves the same
/// invariants at every step of a random split/merge sequence: the output of
/// one resize is the input of the next.
#[test]
fn iterated_rebalances_stay_sound() {
    for case in 0..60 {
        let mut rng = SmallRng::seed_from_u64(0xB200 + case);
        let executors = rng.random_range(2usize..8);
        let low = rng.random_range(-100i64..100);
        let span = rng.random_range(executors as i64 * 4..2_000);
        let high = low + span - 1;
        let mut rule = RoutingRule::even_ranges(low, high, executors);
        for step in 0..12 {
            // Skewed load: one random executor gets the lion's share, so
            // every step both splits (the hot range) and merges (cold ones).
            let hot = rng.random_range(0usize..executors);
            let loads: Vec<u64> = (0..executors)
                .map(|i| {
                    if i == hot {
                        rng.random_range(5_000u64..50_000)
                    } else {
                        rng.random_range(0u64..500)
                    }
                })
                .collect();
            let Some(next) = balanced_rule(&rule, &loads, (low, high), 2) else {
                continue;
            };
            assert_rule_tiles(&next, low, high, 2, &format!("case {case} step {step}"));
            rule = next;
        }
    }
}

/// A composite identifier routes to the same executor as its leading routing
/// field alone — the property DORA relies on when it merges actions and
/// routes secondary-index accesses.
#[test]
fn routing_ignores_trailing_fields() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xA200 + case);
        let executors = rng.random_range(1usize..8);
        let key = rng.random_range(1i64..10_000);
        let trailing = rng.random_range(-100i64..100);
        let rule = RoutingRule::even_ranges(1, 10_000, executors);
        assert_eq!(
            rule.route(&Key::int(key)),
            rule.route(&Key::int2(key, trailing)),
            "case {case}: trailing field changed the route of {key}"
        );
    }
}

/// Key prefix overlap is symmetric and equality always overlaps.
#[test]
fn key_prefix_overlap_is_symmetric() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xA300 + case);
        let len_a = rng.random_range(0usize..4);
        let len_b = rng.random_range(0usize..4);
        let a: Vec<i64> = (0..len_a).map(|_| rng.random_range(0i64..6)).collect();
        let b: Vec<i64> = (0..len_b).map(|_| rng.random_range(0i64..6)).collect();
        let key_a = Key::from_values(a);
        let key_b = Key::from_values(b);
        assert_eq!(
            key_a.overlaps(&key_b),
            key_b.overlaps(&key_a),
            "case {case}: overlap not symmetric for {key_a:?} / {key_b:?}"
        );
        assert!(
            key_a.overlaps(&key_a),
            "case {case}: key must overlap itself"
        );
    }
}

/// The B-Tree behaves exactly like a sorted map: everything inserted is
/// found, everything removed disappears, and range reads return sorted,
/// correct windows cut at their limit.
#[test]
fn btree_matches_model() {
    for case in 0..60 {
        let mut rng = SmallRng::seed_from_u64(0xA400 + case);
        let index = BTreeIndex::new(true);
        let mut model = std::collections::BTreeMap::new();

        let inserts = rng.random_range(1usize..300);
        let mut keys = std::collections::BTreeSet::new();
        for _ in 0..inserts {
            keys.insert(rng.random_range(0i64..2_000));
        }
        for (slot, key) in keys.iter().enumerate() {
            let rid = Rid::new((slot / 100) as u32, (slot % 100) as u16);
            index
                .insert(&Key::int(*key), IndexEntry::new(rid, Key::empty()))
                .unwrap();
            model.insert(*key, rid);
        }
        // Up to 2 000 draws remove most keys in some cases, so whole leaves
        // empty out and range reads must walk past them.
        for _ in 0..rng.random_range(0usize..2_000) {
            let key = rng.random_range(0i64..2_000);
            if let Some(rid) = model.remove(&key) {
                index.remove(&Key::int(key), rid).unwrap();
            }
        }
        assert_eq!(index.len(), model.len(), "case {case}: size diverged");
        for (key, rid) in &model {
            let found = index.get(&Key::int(*key));
            assert_eq!(found.len(), 1, "case {case}: key {key} not unique");
            assert_eq!(found[0].rid, *rid, "case {case}: key {key} wrong rid");
        }
        let start = rng.random_range(0i64..2_000);
        let len = rng.random_range(1i64..500);
        let limit = rng.random_range(0usize..600);
        let range = KeyRange::new(Some(Key::int(start)), Some(Key::int(start + len)));
        let scanned: Vec<i64> = index
            .range(&range, limit)
            .iter()
            .map(|(key, _)| key.leading_int().unwrap())
            .collect();
        let expected: Vec<i64> = model
            .range(start..start + len)
            .take(limit)
            .map(|(k, _)| *k)
            .collect();
        assert_eq!(scanned, expected, "case {case}: range scan diverged");
    }
}

/// A random row: ints, floats (never NaN, which is unequal to itself under
/// `Eq`) and text drawn from all of Unicode as well as ASCII, so payloads mix
/// one- to four-byte UTF-8 sequences.
fn random_row(rng: &mut SmallRng) -> Row {
    let mut row: Row = Vec::new();
    for _ in 0..rng.random_range(0usize..6) {
        row.push(Value::Int(rng.random_range(i64::MIN..=i64::MAX)));
    }
    for _ in 0..rng.random_range(0usize..4) {
        let f = f64::from_bits(rng.random_range(0u64..=u64::MAX));
        if !f.is_nan() {
            row.push(Value::Float(f));
        }
    }
    for _ in 0..rng.random_range(0usize..4) {
        let len = rng.random_range(0usize..24);
        let text: String = (0..len)
            .map(|_| {
                if rng.random_range(0u8..2) == 0 {
                    return char::from(rng.random_range(32u8..127));
                }
                loop {
                    // Surrogate code points are not chars; draw again.
                    if let Some(c) = char::from_u32(rng.random_range(0u32..0x11_0000)) {
                        return c;
                    }
                }
            })
            .collect();
        row.push(Value::Text(text));
    }
    row
}

/// Row encode/decode round-trips arbitrary rows.
#[test]
fn row_codec_roundtrip() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xA500 + case);
        let row = random_row(&mut rng);
        let decoded = Value::decode_row(&Value::encode_row(&row)).unwrap();
        assert_eq!(decoded, row, "case {case}: row did not round-trip");
    }
}

fn is_corruption(result: DbResult<Row>) -> bool {
    matches!(result, Err(DbError::Corruption(_)))
}

/// The row decoder reads records straight off pages, so malformed bytes must
/// come back as `Corruption`, never as a panic or a row: every strict prefix
/// of an encoded row, an unknown type tag, and a text payload that is not
/// UTF-8. Arbitrary bytes may decode or not, but never panic.
#[test]
fn row_decoder_rejects_malformed_input() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xA580 + case);
        let row = random_row(&mut rng);
        let bytes = Value::encode_row(&row).to_vec();
        for cut in 0..bytes.len() {
            assert!(
                is_corruption(Value::decode_row(&bytes[..cut])),
                "case {case}: prefix of {cut}/{} bytes decoded",
                bytes.len()
            );
        }
        if !row.is_empty() {
            // Byte 2 is the first value's tag; 0, 1 and 2 are the known ones.
            let mut unknown = bytes.clone();
            unknown[2] = rng.random_range(3u8..=255);
            assert!(is_corruption(Value::decode_row(&unknown)), "case {case}");
        }
        let text = format!("x{}", rng.random_range(0u32..1_000));
        let mut invalid = Value::encode_row(&[Value::Text(text)]).to_vec();
        // Header (2), tag (1), length (4): then the payload. 0xFF never
        // occurs in UTF-8.
        let at = rng.random_range(7..invalid.len());
        invalid[at] = 0xFF;
        assert!(is_corruption(Value::decode_row(&invalid)), "case {case}");

        let garbage: Vec<u8> = (0..rng.random_range(0usize..64))
            .map(|_| rng.random_range(0u8..=255))
            .collect();
        let _ = Value::decode_row(&garbage);
    }
}

/// A random short-ish value: small domains so equality, prefix and overlap
/// relations actually occur between independently drawn keys.
fn random_key_value(rng: &mut SmallRng) -> Value {
    match rng.random_range(0u8..4) {
        0 | 1 => Value::Int(rng.random_range(-3i64..3)),
        2 => Value::Float(rng.random_range(0i64..3) as f64 / 2.0),
        _ => Value::Text(
            (0..rng.random_range(0usize..3))
                .map(|_| char::from(rng.random_range(97u8..100)))
                .collect(),
        ),
    }
}

/// The inline (stack) and heap representations of a `Key` are an invisible
/// implementation detail: for the same logical value sequence they must be
/// equal, hash identically, order identically against arbitrary other keys
/// (of either representation), and agree on every prefix/overlap relation
/// the DORA local lock tables rely on.
#[test]
fn key_inline_and_heap_representations_are_equivalent() {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let fingerprint = |key: &Key| {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        hasher.finish()
    };
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xD100 + case);
        let values: Vec<Value> = (0..rng.random_range(0usize..5))
            .map(|_| random_key_value(&mut rng))
            .collect();
        let other_values: Vec<Value> = (0..rng.random_range(0usize..5))
            .map(|_| random_key_value(&mut rng))
            .collect();

        // `from_values` keeps short keys inline; `From<Vec<_>>` adopts the
        // vector, i.e. always heap.
        let inline = Key::from_values(values.clone());
        let heap = Key::from(values.clone());
        assert_eq!(
            inline.is_inline(),
            values.len() <= Key::INLINE_LEN,
            "case {case}"
        );
        assert!(!heap.is_inline(), "case {case}");

        assert_eq!(inline, heap, "case {case}: representations must be equal");
        assert_eq!(inline.values(), values.as_slice(), "case {case}");
        assert_eq!(heap.values(), values.as_slice(), "case {case}");
        assert_eq!(fingerprint(&inline), fingerprint(&heap), "case {case}");
        assert_eq!(inline.cmp(&heap), std::cmp::Ordering::Equal, "case {case}");

        // Relations against an independent key must not depend on either
        // side's representation.
        let other_inline = Key::from_values(other_values.clone());
        let other_heap = Key::from(other_values.clone());
        assert_eq!(
            inline.cmp(&other_inline),
            heap.cmp(&other_heap),
            "case {case}: ordering differs across representations"
        );
        assert_eq!(
            inline.is_prefix_of(&other_inline),
            heap.is_prefix_of(&other_heap),
            "case {case}: prefix relation differs"
        );
        assert_eq!(
            inline.overlaps(&other_inline),
            heap.overlaps(&other_heap),
            "case {case}: overlap relation differs"
        );

        // Prefixes and extensions agree component-wise regardless of the
        // source representation.
        let cut = rng.random_range(0usize..=values.len().max(1));
        assert_eq!(inline.prefix(cut), heap.prefix(cut), "case {case}");
        let extra = random_key_value(&mut rng);
        assert_eq!(
            inline.extend(extra.clone()),
            heap.extend(extra),
            "case {case}"
        );

        // A HashMap keyed by one representation must be probed by the other.
        let mut map = std::collections::HashMap::new();
        map.insert(inline, case);
        assert_eq!(map.get(&heap), Some(&case), "case {case}: map probe");
    }
}
