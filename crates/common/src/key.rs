//! Composite keys and key ranges.
//!
//! A [`Key`] is an ordered tuple of values used for index lookups, routing
//! decisions and DORA action identifiers. DORA's thread-local lock table
//! operates on *key prefixes* (Section 4.1.3: "the locking scheme employed is
//! similar to that of key-prefix locks"), so [`Key`] exposes prefix tests.
//!
//! Keys sit on the executor hot path: every action carries one, every local
//! lock probe compares them and every routing decision reads the leading
//! field. To keep that path allocation-free, short keys (up to
//! [`Key::INLINE_LEN`] components — the overwhelmingly common case: warehouse
//! id, (warehouse, district), subscriber id, counter id) are stored *inline*
//! on the stack; only longer keys spill to a heap vector. The two
//! representations are an invisible implementation detail: equality, hashing
//! and ordering are defined over the logical value sequence, so an inline key
//! and a heap key with the same components are fully interchangeable (there
//! is a property test pinning this down).
//!
//! Indexes do not compare [`Key`]s at all. They store and search each key's
//! *normalized* form ([`Key::normalize`], Graefe's "normalized keys"): a byte
//! string whose plain bytewise order is [`Key::cmp`], so a probe is a run of
//! `memcmp`s over contiguous bytes instead of a walk over `Value` enums. Each
//! component is a one-byte tag ordered like [`Value::cmp`]'s types
//! (Int < Float < Text) and a payload:
//!
//! * Int: 8 big-endian bytes with the sign bit flipped;
//! * Float: the IEEE bits, flipped so unsigned order is `f64::total_cmp`;
//! * Text: the UTF-8 bytes with each NUL escaped as `00 FF`, then `00 00`.
//!
//! Every component is self-delimiting, so a key that is a prefix of another
//! sorts first, as in the lexicographic `Value` order, and keys of different
//! arity share one index. [`Key::from_normalized`] reverses the encoding.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::error::{DbError, DbResult};
use crate::value::Value;

/// Filler for unused inline slots (never observed through the public API).
const FILL: Value = Value::Int(0);

/// Inline capacity; re-exported as [`Key::INLINE_LEN`].
const INLINE_LEN: usize = 2;

/// Internal storage of a [`Key`].
#[derive(Debug, Clone)]
enum Repr {
    /// Up to [`Key::INLINE_LEN`] components stored in place; `len` of them
    /// are live, the rest are [`FILL`].
    Inline { len: u8, slots: [Value; INLINE_LEN] },
    /// Longer keys fall back to a heap vector.
    Heap(Vec<Value>),
}

/// A composite key: an ordered tuple of column values.
#[derive(Debug, Clone)]
pub struct Key(Repr);

impl Key {
    /// Number of components a key stores without heap allocation.
    pub const INLINE_LEN: usize = INLINE_LEN;

    /// The empty key. Used as the identifier of *secondary actions*, whose
    /// responsible executor cannot be determined from the action alone
    /// (Section 4.2.2).
    pub fn empty() -> Self {
        Key(Repr::Inline {
            len: 0,
            slots: [FILL; INLINE_LEN],
        })
    }

    /// Builds a key from anything convertible to values. Stays on the stack
    /// for up to [`Key::INLINE_LEN`] components.
    pub fn from_values<I, V>(values: I) -> Self
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        let mut key = Key::empty();
        for value in values {
            key.push(value);
        }
        key
    }

    /// Single-column integer key, the most common case in the benchmarks.
    pub fn int(v: i64) -> Self {
        Key(Repr::Inline {
            len: 1,
            slots: [Value::Int(v), FILL],
        })
    }

    /// Two-column integer key.
    pub fn int2(a: i64, b: i64) -> Self {
        Key(Repr::Inline {
            len: 2,
            slots: [Value::Int(a), Value::Int(b)],
        })
    }

    /// Three-column integer key.
    pub fn int3(a: i64, b: i64, c: i64) -> Self {
        Key(Repr::Heap(vec![
            Value::Int(a),
            Value::Int(b),
            Value::Int(c),
        ]))
    }

    /// Number of components in the key.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Heap(values) => values.len(),
        }
    }

    /// `true` if the key has no components (a secondary-action identifier).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` if the key is stored inline (no heap allocation). Diagnostics
    /// and tests only — the representation never changes key semantics.
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }

    /// Returns the components.
    pub fn values(&self) -> &[Value] {
        match &self.0 {
            Repr::Inline { len, slots } => &slots[..*len as usize],
            Repr::Heap(values) => values,
        }
    }

    /// Appends a component in place. Spills to the heap only past
    /// [`Key::INLINE_LEN`] components.
    pub fn push(&mut self, value: impl Into<Value>) {
        let value = value.into();
        match &mut self.0 {
            Repr::Inline { len, slots } => {
                let live = *len as usize;
                if live < Self::INLINE_LEN {
                    slots[live] = value;
                    *len += 1;
                } else {
                    let mut values = Vec::with_capacity(live + 1);
                    for slot in slots.iter_mut() {
                        values.push(std::mem::replace(slot, FILL));
                    }
                    values.push(value);
                    self.0 = Repr::Heap(values);
                }
            }
            Repr::Heap(values) => values.push(value),
        }
    }

    /// Returns a new key containing only the first `n` components.
    pub fn prefix(&self, n: usize) -> Key {
        Key::from_values(self.values().iter().take(n).cloned())
    }

    /// Appends a component, returning the extended key.
    pub fn extend(&self, value: impl Into<Value>) -> Key {
        let mut key = self.clone();
        key.push(value);
        key
    }

    /// `true` if `self` is a (non-strict) prefix of `other`.
    pub fn is_prefix_of(&self, other: &Key) -> bool {
        let (a, b) = (self.values(), other.values());
        a.len() <= b.len() && a.iter().zip(b.iter()).all(|(x, y)| x == y)
    }

    /// Key-prefix overlap test: two identifiers cover overlapping record sets
    /// iff one is a prefix of the other (including equality). This is the
    /// conflict test DORA's local lock tables use.
    pub fn overlaps(&self, other: &Key) -> bool {
        self.is_prefix_of(other) || other.is_prefix_of(self)
    }

    /// Bytes [`Self::normalize_into`] writes for this key.
    fn normalized_len(&self) -> usize {
        self.values().iter().map(normalized_value_len).sum()
    }

    /// Writes the key's normalized form into `out`, which must be exactly
    /// [`Self::normalized_len`] bytes long.
    fn normalize_into(&self, out: &mut [u8]) {
        let mut at = 0;
        for value in self.values() {
            at += normalize_value(value, &mut out[at..]);
        }
        debug_assert_eq!(at, out.len());
    }

    /// The key's normalized form: bytes whose bytewise order is this order.
    /// Allocates only past 64 encoded bytes.
    pub fn normalize(&self) -> NormalizedKey {
        let len = self.normalized_len();
        if len <= NORMALIZED_INLINE {
            let mut bytes = [0; NORMALIZED_INLINE];
            self.normalize_into(&mut bytes[..len]);
            NormalizedKey(NormalizedRepr::Inline {
                len: len as u8,
                bytes,
            })
        } else {
            let mut bytes = vec![0; len];
            self.normalize_into(&mut bytes);
            NormalizedKey(NormalizedRepr::Heap(bytes))
        }
    }

    /// Decodes a normalized form back into its key. Allocates what the key
    /// itself needs: nothing for up to [`Key::INLINE_LEN`] numeric
    /// components. Malformed input is [`DbError::Corruption`].
    pub fn from_normalized(mut bytes: &[u8]) -> DbResult<Key> {
        let corrupt = |what: &str| DbError::Corruption(format!("normalized key: {what}"));
        let mut key = Key::empty();
        while let Some((&tag, rest)) = bytes.split_first() {
            match tag {
                TAG_INT | TAG_FLOAT => {
                    let (payload, rest) = rest
                        .split_first_chunk::<8>()
                        .ok_or_else(|| corrupt("truncated number"))?;
                    let bits = u64::from_be_bytes(*payload);
                    key.push(if tag == TAG_INT {
                        Value::Int((bits ^ SIGN) as i64)
                    } else {
                        let raw = if bits & SIGN != 0 { bits ^ SIGN } else { !bits };
                        Value::Float(f64::from_bits(raw))
                    });
                    bytes = rest;
                }
                TAG_TEXT => {
                    let mut text = Vec::new();
                    let mut rest = rest;
                    loop {
                        let nul = rest
                            .iter()
                            .position(|&b| b == 0)
                            .ok_or_else(|| corrupt("unterminated text"))?;
                        text.extend_from_slice(&rest[..nul]);
                        let escape = rest.get(nul + 1).copied();
                        rest = rest.get(nul + 2..).unwrap_or_default();
                        match escape {
                            Some(0) => break,
                            Some(0xFF) => text.push(0),
                            _ => return Err(corrupt("bad text escape")),
                        }
                    }
                    let text = String::from_utf8(text).map_err(|_| corrupt("text is not UTF-8"))?;
                    key.push(Value::Text(text));
                    bytes = rest;
                }
                other => return Err(corrupt(&format!("unknown tag {other}"))),
            }
        }
        Ok(key)
    }

    /// First component interpreted as an integer, if present. Routing rules
    /// frequently partition on the leading routing field.
    pub fn leading_int(&self) -> Option<i64> {
        match self.values().first() {
            Some(Value::Int(v)) => Some(*v),
            _ => None,
        }
    }
}

/// Tag of an Int component in a normalized key.
const TAG_INT: u8 = 1;
/// Tag of a Float component in a normalized key.
const TAG_FLOAT: u8 = 2;
/// Tag of a Text component in a normalized key.
const TAG_TEXT: u8 = 3;
/// Flipping the sign bit turns two's-complement order into unsigned order.
const SIGN: u64 = 1 << 63;

/// Bytes a normalized key keeps inline, without heap allocation: four Int
/// components, or two Ints and a short Text.
const NORMALIZED_INLINE: usize = 64;

/// A key's order-preserving byte encoding (see the module docs), inline up
/// to 64 bytes so encoding a probe key allocates nothing.
pub struct NormalizedKey(NormalizedRepr);

enum NormalizedRepr {
    Inline {
        len: u8,
        bytes: [u8; NORMALIZED_INLINE],
    },
    Heap(Vec<u8>),
}

impl NormalizedKey {
    /// The encoded bytes; their bytewise order is the keys' order.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            NormalizedRepr::Inline { len, bytes } => &bytes[..*len as usize],
            NormalizedRepr::Heap(bytes) => bytes,
        }
    }
}

impl fmt::Debug for NormalizedKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NormalizedKey({:02x?})", self.as_bytes())
    }
}

/// Bytes the normalized form of `value` takes.
fn normalized_value_len(value: &Value) -> usize {
    match value {
        Value::Int(_) | Value::Float(_) => 1 + 8,
        Value::Text(text) => {
            let nuls = text.bytes().filter(|&b| b == 0).count();
            1 + text.len() + nuls + 2
        }
    }
}

/// Writes the normalized form of `value` at the front of `out`, returning the
/// bytes written.
fn normalize_value(value: &Value, out: &mut [u8]) -> usize {
    match value {
        Value::Int(v) => {
            out[0] = TAG_INT;
            out[1..9].copy_from_slice(&((*v as u64) ^ SIGN).to_be_bytes());
            9
        }
        Value::Float(v) => {
            let bits = v.to_bits();
            let ordered = if bits & SIGN != 0 { !bits } else { bits ^ SIGN };
            out[0] = TAG_FLOAT;
            out[1..9].copy_from_slice(&ordered.to_be_bytes());
            9
        }
        Value::Text(text) => {
            out[0] = TAG_TEXT;
            let mut at = 1;
            for chunk in text.as_bytes().split_inclusive(|&b| b == 0) {
                out[at..at + chunk.len()].copy_from_slice(chunk);
                at += chunk.len();
                if chunk.last() == Some(&0) {
                    out[at] = 0xFF;
                    at += 1;
                }
            }
            out[at..at + 2].fill(0);
            at + 2
        }
    }
}

impl Default for Key {
    fn default() -> Self {
        Key::empty()
    }
}

// Equality, hashing and ordering go through `values()` so the inline and
// heap representations of the same logical key are indistinguishable —
// `HashMap<Key, _>` lookups and B-Tree ordering must not depend on how a key
// happened to be built.
impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.values() == other.values()
    }
}

impl Eq for Key {}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.values().hash(state);
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        self.values().cmp(other.values())
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Key {
    /// Adopts the vector as-is (heap representation, no copying). Hot paths
    /// that want short keys inline should build through [`Key::from_values`]
    /// or the `int*` constructors instead.
    fn from(values: Vec<Value>) -> Self {
        Key(Repr::Heap(values))
    }
}

impl FromIterator<Value> for Key {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Key::from_values(iter)
    }
}

/// A half-open range of keys `[low, high)` used for range scans and for
/// describing the dataset assigned to a DORA executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyRange {
    /// Inclusive lower bound; `None` means unbounded below.
    pub low: Option<Key>,
    /// Exclusive upper bound; `None` means unbounded above.
    pub high: Option<Key>,
}

impl KeyRange {
    /// The range covering every key.
    pub fn all() -> Self {
        Self {
            low: None,
            high: None,
        }
    }

    /// Builds `[low, high)`.
    pub fn new(low: Option<Key>, high: Option<Key>) -> Self {
        Self { low, high }
    }

    /// `true` if `key` falls inside the range.
    pub fn contains(&self, key: &Key) -> bool {
        if let Some(low) = &self.low {
            if key < low {
                return false;
            }
        }
        if let Some(high) = &self.high {
            if key >= high {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_relationships() {
        let wh = Key::int(3);
        let wh_di = Key::int2(3, 7);
        let other = Key::int(4);

        assert!(wh.is_prefix_of(&wh_di));
        assert!(!wh_di.is_prefix_of(&wh));
        assert!(wh.overlaps(&wh_di));
        assert!(wh_di.overlaps(&wh));
        assert!(!wh.overlaps(&other));
        assert!(Key::empty().is_prefix_of(&wh));
    }

    #[test]
    fn key_ordering_is_lexicographic() {
        assert!(Key::int2(1, 9) < Key::int2(2, 0));
        assert!(Key::int(1) < Key::int2(1, 0));
        assert!(Key::int2(1, 1) < Key::int2(1, 2));
    }

    #[test]
    fn range_contains() {
        let range = KeyRange::new(Some(Key::int(10)), Some(Key::int(20)));
        assert!(!range.contains(&Key::int(9)));
        assert!(range.contains(&Key::int(10)));
        assert!(range.contains(&Key::int(19)));
        // A composite key (19, x) still sorts below (20).
        assert!(range.contains(&Key::int2(19, 999)));
        assert!(!range.contains(&Key::int(20)));
        assert!(KeyRange::all().contains(&Key::int(-5)));
    }

    #[test]
    fn extend_and_prefix() {
        let key = Key::int(1).extend(2).extend("abc");
        assert_eq!(key.len(), 3);
        assert_eq!(key.prefix(2), Key::int2(1, 2));
        assert_eq!(key.leading_int(), Some(1));
        assert_eq!(Key::empty().leading_int(), None);
    }

    #[test]
    fn short_keys_stay_inline_and_long_keys_spill() {
        assert!(Key::empty().is_inline());
        assert!(Key::int(7).is_inline());
        assert!(Key::int2(7, 8).is_inline());
        assert!(!Key::int3(7, 8, 9).is_inline());
        assert!(Key::int2(7, 8).prefix(1).is_inline());
        assert!(Key::int3(7, 8, 9).prefix(2).is_inline());
        // Pushing past the inline capacity spills without losing components.
        let mut key = Key::int2(1, 2);
        key.push(3);
        assert!(!key.is_inline());
        assert_eq!(key, Key::int3(1, 2, 3));
    }

    #[test]
    fn inline_and_heap_representations_are_interchangeable() {
        use std::collections::hash_map::DefaultHasher;
        let inline = Key::int2(5, 6);
        let heap = Key::from(vec![Value::Int(5), Value::Int(6)]);
        assert!(inline.is_inline());
        assert!(!heap.is_inline());
        assert_eq!(inline, heap);
        assert_eq!(inline.cmp(&heap), Ordering::Equal);
        let hash = |key: &Key| {
            let mut hasher = DefaultHasher::new();
            key.hash(&mut hasher);
            hasher.finish()
        };
        assert_eq!(hash(&inline), hash(&heap));
        let mut map = std::collections::HashMap::new();
        map.insert(inline, 1);
        assert_eq!(map.get(&heap), Some(&1));
    }

    /// A SplitMix64 stream: the property tests below need no RNG crate.
    struct Draws(u64);

    impl Draws {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A value from a small pool that makes ties, prefixes and the
        /// extremes likely: boundary integers, signed zeros, infinities, NaN,
        /// empty text, embedded NULs and non-ASCII text.
        fn value(&mut self) -> Value {
            const INTS: [i64; 7] = [i64::MIN, i64::MIN + 1, -1, 0, 1, 255, i64::MAX];
            const FLOATS: [f64; 8] = [
                f64::NEG_INFINITY,
                -1.5,
                -0.0,
                0.0,
                f64::MIN_POSITIVE,
                2.5,
                f64::INFINITY,
                f64::NAN,
            ];
            const TEXTS: [&str; 9] = [
                "",
                "\0",
                "a",
                "a\0",
                "a\0b",
                "a\u{1}",
                "ab",
                "é",
                "\u{10FFFF}",
            ];
            match self.below(6) {
                0 => Value::Int(INTS[self.below(INTS.len() as u64) as usize]),
                1 => Value::Int(self.next() as i64),
                2 => Value::Float(FLOATS[self.below(FLOATS.len() as u64) as usize]),
                3 => Value::Float(f64::from_bits(self.next())),
                4 => Value::Text(TEXTS[self.below(TEXTS.len() as u64) as usize].into()),
                _ => {
                    let pieces = self.below(4);
                    let text: String = (0..pieces)
                        .map(|_| TEXTS[self.below(TEXTS.len() as u64) as usize])
                        .collect();
                    Value::Text(text)
                }
            }
        }

        fn key(&mut self) -> Key {
            let arity = self.below(5);
            Key::from_values((0..arity).map(|_| self.value()))
        }
    }

    #[test]
    fn normalized_order_is_key_order_and_decodes_back() {
        for seed in 0..20u64 {
            let mut draws = Draws(seed);
            for case in 0..2_000 {
                let (a, mut b) = (draws.key(), draws.key());
                if draws.below(4) == 0 {
                    // Make a prefix pair, the case mixed arity relies on.
                    b = a.extend(draws.value());
                }
                let (na, nb) = (a.normalize(), b.normalize());
                assert_eq!(
                    na.as_bytes().cmp(nb.as_bytes()),
                    a.cmp(&b),
                    "seed {seed} case {case}: {a} vs {b}"
                );
                assert_eq!(na.as_bytes().len(), a.normalized_len());
                let back = Key::from_normalized(na.as_bytes()).unwrap();
                assert_eq!(back, a, "seed {seed} case {case}: {a} did not decode back");
                assert!(
                    back.values()
                        .iter()
                        .zip(a.values())
                        .all(|(x, y)| match (x, y) {
                            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                            _ => true,
                        }),
                    "seed {seed} case {case}: float bits changed in {a}"
                );
            }
        }
    }

    #[test]
    fn normalized_extremes_order_like_values() {
        let ordered = [
            Key::int(i64::MIN),
            Key::int(-1),
            Key::int(0),
            Key::int(i64::MAX),
            Key::from_values([f64::NEG_INFINITY]),
            Key::from_values([-0.0f64]),
            Key::from_values([0.0f64]),
            Key::from_values([f64::INFINITY]),
            Key::from_values([f64::NAN]),
            Key::from_values([""]),
            Key::from_values([""]).extend(0),
            Key::from_values(["\0"]),
            Key::from_values(["a"]),
            Key::from_values(["a\0"]),
            Key::from_values(["a\0b"]),
            Key::from_values(["ab"]),
            Key::from_values(["é"]),
        ];
        for pair in ordered.windows(2) {
            assert!(pair[0] < pair[1], "{} < {}", pair[0], pair[1]);
            assert!(pair[0].normalize().as_bytes() < pair[1].normalize().as_bytes());
        }
        assert_eq!(Key::empty().normalize().as_bytes(), &[] as &[u8]);
        let wide = Key::from_values(["x".repeat(100)]);
        assert_eq!(
            Key::from_normalized(wide.normalize().as_bytes()).unwrap(),
            wide
        );
        for corrupt in [
            &[9u8][..],
            &[TAG_INT, 1, 2],
            &[TAG_TEXT, b'a'],
            &[TAG_TEXT, 0, 7],
        ] {
            assert!(matches!(
                Key::from_normalized(corrupt),
                Err(DbError::Corruption(_))
            ));
        }
    }

    #[test]
    fn collect_builds_inline_keys() {
        let key: Key = vec![Value::Int(1), Value::Int(2)].into_iter().collect();
        assert!(key.is_inline());
        assert_eq!(key, Key::int2(1, 2));
    }
}
