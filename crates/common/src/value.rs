//! The data model: typed column values and rows.
//!
//! The storage manager stores rows as byte strings inside slotted pages, so
//! [`Value`] carries its own compact serialization (`encode`/`decode`)
//! in little-endian byte order. The encoding is not meant to be portable; it
//! only has to round-trip within one process, like Shore-MT's record format.
//!
//! The codec copies nothing it does not return. [`Value::decode_row`] reads
//! a borrowed `&[u8]` (the storage manager hands it the record in place,
//! under the page latch), so decoding a row costs the row's `Vec` plus one
//! `String` per text value. [`Value::encode_row`] sizes its buffer
//! exactly, so encoding costs one allocation.

use std::cmp::Ordering;
use std::fmt;

use crate::error::{DbError, DbResult};

/// The type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float (used for balances / amounts).
    Float,
    /// Variable-length UTF-8 string.
    Text,
}

/// A single column value.
#[derive(Debug, Clone)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float.
    Float(f64),
    /// Variable-length UTF-8 string.
    Text(String),
}

/// The first `N` bytes of `buf`, which then starts past them; `Corruption`
/// with `what` if it holds fewer.
fn take<const N: usize>(buf: &mut &[u8], what: &str) -> DbResult<[u8; N]> {
    let (head, rest) = buf
        .split_first_chunk::<N>()
        .ok_or_else(|| DbError::Corruption(what.into()))?;
    *buf = rest;
    Ok(*head)
}

/// A row is simply an ordered list of values matching the table schema.
pub type Row = Vec<Value>;

impl Value {
    /// Returns the type tag of this value.
    pub fn value_type(&self) -> ValueType {
        match self {
            Value::Int(_) => ValueType::Int,
            Value::Float(_) => ValueType::Float,
            Value::Text(_) => ValueType::Text,
        }
    }

    /// Extracts an integer, failing with [`DbError::TypeMismatch`] otherwise.
    pub fn as_int(&self) -> DbResult<i64> {
        match self {
            Value::Int(v) => Ok(*v),
            other => Err(DbError::TypeMismatch {
                expected: ValueType::Int,
                found: other.value_type(),
            }),
        }
    }

    /// Extracts a float. Integers are widened to floats for convenience,
    /// which keeps workload code that mixes amounts and counters simple.
    pub fn as_float(&self) -> DbResult<f64> {
        match self {
            Value::Float(v) => Ok(*v),
            Value::Int(v) => Ok(*v as f64),
            other => Err(DbError::TypeMismatch {
                expected: ValueType::Float,
                found: other.value_type(),
            }),
        }
    }

    /// Serializes the value onto `buf` using a one-byte type tag followed by
    /// the payload.
    pub(crate) fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Value::Int(v) => {
                buf.push(0);
                buf.extend_from_slice(&v.to_le_bytes());
            }
            Value::Float(v) => {
                buf.push(1);
                buf.extend_from_slice(&v.to_le_bytes());
            }
            Value::Text(v) => {
                buf.push(2);
                buf.extend_from_slice(&(v.len() as u32).to_le_bytes());
                buf.extend_from_slice(v.as_bytes());
            }
        }
    }

    /// Bytes [`Self::encode`] writes for this value.
    fn encoded_len(&self) -> usize {
        match self {
            Value::Int(_) | Value::Float(_) => 1 + 8,
            Value::Text(v) => 1 + 4 + v.len(),
        }
    }

    /// Deserializes one value from the front of `buf`, advancing it past
    /// the value. Borrows nothing: only a text payload is copied, into the
    /// value's own `String`.
    pub(crate) fn decode(buf: &mut &[u8]) -> DbResult<Value> {
        let (&tag, rest) = buf
            .split_first()
            .ok_or_else(|| DbError::Corruption("truncated value: missing type tag".into()))?;
        *buf = rest;
        match tag {
            0 => Ok(Value::Int(i64::from_le_bytes(take(
                buf,
                "truncated int value",
            )?))),
            1 => Ok(Value::Float(f64::from_le_bytes(take(
                buf,
                "truncated float value",
            )?))),
            2 => {
                let len = u32::from_le_bytes(take(buf, "truncated text length")?) as usize;
                if buf.len() < len {
                    return Err(DbError::Corruption("truncated text payload".into()));
                }
                let (raw, rest) = buf.split_at(len);
                let text = std::str::from_utf8(raw)
                    .map_err(|_| DbError::Corruption("text value is not valid UTF-8".into()))?;
                *buf = rest;
                Ok(Value::Text(text.to_owned()))
            }
            other => Err(DbError::Corruption(format!("unknown value tag {other}"))),
        }
    }

    /// Serializes a whole row (a length-prefixed sequence of values) into
    /// an exactly sized `Vec`: the one allocation a row image costs. The
    /// write path moves it into the log record it describes.
    pub fn encode_row(row: &[Value]) -> Vec<u8> {
        let len = 2 + row.iter().map(Value::encoded_len).sum::<usize>();
        let mut buf = Vec::with_capacity(len);
        buf.extend_from_slice(&(row.len() as u16).to_le_bytes());
        for value in row {
            value.encode(&mut buf);
        }
        debug_assert_eq!(buf.len(), len);
        buf
    }

    /// Deserializes a whole row previously produced by [`Value::encode_row`],
    /// straight from `bytes` (typically a record still on its latched page):
    /// it allocates the row and one `String` per text value, nothing else.
    /// Malformed input is [`DbError::Corruption`], never a panic.
    pub fn decode_row(mut bytes: &[u8]) -> DbResult<Row> {
        let count = u16::from_le_bytes(take(&mut bytes, "truncated row header")?) as usize;
        // The smallest value (an empty text) takes 5 bytes, so a corrupt
        // count cannot reserve more than the input could hold.
        let mut row = Vec::with_capacity(count.min(bytes.len() / 5));
        for _ in 0..count {
            row.push(Value::decode(&mut bytes)?);
        }
        Ok(row)
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order across values.
    ///
    /// Values of different types order by type tag (Int < Float < Text);
    /// floats use IEEE total ordering so the order is indeed total. The
    /// B-Tree and the DORA routing rules rely on this being a total order.
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Text(a), Text(b)) => a.cmp(b),
            (Int(_), _) => Ordering::Less,
            (_, Int(_)) => Ordering::Greater,
            (Float(_), _) => Ordering::Less,
            (_, Float(_)) => Ordering::Greater,
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Int(v) => {
                0u8.hash(state);
                v.hash(state);
            }
            Value::Float(v) => {
                1u8.hash(state);
                v.to_bits().hash(state);
            }
            Value::Text(v) => {
                2u8.hash(state);
                v.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Text(v) => write!(f, "{v:?}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_encode_decode_roundtrip() {
        let row: Row = vec![
            Value::Int(42),
            Value::Float(3.25),
            Value::Text("hello world".into()),
            Value::Int(-1),
        ];
        let bytes = Value::encode_row(&row);
        let decoded = Value::decode_row(&bytes).unwrap();
        assert_eq!(decoded, row);
    }

    /// The heap and the log store rows in this format: a changed byte here
    /// changes both.
    #[test]
    fn encode_row_writes_the_pinned_format() {
        let row: Row = vec![Value::Int(-2), Value::Float(1.5), Value::Text("ab".into())];
        let expected: &[u8] = &[
            3, 0, // value count, u16 LE
            0, 0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, // Int tag, i64 LE
            1, 0, 0, 0, 0, 0, 0, 0xF8, 0x3F, // Float tag, f64 LE
            2, 2, 0, 0, 0, b'a', b'b', // Text tag, u32 LE length, UTF-8
        ];
        assert_eq!(Value::encode_row(&row), expected);
        assert_eq!(Value::decode_row(expected).unwrap(), row);
    }

    #[test]
    fn empty_row_roundtrip() {
        let row: Row = vec![];
        let decoded = Value::decode_row(&Value::encode_row(&row)).unwrap();
        assert!(decoded.is_empty());
    }

    #[test]
    fn decode_rejects_truncated_input() {
        let row: Row = vec![Value::Text("abcdef".into())];
        let bytes = Value::encode_row(&row);
        let truncated = &bytes[..bytes.len() - 2];
        assert!(matches!(
            Value::decode_row(truncated),
            Err(DbError::Corruption(_))
        ));
    }

    #[test]
    fn decode_rejects_unknown_tag() {
        let bytes = vec![1u8, 0u8, 9u8];
        assert!(matches!(
            Value::decode_row(&bytes),
            Err(DbError::Corruption(_))
        ));
    }

    #[test]
    fn ordering_is_total_across_types() {
        assert!(Value::Int(5) < Value::Float(1.0));
        assert!(Value::Float(9.0) < Value::Text("a".into()));
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::Text("a".into()) < Value::Text("b".into()));
    }

    #[test]
    fn accessors_enforce_types() {
        assert_eq!(Value::Int(3).as_int().unwrap(), 3);
        assert_eq!(Value::Int(3).as_float().unwrap(), 3.0);
        assert!(Value::Text("x".into()).as_int().is_err());
    }

    #[test]
    fn float_hash_uses_bit_pattern() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Value::Float(1.5));
        assert!(set.contains(&Value::Float(1.5)));
        assert!(!set.contains(&Value::Float(2.5)));
    }
}
