//! Offline shim for the subset of the `bytes` crate this workspace uses.
//!
//! The build environment has no network access, so the real crate cannot be
//! fetched. [`Bytes`] is a cheaply-cloneable view over shared immutable
//! storage (`Arc<[u8]>` plus a window), [`BytesMut`] a growable buffer that
//! freezes into one, and [`Buf`]/[`BufMut`] provide the little-endian
//! cursor-style accessors the record format uses.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply-cloneable, sliceable chunk of immutable bytes.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates an empty `Bytes`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies `slice` into a new `Bytes`: one allocation, the shared
    /// storage itself.
    pub fn copy_from_slice(slice: &[u8]) -> Self {
        Self {
            data: Arc::from(slice),
            start: 0,
            end: slice.len(),
        }
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` if the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Splits off and returns the first `at` bytes, advancing `self` past
    /// them. Both views keep sharing the same underlying storage.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_to out of bounds");
        let head = Bytes {
            data: Arc::clone(&self.data),
            start: self.start,
            end: self.start + at,
        };
        self.start += at;
        head
    }

    /// Copies the view into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        let end = data.len();
        Self {
            data: data.into(),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(slice: &[u8]) -> Self {
        Self::copy_from_slice(slice)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({:?})", self.as_slice())
    }
}

/// A growable byte buffer that freezes into [`Bytes`].
#[derive(Debug, Default, Clone)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty buffer with at least `capacity` bytes reserved.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            data: Vec::with_capacity(capacity),
        }
    }

    /// Length of the buffered data.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Converts the buffer into an immutable [`Bytes`]: one allocation for
    /// the shared storage, and the buffer's own is freed.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

/// Cursor-style read access to a byte buffer.
pub trait Buf {
    /// Bytes remaining to be read.
    fn remaining(&self) -> usize;

    /// The unread portion of the buffer.
    fn chunk(&self) -> &[u8];

    /// Advances the cursor by `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Copies `dst.len()` bytes out of the buffer, advancing past them.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Reads a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }

    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    /// Reads a little-endian `i64`.
    fn get_i64_le(&mut self) -> i64 {
        self.get_u64_le() as i64
    }

    /// Reads a little-endian `f64`.
    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance out of bounds");
        *self = &self[cnt..];
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance out of bounds");
        self.start += cnt;
    }
}

/// Append-style write access to a byte buffer.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    fn put_i64_le(&mut self, v: i64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f64`.
    fn put_f64_le(&mut self, v: f64) {
        self.put_slice(&v.to_bits().to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_accessors() {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u8(7);
        buf.put_u16_le(300);
        buf.put_u32_le(70_000);
        buf.put_i64_le(-42);
        buf.put_f64_le(3.5);
        buf.put_slice(b"tail");
        let mut bytes = buf.freeze();
        assert_eq!(bytes.remaining(), 1 + 2 + 4 + 8 + 8 + 4);
        assert_eq!(bytes.get_u8(), 7);
        assert_eq!(bytes.get_u16_le(), 300);
        assert_eq!(bytes.get_u32_le(), 70_000);
        assert_eq!(bytes.get_i64_le(), -42);
        assert_eq!(bytes.get_f64_le(), 3.5);
        assert_eq!(bytes.as_ref(), b"tail");
    }

    #[test]
    fn split_to_shares_storage_and_advances() {
        let mut bytes = Bytes::copy_from_slice(b"hello world");
        let head = bytes.split_to(5);
        assert_eq!(head.as_ref(), b"hello");
        assert_eq!(bytes.as_ref(), b" world");
        assert_eq!(head.to_vec(), b"hello".to_vec());
    }

    #[test]
    fn deref_supports_slicing() {
        let bytes = Bytes::copy_from_slice(b"abcdef");
        assert_eq!(&bytes[..3], b"abc");
        assert_eq!(bytes.len(), 6);
        assert!(!bytes.is_empty());
    }

    #[test]
    fn clone_is_a_view() {
        let bytes = Bytes::copy_from_slice(b"shared");
        let clone = bytes.clone();
        assert_eq!(bytes, clone);
    }

    #[test]
    fn copies_and_freezes_equal_their_input() {
        for input in [&b""[..], b"x", b"a longer run of bytes \x00\xff"] {
            assert_eq!(Bytes::copy_from_slice(input).as_ref(), input);
            let mut buf = BytesMut::new();
            buf.put_slice(input);
            assert_eq!(buf.freeze().as_ref(), input);
        }
    }

    #[test]
    fn a_slice_is_a_cursor() {
        let data = [1u8, 0, 2, 0, 0, 0];
        let mut cursor = &data[..];
        assert_eq!(cursor.get_u16_le(), 1);
        assert_eq!(cursor.remaining(), 4);
        assert_eq!(cursor.get_u32_le(), 2);
        assert!(cursor.is_empty());
    }

    #[test]
    #[should_panic(expected = "buffer underflow")]
    fn reading_past_the_end_panics() {
        let mut bytes = Bytes::copy_from_slice(&[1]);
        let _ = bytes.get_u32_le();
    }
}
