//! Offline drop-in replacement for the subset of the `bytes` crate used by
//! this workspace: a cheaply cloneable, sliceable byte buffer ([`Bytes`]), a
//! growable builder ([`BytesMut`]), and little-endian cursor traits
//! ([`Buf`], [`BufMut`]).
//!
//! The build environment has no access to crates.io, so the workspace
//! resolves `bytes` to this path crate. `Bytes` shares one allocation across
//! clones and slices (an `Arc<Vec<u8>>` plus a window), like the real crate,
//! and takes a `Vec<u8>` — a frozen [`BytesMut`] too — without copying it;
//! only the API surface the workspace exercises is provided.

use std::ops::{Deref, RangeBounds};
use std::sync::Arc;

/// Cheaply cloneable immutable byte buffer: a shared allocation plus a
/// `[start, end)` window.
///
/// The allocation is the `Vec<u8>` the buffer was made from, moved behind
/// an `Arc` as it is — its bytes stay where they were written. `None` is the
/// empty buffer, which owns nothing.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Option<Arc<Vec<u8>>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer (no allocation).
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// Borrow a `'static` slice without copying.
    pub fn from_static(s: &'static [u8]) -> Bytes {
        // One copy into a fresh allocation; the real crate avoids it, but
        // behaviour is identical and the workspace only uses this for tiny
        // literals.
        Bytes::from(s.to_vec())
    }

    /// Copy a slice into a fresh buffer.
    pub fn copy_from_slice(s: &[u8]) -> Bytes {
        Bytes::from(s.to_vec())
    }

    /// Length of the visible window.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Is the visible window empty?
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-window sharing the same allocation.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        use std::ops::Bound;
        let len = self.len();
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(lo <= hi && hi <= len, "slice {lo}..{hi} out of range {len}");
        Bytes {
            data: self.data.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Split off and return the first `at` bytes, advancing `self` past
    /// them. Shares the allocation.
    ///
    /// # Panics
    ///
    /// Panics if `at > self.len()`.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(
            at <= self.len(),
            "split_to {at} out of range {}",
            self.len()
        );
        let head = Bytes {
            data: self.data.clone(),
            start: self.start,
            end: self.start + at,
        };
        self.start += at;
        head
    }

    /// Copy the visible window out into a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.data {
            Some(v) => &v[self.start..self.end],
            None => &[],
        }
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

/// Takes the vector as it is: no copy, and its spare capacity stays with it.
impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes {
            data: Some(Arc::new(v)),
            start: 0,
            end,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Bytes {
        Bytes::from_static(s)
    }
}

impl<const N: usize> From<&'static [u8; N]> for Bytes {
    fn from(s: &'static [u8; N]) -> Bytes {
        Bytes::from_static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Bytes {
        Bytes::from_static(s.as_bytes())
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from(s.into_bytes())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &self[..] == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        &self[..] == *other
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self[..].cmp(&other[..])
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state)
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.to_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self[..].iter()
    }
}

/// Growable byte builder; [`BytesMut::freeze`] converts to [`Bytes`]
/// without copying.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty builder.
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// An empty builder with reserved capacity.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Nothing written yet?
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Append a slice.
    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.data.extend_from_slice(s);
    }

    /// Convert to an immutable [`Bytes`] (no copy).
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

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BytesMut({} bytes)", self.data.len())
    }
}

/// Read cursor over a byte source (little-endian getters as used by the
/// workspace codecs). Getters panic when under-running, like the real
/// crate; callers bounds-check with [`Buf::remaining`] first.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// The unread bytes.
    fn chunk(&self) -> &[u8];
    /// Skip `n` bytes.
    fn advance(&mut self, n: usize);

    /// Read one byte.
    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    /// Read a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16 {
        let v = u16::from_le_bytes(self.chunk()[..2].try_into().unwrap());
        self.advance(2);
        v
    }

    /// Read a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let v = u32::from_le_bytes(self.chunk()[..4].try_into().unwrap());
        self.advance(4);
        v
    }

    /// Read a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let v = u64::from_le_bytes(self.chunk()[..8].try_into().unwrap());
        self.advance(8);
        v
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance {n} past end {}", self.len());
        self.start += n;
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }
}

/// Write cursor (little-endian putters as used by the workspace codecs).
pub trait BufMut {
    /// Append a slice.
    fn put_slice(&mut self, s: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, s: &[u8]) {
        self.data.extend_from_slice(s);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_le() {
        let mut out = BytesMut::with_capacity(16);
        out.put_u8(7);
        out.put_u16_le(0x0102);
        out.put_u32_le(0x03040506);
        out.put_u64_le(0x0708090a0b0c0d0e);
        out.put_slice(b"xy");
        let mut b = out.freeze();
        assert_eq!(b.len(), 17);
        assert_eq!(b.get_u8(), 7);
        assert_eq!(b.get_u16_le(), 0x0102);
        assert_eq!(b.get_u32_le(), 0x03040506);
        assert_eq!(b.get_u64_le(), 0x0708090a0b0c0d0e);
        assert_eq!(&b[..], b"xy");
    }

    #[test]
    fn slice_and_split_share_window() {
        let b = Bytes::from_static(b"hello world");
        let base = b.as_ptr() as usize;
        let w = b.slice(6..);
        assert_eq!(&w[..], b"world");
        assert_eq!(w.as_ptr() as usize, base + 6, "same allocation");
        assert_eq!(b.slice(2..4).slice(1..).as_ptr() as usize, base + 3);
        let mut rest = b.clone();
        let head = rest.split_to(5);
        assert_eq!(&head[..], b"hello");
        assert_eq!(&rest[..], b" world");
        assert_eq!(head.as_ptr() as usize, base);
        assert_eq!(rest.as_ptr() as usize, base + 5);
        assert_eq!(b.len(), 11, "original untouched");
    }

    #[test]
    fn eq_and_ord_on_window_not_backing() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        fn hash(b: &Bytes) -> u64 {
            let mut h = DefaultHasher::new();
            b.hash(&mut h);
            h.finish()
        }
        let a = Bytes::from_static(b"xab");
        let b = Bytes::from_static(b"yab");
        assert_eq!(a.slice(1..), b.slice(1..));
        assert_eq!(hash(&a.slice(1..)), hash(&b.slice(1..)));
        assert_eq!(hash(&a.slice(1..)), hash(&Bytes::copy_from_slice(b"ab")));
        assert!(a < b);
        // Bytes outside the window never decide an order.
        let (lo, hi) = (Bytes::from_static(b"zka"), Bytes::from_static(b"akb"));
        assert!(lo.slice(1..) < hi.slice(1..));
    }

    #[test]
    #[should_panic(expected = "split_to")]
    fn split_past_end_panics() {
        Bytes::from_static(b"ab").split_to(3);
    }

    #[test]
    fn freeze_and_from_vec_keep_the_bytes_where_they_were_written() {
        let mut out = BytesMut::with_capacity(8);
        out.put_slice(b"frozen");
        let at = out.as_ptr();
        assert_eq!(out.freeze().as_ptr(), at);
        let v = b"moved".to_vec();
        let at = v.as_ptr();
        assert_eq!(Bytes::from(v).as_ptr(), at);
    }

    #[test]
    fn the_empty_buffer_owns_nothing() {
        let e = Bytes::new();
        assert!(e.data.is_none());
        assert!(e.is_empty());
        assert_eq!(&e[..], b"");
        assert_eq!(e.slice(..), Bytes::copy_from_slice(b""));
        assert_eq!(e.clone().split_to(0).len(), 0);
    }

    #[test]
    fn debug_escapes() {
        let b = Bytes::from_static(b"a\x00");
        assert_eq!(format!("{b:?}"), "b\"a\\x00\"");
    }
}
