//! The byte codec every wire format above this crate is written in: one
//! sink that measures a writer, and one set of checked readers.
//!
//! A format is described twice, as its writer and as its reader, and never
//! a third time. Its length is its writer run against a [`Counter`]
//! ([`counted`]), so no function predicts by hand what the writer writes
//! and a buffer sized by it is the frame. Its reader takes every field
//! through [`Reader`], whose reads fail with [`Truncated`] when the input
//! ends first: no decoder checks a length ahead of a read, and none reaches
//! a `Buf::get_*`, which panics on a short input.
//!
//! ```
//! use bytes::{BufMut, Bytes, BytesMut};
//! use samoa_net::codec::{counted, put_bytes, Reader, Truncated};
//!
//! fn put(out: &mut impl BufMut) {
//!     out.put_u16_le(7);
//!     put_bytes(out, b"abc");
//! }
//! let mut out = BytesMut::with_capacity(counted(put));
//! put(&mut out);
//! assert_eq!(out.len(), 2 + 4 + 3);
//! let mut buf = out.freeze();
//! assert_eq!(buf.u16(), Ok(7));
//! assert_eq!(buf.bytes(), Ok(Bytes::from_static(b"abc")));
//! assert_eq!(buf.u8(), Err(Truncated));
//! ```

use bytes::{Buf, BufMut, Bytes};

/// A [`BufMut`] that keeps no byte and counts the bytes it is given.
#[derive(Debug)]
pub struct Counter(usize);

impl BufMut for Counter {
    #[inline]
    fn put_slice(&mut self, s: &[u8]) {
        self.0 += s.len();
    }
}

/// How many bytes `write` writes: `write` run against a [`Counter`].
pub fn counted(write: impl FnOnce(&mut Counter)) -> usize {
    let mut sink = Counter(0);
    write(&mut sink);
    sink.0
}

/// Write `b` as a byte string: its length as a little-endian `u32`, then
/// its bytes. [`Reader::bytes`] reads it back.
pub fn put_bytes(out: &mut impl BufMut, b: &[u8]) {
    out.put_u32_le(b.len() as u32);
    out.put_slice(b);
}

/// A read ran past the end of its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncated;

/// Checked little-endian reads off the front of a buffer. A read whose
/// bytes are not all there fails with [`Truncated`]; a decoder stops at its
/// first failed read. The reads are `#[inline]`: without it each read is a
/// call across crates, which a decoder of a dozen fields pays a dozen
/// times.
pub trait Reader {
    /// One byte.
    fn u8(&mut self) -> Result<u8, Truncated>;
    /// A little-endian `u16`.
    fn u16(&mut self) -> Result<u16, Truncated>;
    /// A little-endian `u32`.
    fn u32(&mut self) -> Result<u32, Truncated>;
    /// A little-endian `u64`.
    fn u64(&mut self) -> Result<u64, Truncated>;
    /// A byte string as [`put_bytes`] writes it, as a window on the input
    /// rather than a copy of it.
    fn bytes(&mut self) -> Result<Bytes, Truncated>;
    /// A `u32` count of items that each take at least `least` bytes,
    /// believed only if the bytes left could hold that many: a caller may
    /// reserve room for the count it returns, and a forged count reserves
    /// nothing. `least` is at least 1.
    fn count(&mut self, least: usize) -> Result<usize, Truncated>;
}

/// The first `N` bytes of `buf`, taken off it.
fn array<const N: usize>(buf: &mut Bytes) -> Result<[u8; N], Truncated> {
    let head = buf
        .get(..N)
        .and_then(|s| <[u8; N]>::try_from(s).ok())
        .ok_or(Truncated)?;
    buf.advance(N);
    Ok(head)
}

impl Reader for Bytes {
    #[inline]
    fn u8(&mut self) -> Result<u8, Truncated> {
        array(self).map(u8::from_le_bytes)
    }

    #[inline]
    fn u16(&mut self) -> Result<u16, Truncated> {
        array(self).map(u16::from_le_bytes)
    }

    #[inline]
    fn u32(&mut self) -> Result<u32, Truncated> {
        array(self).map(u32::from_le_bytes)
    }

    #[inline]
    fn u64(&mut self) -> Result<u64, Truncated> {
        array(self).map(u64::from_le_bytes)
    }

    #[inline]
    fn bytes(&mut self) -> Result<Bytes, Truncated> {
        let len = self.u32()? as usize;
        if self.len() < len {
            return Err(Truncated);
        }
        Ok(self.split_to(len))
    }

    #[inline]
    fn count(&mut self, least: usize) -> Result<usize, Truncated> {
        let n = self.u32()? as usize;
        if n > self.len() / least {
            return Err(Truncated);
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_count_is_believed_only_up_to_the_bytes_left() {
        let counted = |n: u32, left: usize| {
            let mut out = n.to_le_bytes().to_vec();
            out.resize(4 + left, 0);
            Bytes::from(out).count(3)
        };
        assert_eq!(counted(0, 0), Ok(0));
        assert_eq!(counted(2, 6), Ok(2));
        assert_eq!(counted(3, 8), Err(Truncated));
        assert_eq!(counted(u32::MAX, 64), Err(Truncated));
        assert_eq!(Bytes::from_static(&[1, 0]).count(1), Err(Truncated));
    }
}
