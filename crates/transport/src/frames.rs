//! Transport frames and their wire codec, with a checksum trailer.
//!
//! The checksum is FNV-1a over the body taken as little-endian `u32` words
//! (a byte at a time for the last `len % 4` bytes), appended as a
//! little-endian `u32`. Each step — xor a word into the state, multiply by
//! the odd FNV prime — is a bijection of the state for a given word and
//! maps different words to different states, so a body that differs from
//! the one sent in a single word, every single flipped bit among them (the
//! fault `samoa-net` injects), ends in a different digest: what the
//! Checksum microprotocol detects. A word at a time is a quarter of the
//! multiplications of the byte-wise hash.

use bytes::{BufMut, Bytes, BytesMut};
use samoa_net::codec::{counted, put_bytes, Reader, Truncated};

/// A transport frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// One fragment of a message.
    Data {
        /// Per-sender message number.
        msg_id: u64,
        /// Fragment index within the message.
        frag_idx: u32,
        /// Total fragments of the message.
        frag_total: u32,
        /// Sliding-window sequence number (per sender→receiver channel).
        seq: u64,
        /// Fragment payload.
        payload: Bytes,
    },
    /// Acknowledgement of `seq`.
    Ack {
        /// The acknowledged sequence number.
        seq: u64,
    },
}

/// Frame-kind tag, readable without validating the checksum (real network
/// stacks classify on the header before verifying the payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A data fragment.
    Data,
    /// An ack.
    Ack,
}

/// Decode failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Not enough bytes.
    Truncated,
    /// Unknown kind tag.
    BadTag(u8),
    /// Checksum mismatch — the frame was corrupted in transit.
    Checksum,
    /// Bytes after the frame's last field.
    Trailing,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::BadTag(t) => write!(f, "unknown frame tag {t}"),
            FrameError::Checksum => write!(f, "checksum mismatch"),
            FrameError::Trailing => write!(f, "bytes after the frame's last field"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<Truncated> for FrameError {
    fn from(_: Truncated) -> FrameError {
        FrameError::Truncated
    }
}

/// The checksum trailer.
const TRAILER: usize = 4;

/// FNV-1a over `bytes` as little-endian `u32` words, then the tail's bytes
/// (module docs).
fn fnv1a(bytes: &[u8]) -> u32 {
    let step = |h: u32, x: u32| (h ^ x).wrapping_mul(0x0100_0193);
    let words = bytes.chunks_exact(4);
    let tail = words.remainder();
    let h = words.fold(0x811c_9dc5, |h, w| {
        step(h, u32::from_le_bytes([w[0], w[1], w[2], w[3]]))
    });
    tail.iter().fold(h, |h, &b| step(h, u32::from(b)))
}

impl Frame {
    /// Sequence number of the frame.
    pub fn seq(&self) -> u64 {
        match self {
            Frame::Data { seq, .. } => *seq,
            Frame::Ack { seq } => *seq,
        }
    }

    /// Encode body + checksum trailer, into a buffer of exactly that size:
    /// the body's writer run against a counting sink, plus the trailer.
    pub fn encode(&self) -> Bytes {
        let mut out = BytesMut::with_capacity(counted(|sink| self.put_body(sink)) + TRAILER);
        self.put_body(&mut out);
        let digest = fnv1a(&out);
        out.put_u32_le(digest);
        out.freeze()
    }

    fn put_body(&self, out: &mut impl BufMut) {
        match self {
            Frame::Data {
                msg_id,
                frag_idx,
                frag_total,
                seq,
                payload,
            } => {
                out.put_u8(0);
                out.put_u64_le(*msg_id);
                out.put_u32_le(*frag_idx);
                out.put_u32_le(*frag_total);
                out.put_u64_le(*seq);
                put_bytes(out, payload);
            }
            Frame::Ack { seq } => {
                out.put_u8(1);
                out.put_u64_le(*seq);
            }
        }
    }

    /// Peek the frame kind without checksum validation.
    pub fn peek_kind(bytes: &[u8]) -> Option<FrameKind> {
        match bytes.first() {
            Some(0) => Some(FrameKind::Data),
            Some(1) => Some(FrameKind::Ack),
            _ => None,
        }
    }

    /// Validate the checksum and decode: the body must be one frame, its
    /// last field where the body ends.
    pub fn decode(mut buf: Bytes) -> Result<Frame, FrameError> {
        if buf.len() <= TRAILER {
            return Err(FrameError::Truncated);
        }
        let mut body = buf.split_to(buf.len() - TRAILER);
        if fnv1a(&body) != buf.u32()? {
            return Err(FrameError::Checksum);
        }
        let frame = match body.u8()? {
            0 => Frame::Data {
                msg_id: body.u64()?,
                frag_idx: body.u32()?,
                frag_total: body.u32()?,
                seq: body.u64()?,
                payload: body.bytes()?,
            },
            1 => Frame::Ack { seq: body.u64()? },
            t => return Err(FrameError::BadTag(t)),
        };
        body.is_empty().then_some(frame).ok_or(FrameError::Trailing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A data frame's bytes before its payload: tag, msg id, fragment index
    /// and total, sequence number, payload length. An oracle for the writer,
    /// which the codec itself never consults: it counts what `put_body`
    /// writes.
    const DATA_HEADER: usize = 1 + 8 + 4 + 4 + 8 + 4;
    /// An ack's body: tag and sequence number.
    const ACK_BODY: usize = 1 + 8;

    #[test]
    fn roundtrip_data_and_ack() {
        for f in [
            Frame::Data {
                msg_id: 3,
                frag_idx: 1,
                frag_total: 4,
                seq: 99,
                payload: Bytes::from_static(b"chunk"),
            },
            Frame::Data {
                msg_id: 0,
                frag_idx: 0,
                frag_total: 1,
                seq: 0,
                payload: Bytes::new(),
            },
            Frame::Ack { seq: 7 },
        ] {
            let enc = f.encode();
            assert_eq!(Frame::decode(enc).unwrap(), f);
        }
    }

    /// The buffer `encode` sizes up front is the frame: nothing is appended
    /// beyond it, so it never grows.
    #[test]
    fn encode_sizes_its_buffer_exactly() {
        for len in [0, 1, 256, 1500] {
            let f = Frame::Data {
                msg_id: 1,
                frag_idx: 2,
                frag_total: 3,
                seq: 4,
                payload: Bytes::from(vec![7u8; len]),
            };
            assert_eq!(f.encode().len(), DATA_HEADER + len + TRAILER);
        }
        assert_eq!(Frame::Ack { seq: 9 }.encode().len(), ACK_BODY + TRAILER);
    }

    #[test]
    fn peek_kind_matches() {
        let d = Frame::Data {
            msg_id: 1,
            frag_idx: 0,
            frag_total: 1,
            seq: 1,
            payload: Bytes::from_static(b"x"),
        }
        .encode();
        assert_eq!(Frame::peek_kind(&d), Some(FrameKind::Data));
        let a = Frame::Ack { seq: 1 }.encode();
        assert_eq!(Frame::peek_kind(&a), Some(FrameKind::Ack));
        assert_eq!(Frame::peek_kind(&[9]), None);
        assert_eq!(Frame::peek_kind(&[]), None);
    }

    /// Every bit of a data frame — with a payload that leaves a tail of
    /// bytes after the last whole word — and of an ack, flipped one at a
    /// time: each flip is refused as a checksum mismatch, trailer bits
    /// included, before any field is read.
    #[test]
    fn any_single_bit_flip_is_caught() {
        let data = Frame::Data {
            msg_id: 5,
            frag_idx: 2,
            frag_total: 3,
            seq: 11,
            payload: Bytes::from_static(b"payload bytes"),
        };
        for f in [
            data,
            Frame::Ack {
                seq: 0x0102_0304_0506_0708,
            },
        ] {
            let enc = f.encode();
            for i in 0..enc.len() {
                for bit in 0..8 {
                    let mut bytes = enc.to_vec();
                    bytes[i] ^= 1 << bit;
                    assert_eq!(
                        Frame::decode(Bytes::from(bytes)),
                        Err(FrameError::Checksum),
                        "{f:?}: flip at byte {i} bit {bit}"
                    );
                }
            }
        }
    }

    /// The word-wise hash is FNV-1a's step over words: a body of whole
    /// words reads them little-endian, a tail byte by byte.
    #[test]
    fn fnv1a_steps_over_words_then_tail_bytes() {
        let step = |h: u32, x: u32| (h ^ x).wrapping_mul(0x0100_0193);
        let basis = 0x811c_9dc5;
        assert_eq!(fnv1a(&[]), basis);
        assert_eq!(fnv1a(&[1, 2, 3, 4]), step(basis, 0x0403_0201));
        assert_eq!(
            fnv1a(&[1, 2, 3, 4, 5, 6]),
            step(step(step(basis, 0x0403_0201), 5), 6)
        );
    }

    /// A frame is exactly what its writer wrote: an ack body with one byte
    /// more, under a checksum that covers it, is refused.
    #[test]
    fn bytes_after_the_last_field_are_refused() {
        let mut body = vec![1];
        body.extend_from_slice(&7u64.to_le_bytes());
        body.push(0xAA);
        let digest = fnv1a(&body);
        body.extend_from_slice(&digest.to_le_bytes());
        assert_eq!(Frame::decode(Bytes::from(body)), Err(FrameError::Trailing));
    }

    #[test]
    fn truncations_fail_cleanly() {
        let enc = Frame::Ack { seq: 1 }.encode();
        for cut in 1..enc.len() {
            let out = Frame::decode(enc.slice(0..enc.len() - cut));
            assert!(out.is_err());
        }
        assert_eq!(Frame::decode(Bytes::new()), Err(FrameError::Truncated));
    }
}
