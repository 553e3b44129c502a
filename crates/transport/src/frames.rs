//! Transport frames and their wire codec, with a checksum trailer.
//!
//! The checksum is FNV-1a over the body, appended as a little-endian `u32`.
//! One flipped bit anywhere (the fault `samoa-net` injects) changes the
//! digest, which is what the Checksum microprotocol detects.

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
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::BadTag(t) => write!(f, "unknown frame tag {t}"),
            FrameError::Checksum => write!(f, "checksum mismatch"),
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

fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
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

    /// Validate the checksum and decode.
    pub fn decode(mut buf: Bytes) -> Result<Frame, FrameError> {
        if buf.len() <= TRAILER {
            return Err(FrameError::Truncated);
        }
        let mut body = buf.split_to(buf.len() - TRAILER);
        if fnv1a(&body) != buf.u32()? {
            return Err(FrameError::Checksum);
        }
        match body.u8()? {
            0 => Ok(Frame::Data {
                msg_id: body.u64()?,
                frag_idx: body.u32()?,
                frag_total: body.u32()?,
                seq: body.u64()?,
                payload: body.bytes()?,
            }),
            1 => Ok(Frame::Ack { seq: body.u64()? }),
            t => Err(FrameError::BadTag(t)),
        }
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

    #[test]
    fn any_single_bit_flip_is_caught() {
        let f = Frame::Data {
            msg_id: 5,
            frag_idx: 2,
            frag_total: 3,
            seq: 11,
            payload: Bytes::from_static(b"payload bytes"),
        };
        let enc = f.encode();
        for i in 0..enc.len() {
            for bit in 0..8 {
                let mut bytes = enc.to_vec();
                bytes[i] ^= 1 << bit;
                let out = Frame::decode(Bytes::from(bytes));
                assert!(
                    out.is_err(),
                    "flip at byte {i} bit {bit} went undetected: {out:?}"
                );
            }
        }
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
