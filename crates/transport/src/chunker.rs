//! The Chunker microprotocol: fragmentation and reassembly.
//!
//! Outbound messages are split into MTU-sized fragments; inbound fragments
//! (already in order, thanks to the Window layer below) are reassembled and
//! delivered to the application.

use std::collections::HashMap;

use bytes::{Bytes, BytesMut};
use samoa_core::prelude::*;
use samoa_net::SiteId;

use crate::events::Events;
use crate::frames::Frame;

/// Local state of the Chunker microprotocol.
pub struct ChunkerState {
    mtu: usize,
    next_msg_id: u64,
    /// Per (peer, msg_id): fragments received so far.
    partial: HashMap<(SiteId, u64), PartialMsg>,
    /// Messages fully reassembled (diagnostics).
    pub reassembled: u64,
}

struct PartialMsg {
    total: u32,
    parts: Vec<Bytes>,
}

impl ChunkerState {
    /// Fresh state with the given MTU (fragment payload size).
    pub fn new(mtu: usize) -> Self {
        assert!(mtu > 0, "mtu must be positive");
        ChunkerState {
            mtu,
            next_msg_id: 0,
            partial: HashMap::new(),
            reassembled: 0,
        }
    }

    /// Messages currently awaiting more fragments.
    pub fn partial_count(&self) -> usize {
        self.partial.len()
    }

    /// Split `data` into fragments (pure; exposed for unit tests).
    fn split(&mut self, data: &Bytes) -> Vec<Frame> {
        self.next_msg_id += 1;
        let msg_id = self.next_msg_id;
        let total = data.len().div_ceil(self.mtu).max(1) as u32;
        (0..total)
            .map(|i| {
                let start = i as usize * self.mtu;
                let end = (start + self.mtu).min(data.len());
                Frame::Data {
                    msg_id,
                    frag_idx: i,
                    frag_total: total,
                    seq: 0, // assigned by the Window layer
                    payload: data.slice(start..end),
                }
            })
            .collect()
    }

    /// Accept an in-order fragment; returns the whole message when complete.
    fn accept(&mut self, from: SiteId, frame: &Frame) -> Option<Bytes> {
        let Frame::Data {
            msg_id,
            frag_idx,
            frag_total,
            payload,
            ..
        } = frame
        else {
            return None;
        };
        let entry = self
            .partial
            .entry((from, *msg_id))
            .or_insert_with(|| PartialMsg {
                total: *frag_total,
                parts: Vec::with_capacity(*frag_total as usize),
            });
        debug_assert_eq!(
            entry.parts.len() as u32,
            *frag_idx,
            "fragments out of order"
        );
        entry.parts.push(payload.clone());
        if entry.parts.len() as u32 == entry.total {
            let entry = self.partial.remove(&(from, *msg_id)).expect("present");
            let len = entry.parts.iter().map(Bytes::len).sum();
            let mut out = BytesMut::with_capacity(len);
            for p in entry.parts {
                out.extend_from_slice(&p);
            }
            self.reassembled += 1;
            Some(out.freeze())
        } else {
            None
        }
    }
}

/// Register the Chunker on the builder.
pub fn register(
    b: &mut StackBuilder,
    pid: ProtocolId,
    ev: &Events,
    state: ProtocolState<ChunkerState>,
) {
    let events = *ev;

    {
        let state = state.clone();
        let e = ev.send_msg;
        let send = b.bind_with_triggers(e, pid, "chunker.send", &[], move |ctx, data| {
            let (peer, bytes): &(SiteId, Bytes) = data.expect(e)?;
            let frames = state.with(ctx, |s| s.split(bytes));
            for f in frames {
                ctx.trigger(events.win_out, EventData::new((*peer, f)))?;
            }
            Ok(())
        });
        // One `WinOut` per fragment.
        b.declare_fan_out(send, &[ev.win_out]);
    }

    {
        let state = state.clone();
        let e = ev.chunk_in;
        b.bind_with_triggers(
            e,
            pid,
            "chunker.recv",
            &[ev.msg_deliver],
            move |ctx, data| {
                let (from, frame): &(SiteId, Frame) = data.expect(e)?;
                if let Some(msg) = state.with(ctx, |s| s.accept(*from, frame)) {
                    ctx.trigger_all(events.msg_deliver, EventData::new((*from, msg)))?;
                }
                Ok(())
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_respects_mtu_and_covers_data() {
        let mut s = ChunkerState::new(4);
        let frames = s.split(&Bytes::from_static(b"abcdefghij")); // 10 bytes
        assert_eq!(frames.len(), 3);
        let sizes: Vec<usize> = frames
            .iter()
            .map(|f| match f {
                Frame::Data { payload, .. } => payload.len(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(sizes, vec![4, 4, 2]);
    }

    #[test]
    fn empty_message_is_one_fragment() {
        let mut s = ChunkerState::new(8);
        let frames = s.split(&Bytes::new());
        assert_eq!(frames.len(), 1);
    }

    #[test]
    fn reassembly_roundtrip() {
        let mut tx = ChunkerState::new(3);
        let mut rx = ChunkerState::new(3);
        let data = Bytes::from_static(b"hello transport world");
        let frames = tx.split(&data);
        let from = SiteId(0);
        let mut out = None;
        for f in &frames {
            out = rx.accept(from, f);
        }
        assert_eq!(out.unwrap(), data);
        assert_eq!(rx.partial_count(), 0);
        assert_eq!(rx.reassembled, 1);
    }

    #[test]
    fn interleaved_peers_do_not_mix() {
        let mut tx_a = ChunkerState::new(2);
        let mut tx_b = ChunkerState::new(2);
        let mut rx = ChunkerState::new(2);
        let fa = tx_a.split(&Bytes::from_static(b"aaaa"));
        let fb = tx_b.split(&Bytes::from_static(b"bbbb"));
        assert!(rx.accept(SiteId(1), &fa[0]).is_none());
        assert!(rx.accept(SiteId(2), &fb[0]).is_none());
        assert_eq!(
            rx.accept(SiteId(1), &fa[1]).unwrap(),
            Bytes::from_static(b"aaaa")
        );
        assert_eq!(
            rx.accept(SiteId(2), &fb[1]).unwrap(),
            Bytes::from_static(b"bbbb")
        );
    }
}
