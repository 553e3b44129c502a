//! The Checksum microprotocol: frame integrity.
//!
//! Outbound frames are encoded with an FNV-1a trailer and put on the wire;
//! inbound bytes are validated and decoded, with corrupted frames counted
//! and dropped (the Window layer's retransmission recovers them). A decoded
//! frame goes up as the event of its class — `WinData` or `WinAck` — and the
//! endpoint, which reads the class off the header, hands acks in on an entry
//! event of their own, so the handler is registered once per class.

use std::sync::Arc;

use bytes::Bytes;
use samoa_core::prelude::*;
use samoa_net::{SiteId, Transport};

use crate::events::Events;
use crate::frames::{Frame, FrameError};

/// Local state of the Checksum microprotocol.
#[derive(Debug, Default, Clone)]
pub struct ChecksumState {
    /// Frames dropped for checksum mismatch.
    pub corrupt_dropped: u64,
    /// Frames dropped as undecodable (truncated/bad tag).
    pub malformed_dropped: u64,
    /// Frames sent.
    pub sent: u64,
}

/// Register the Checksum microprotocol.
pub fn register(
    b: &mut StackBuilder,
    pid: ProtocolId,
    ev: &Events,
    state: ProtocolState<ChecksumState>,
    me: SiteId,
    net: Arc<dyn Transport>,
) {
    let events = *ev;

    {
        let state = state.clone();
        let e = ev.csum_out;
        b.bind_with_triggers(e, pid, "checksum.send", &[], move |ctx, data| {
            let (peer, frame): &(SiteId, Frame) = data.expect(e)?;
            state.with(ctx, |s| s.sent += 1);
            net.send(me, *peer, frame.encode());
            Ok(())
        });
    }

    // One body, registered per entry event with only its class's trigger.
    let recv = |b: &mut StackBuilder, e: EventType, name: &str, class: EventType| {
        let state = state.clone();
        b.bind_with_triggers(e, pid, name, &[class], move |ctx, data| {
            let (from, bytes): &(SiteId, Bytes) = data.expect(e)?;
            match Frame::decode(bytes.clone()) {
                Ok(Frame::Ack { seq }) => {
                    ctx.trigger(events.win_ack, EventData::new((*from, seq)))?;
                }
                Ok(frame) => {
                    ctx.trigger(events.win_data, EventData::new((*from, frame)))?;
                }
                Err(FrameError::Checksum) => {
                    state.with(ctx, |s| s.corrupt_dropped += 1);
                }
                Err(_) => {
                    state.with(ctx, |s| s.malformed_dropped += 1);
                }
            }
            Ok(())
        });
    };
    recv(b, ev.csum_in, "checksum.recv_data", ev.win_data);
    recv(b, ev.csum_ack_in, "checksum.recv_ack", ev.win_ack);
}
