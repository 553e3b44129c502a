//! The Checksum microprotocol: frame integrity.
//!
//! Outbound frames are encoded with an FNV-1a trailer and put on the wire;
//! inbound bytes are validated and decoded, with corrupted frames counted
//! and dropped (the Window layer's retransmission recovers them).

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

/// Handler ids of the registered Checksum microprotocol.
#[derive(Debug, Clone, Copy)]
pub struct ChecksumHandlers {
    /// `send` (bound to `CsumOut`).
    pub send: HandlerId,
    /// `recv` (bound to `CsumIn`).
    pub recv: HandlerId,
}

/// Register the Checksum microprotocol.
pub fn register(
    b: &mut StackBuilder,
    pid: ProtocolId,
    ev: &Events,
    state: ProtocolState<ChecksumState>,
    me: SiteId,
    net: Arc<dyn Transport>,
) -> ChecksumHandlers {
    let events = *ev;

    let send = {
        let state = state.clone();
        let e = ev.csum_out;
        b.bind_with_triggers(e, pid, "checksum.send", &[], move |ctx, data| {
            let (peer, frame): &(SiteId, Frame) = data.expect(e)?;
            state.with(ctx, |s| s.sent += 1);
            net.send(me, *peer, frame.encode());
            Ok(())
        })
    };

    let recv = {
        let state = state.clone();
        let e = ev.csum_in;
        b.bind_with_triggers(e, pid, "checksum.recv", &[ev.win_in], move |ctx, data| {
            let (from, bytes): &(SiteId, Bytes) = data.expect(e)?;
            match Frame::decode(bytes.clone()) {
                Ok(frame) => {
                    ctx.trigger(events.win_in, EventData::new((*from, frame)))?;
                }
                Err(FrameError::Checksum) => {
                    state.with(ctx, |s| s.corrupt_dropped += 1);
                }
                Err(_) => {
                    state.with(ctx, |s| s.malformed_dropped += 1);
                }
            }
            Ok(())
        })
    };

    ChecksumHandlers { send, recv }
}
