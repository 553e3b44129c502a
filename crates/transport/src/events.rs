//! Event types of the transport stack.

use samoa_core::prelude::*;

/// All event types of one endpoint's transport stack.
#[derive(Debug, Clone, Copy)]
pub struct Events {
    /// Application send request: `(SiteId, Bytes)` (external).
    pub send_msg: EventType,
    /// Chunker emits a fragment for sending: `(SiteId, Frame)`.
    pub win_out: EventType,
    /// A frame should be encoded and put on the wire: `(SiteId, Frame)`.
    pub csum_out: EventType,
    /// Raw bytes of a data frame (or of nothing decodable) arrived from the
    /// network: `(SiteId, Bytes)` (external).
    pub csum_in: EventType,
    /// Raw bytes of an ack frame arrived from the network: `(SiteId, Bytes)`
    /// (external).
    pub csum_ack_in: EventType,
    /// A verified data frame for the window layer: `(SiteId, Frame)`.
    pub win_data: EventType,
    /// A verified ack for the window layer: `(SiteId, u64)`, the acked
    /// sequence number.
    pub win_ack: EventType,
    /// An in-order data fragment for reassembly: `(SiteId, Frame)`.
    pub chunk_in: EventType,
    /// A complete message for the application: `(SiteId, Bytes)`.
    pub msg_deliver: EventType,
    /// Retransmission timer tick (external).
    pub tick: EventType,
}

impl Events {
    /// Declare all event types on the builder, and which of them enter from
    /// outside: a send, a data frame, an ack (an entry of its own, so that
    /// it declares less: it never reaches the Chunker or the application)
    /// and a tick.
    pub fn declare(b: &mut StackBuilder) -> Events {
        let ev = Events {
            send_msg: b.event("TSend"),
            win_out: b.event("WinOut"),
            csum_out: b.event("CsumOut"),
            csum_in: b.event("CsumIn"),
            csum_ack_in: b.event("CsumAckIn"),
            win_data: b.event("WinData"),
            win_ack: b.event("WinAck"),
            chunk_in: b.event("ChunkIn"),
            msg_deliver: b.event("MsgDeliver"),
            tick: b.event("TTick"),
        };
        b.entry_events(&[ev.send_msg, ev.csum_in, ev.csum_ack_in, ev.tick]);
        ev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_registers_all() {
        let mut b = StackBuilder::new();
        let ev = Events::declare(&mut b);
        let s = b.build();
        assert_eq!(s.event_count(), 10);
        assert_eq!(s.event_name(ev.send_msg), "TSend");
    }
}
