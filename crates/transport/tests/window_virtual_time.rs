//! The Window microprotocol on virtual time: two endpoints on a manual
//! [`SimNet`] with a [`ProtoClock::manual`] and the timer thread off. One
//! datagram is delivered at a time and both runtimes are quiesced before the
//! next, time moves only when a test says so, and nothing sleeps or reads
//! the wall clock. The transfer is one-directional, so a datagram from site
//! 0 is a data frame and one from site 1 is an ack.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use samoa_net::{NetConfig, NetHandle, ProtoClock, SimNet, SiteId};
use samoa_transport::{Endpoint, Frame, TransportConfig};

const RTO: Duration = Duration::from_millis(20);
const MTU: usize = 16;
const TX: SiteId = SiteId(0);
const RX: SiteId = SiteId(1);

struct Rig {
    net: SimNet,
    tx: Arc<Endpoint>,
    rx: Arc<Endpoint>,
    clock: ProtoClock,
}

impl Rig {
    fn new(window: usize) -> Rig {
        let net = SimNet::new_manual(2, NetConfig::fast(1));
        let clock = ProtoClock::manual();
        let cfg = TransportConfig {
            mtu: MTU,
            window,
            rto: RTO,
            enable_timers: false,
            clock: clock.clone(),
            ..TransportConfig::default()
        };
        Rig {
            tx: Endpoint::new(net.handle(), TX, cfg.clone()),
            rx: Endpoint::new(net.handle(), RX, cfg),
            net,
            clock,
        }
    }

    fn handle(&self) -> NetHandle {
        self.net.handle()
    }

    fn quiesce(&self) {
        self.tx.runtime().quiesce();
        self.rx.runtime().quiesce();
    }

    /// Hand `msg` to the sender and let it put its first window on the wire.
    fn send(&self, msg: &Bytes) {
        self.tx.send(RX, msg.clone());
        self.quiesce();
    }

    /// Network sequence numbers of the datagrams in flight from `from`.
    fn in_flight_from(&self, from: SiteId) -> Vec<u64> {
        let pending = self.handle().pending_datagrams();
        let of_site = pending.iter().filter(|d| d.from == from);
        of_site.map(|d| d.seq).collect()
    }

    fn deliver(&self, seq: u64) {
        assert!(self.handle().pump_seq(seq), "datagram {seq} not in flight");
        self.quiesce();
    }

    /// Deliver one datagram at a time, in the order sent, until none is in
    /// flight.
    fn settle(&self) {
        self.quiesce();
        while let Some(first) = self.handle().pending_datagrams().first() {
            self.deliver(first.seq);
        }
    }

    /// One timer tick on both endpoints, at the current virtual time.
    fn tick(&self) {
        self.tx.inject_tick();
        self.rx.inject_tick();
        self.quiesce();
    }

    fn delivered(&self) -> Vec<Bytes> {
        let got = self.rx.delivered();
        got.into_iter().map(|(_, bytes)| bytes).collect()
    }
}

/// A message of `frags` full fragments.
fn message(seed: u8, frags: usize) -> Bytes {
    let bytes = (0..frags * MTU).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed));
    Bytes::from(bytes.collect::<Vec<u8>>())
}

#[test]
fn a_dropped_fragment_is_resent_once_by_the_first_tick_after_the_rto() {
    let rig = Rig::new(4);
    let msg = message(1, 3);
    rig.send(&msg);
    let data = rig.in_flight_from(TX);
    assert_eq!(data.len(), 3);
    assert!(rig.handle().drop_seq(data[1]));
    rig.settle();
    assert_eq!(rig.tx.in_flight(RX), 1, "two of three acknowledged");
    assert!(rig.delivered().is_empty());

    rig.clock.advance(RTO - Duration::from_nanos(1));
    rig.tick();
    assert_eq!(rig.handle().pending(), 0, "resent before the RTO");
    rig.clock.advance(Duration::from_nanos(1));
    rig.tick();
    assert_eq!(rig.in_flight_from(TX).len(), 1);
    rig.tick();
    assert_eq!(rig.in_flight_from(TX).len(), 1, "resent twice in one RTO");
    assert_eq!(rig.tx.retransmissions(), 1);

    rig.settle();
    assert_eq!(rig.delivered(), [msg]);
    assert_eq!(rig.tx.in_flight(RX), 0);
    assert_eq!(rig.rx.duplicates_suppressed(), 0);
}

#[test]
fn a_dropped_ack_makes_the_resend_a_counted_duplicate_that_is_acked_again() {
    let rig = Rig::new(4);
    let msg = message(2, 1);
    rig.send(&msg);
    rig.deliver(rig.in_flight_from(TX)[0]);
    let acks = rig.in_flight_from(RX);
    assert_eq!(acks.len(), 1);
    assert!(rig.handle().drop_seq(acks[0]));
    assert_eq!(rig.delivered(), std::slice::from_ref(&msg));
    assert_eq!(rig.tx.in_flight(RX), 1, "the sender cannot know");

    rig.clock.advance(RTO);
    rig.tick();
    assert_eq!(rig.tx.retransmissions(), 1);
    rig.settle();
    assert_eq!(rig.rx.duplicates_suppressed(), 1);
    assert_eq!(rig.tx.in_flight(RX), 0, "the duplicate was acknowledged");
    assert_eq!(rig.delivered(), [msg], "and not delivered again");
}

#[test]
fn the_backlog_drains_one_frame_per_ack() {
    let rig = Rig::new(2);
    let msg = message(3, 5);
    rig.send(&msg);
    for sent in 2..=5 {
        let data = rig.in_flight_from(TX);
        assert_eq!(data.len(), 2, "a full window on the wire");
        rig.deliver(data[0]);
        let acks = rig.in_flight_from(RX);
        assert_eq!(acks.len(), 1, "every frame is acknowledged at once");
        rig.deliver(acks[0]);
        // The ack freed one slot; one more frame left, if there was one.
        assert_eq!(rig.handle().stats(TX).sent, (sent + 1).min(5));
    }
    rig.settle();
    assert_eq!(rig.delivered(), [msg]);
    assert_eq!(rig.tx.retransmissions(), 0);
}

#[test]
fn two_messages_stay_in_order_whatever_order_their_fragments_arrive_in() {
    let rig = Rig::new(8);
    let (first, second) = (message(4, 3), message(5, 3));
    rig.send(&first);
    rig.send(&second);
    let data = rig.in_flight_from(TX);
    assert_eq!(data.len(), 6);
    for &seq in data.iter().rev() {
        assert!(rig.delivered().is_empty(), "released ahead of a gap");
        rig.deliver(seq);
    }
    rig.settle();
    assert_eq!(rig.delivered(), [first, second]);
    assert_eq!(rig.rx.duplicates_suppressed(), 0);
}

/// What lies further ahead of the receiver's floor than any hole lasts
/// (64 windows) is stray or hostile and must not occupy the receiver.
#[test]
fn frames_too_far_ahead_are_neither_held_nor_acked() {
    let rig = Rig::new(4);
    let far_ahead = [300, 301, 350, u64::MAX];
    for seq in far_ahead {
        let bogus = Frame::Data {
            msg_id: 99,
            frag_idx: 0,
            frag_total: 2,
            seq,
            payload: Bytes::from_static(b"bogus"),
        };
        rig.handle().send(TX, RX, bogus.encode());
    }
    rig.settle();
    assert_eq!(rig.handle().stats(RX).sent, 0, "something was acked");
    // Those sequence numbers are still free for the frames that own them.
    let msg = message(6, 400);
    rig.send(&msg);
    rig.settle();
    assert_eq!(rig.delivered(), [msg]);
    assert_eq!(rig.rx.duplicates_suppressed(), 0);
}
