//! The Window microprotocol on virtual time: two endpoints on a manual
//! [`SimNet`] with a [`ProtoClock::manual`] and the timer thread off. One
//! datagram is delivered at a time and both runtimes are quiesced before the
//! next, time moves only when a test says so (or by a fixed hop per
//! delivery), and nothing sleeps or reads the wall clock. The transfer is one-directional, so a datagram from site
//! 0 is a data frame and one from site 1 is an ack.
//!
//! Two things resend a frame. The timer: the tests that advance the clock
//! and tick. It resends a frame more than two smoothed round trips after it
//! last left once the sender has nothing more queued for the peer (the wait
//! doubled per resend, never beyond the RTO), and an RTO after it otherwise
//! or before a round trip was sampled; a rig with a [`HOP`] makes a round
//! trip two hops long, so the estimate is known. And the acks: a frame
//! that three later-sent ones were acknowledged ahead of, or every one that
//! still could be once fewer than three are in flight — the tests that never
//! advance the clock and never tick.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use samoa_net::{NetConfig, NetHandle, ProtoClock, SimNet, SiteId};
use samoa_transport::{Endpoint, Frame, TransportConfig};

const RTO: Duration = Duration::from_millis(20);
const MTU: usize = 16;
const TX: SiteId = SiteId(0);
const RX: SiteId = SiteId(1);
/// What one delivery takes on a rig [`Rig::with_hop`] builds: a data frame
/// and its ack are a 100 µs round trip.
const HOP: Duration = Duration::from_micros(50);

struct Rig {
    net: SimNet,
    tx: Arc<Endpoint>,
    rx: Arc<Endpoint>,
    clock: ProtoClock,
    /// The clock moves this much before each delivery.
    hop: Duration,
}

impl Rig {
    /// A rig whose clock moves only when a test advances it.
    fn new(window: usize) -> Rig {
        Rig::with_hop(window, Duration::ZERO)
    }

    fn with_hop(window: usize, hop: Duration) -> Rig {
        let net = SimNet::new_manual(2, NetConfig::fast(1));
        let clock = ProtoClock::manual();
        let cfg = TransportConfig {
            mtu: MTU,
            window,
            rto: RTO,
            clock: clock.clone(),
            ..TransportConfig::default()
        };
        Rig {
            tx: Endpoint::new(net.handle(), TX, cfg.clone()),
            rx: Endpoint::new(net.handle(), RX, cfg),
            net,
            clock,
            hop,
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
        self.clock.advance(self.hop);
        assert!(self.handle().pump_seq(seq), "datagram {seq} not in flight");
        self.quiesce();
    }

    /// Deliver data datagram `seq` and then the ack it is answered with
    /// (no other ack may be in flight).
    fn deliver_and_ack(&self, seq: u64) {
        self.deliver(seq);
        let acks = self.in_flight_from(RX);
        assert_eq!(acks.len(), 1, "every frame is acknowledged at once");
        self.deliver(acks[0]);
    }

    /// The datagrams in flight from the sender that `sent` does not list:
    /// what was put on the wire since `sent` was read.
    fn new_from_tx(&self, sent: &[u64]) -> Vec<u64> {
        let mut now = self.in_flight_from(TX);
        now.retain(|seq| !sent.contains(seq));
        now
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

/// A rig with a [`HOP`] whose sender sent a message of two fragments, the
/// second lost: the first one's ack was the one round-trip sample, so srtt
/// is `2 · HOP` and the sender holds nothing more — the tail timeout is
/// `4 · HOP`. One round trip has passed since the lost one left.
fn lost_tail(window: usize, msg: &Bytes) -> Rig {
    let rig = Rig::with_hop(window, HOP);
    rig.send(msg);
    let data = rig.in_flight_from(TX);
    assert_eq!(data.len(), 2);
    // The last one: nothing is sent after it, so no ack can show the hole.
    assert!(rig.handle().drop_seq(data[1]));
    rig.settle();
    assert_eq!(rig.tx.in_flight(RX), 1, "one of two acknowledged");
    assert!(rig.delivered().is_empty());
    rig
}

#[test]
fn a_dropped_fragment_is_resent_once_by_the_first_tick_after_two_round_trips() {
    let msg = message(1, 2);
    let rig = lost_tail(4, &msg);

    rig.clock.advance(HOP * 2);
    rig.tick();
    assert_eq!(rig.handle().pending(), 0, "resent at two round trips");
    rig.clock.advance(Duration::from_nanos(1));
    rig.tick();
    assert_eq!(rig.in_flight_from(TX).len(), 1);
    rig.tick();
    assert_eq!(rig.in_flight_from(TX).len(), 1, "resent twice by one tick");
    assert_eq!(rig.tx.retransmissions(), 1);
    assert_eq!(rig.tx.fast_retransmissions(), 0, "no ack showed it");

    rig.settle();
    assert_eq!(rig.delivered(), [msg]);
    assert_eq!(rig.tx.in_flight(RX), 0);
    assert_eq!(rig.rx.duplicates_suppressed(), 0);
}

/// What the timer would be armed at: the instant the lost fragment left,
/// plus its tail timeout, plus the nanosecond by which a frame must be
/// *more* than that late. A tick a nanosecond sooner resends nothing, a
/// tick then resends it, and the receiver, which only acks, arms nothing.
#[test]
fn the_timer_is_armed_for_the_instant_the_lost_tail_falls_due() {
    let rig = lost_tail(4, &message(18, 2));
    // One round trip has passed since it left.
    let left = rig.clock.now() - HOP * 2;
    let ns = Duration::from_nanos(1);
    let due = left + HOP * 4 + ns;
    assert_eq!(rig.tx.next_due(), Some(due));
    assert_eq!(rig.rx.next_due(), None);

    rig.clock.advance(due - ns - rig.clock.now());
    rig.tick();
    assert_eq!(rig.handle().pending(), 0, "resent a nanosecond early");
    assert_eq!(rig.tx.next_due(), Some(due), "and re-armed nothing");
    rig.clock.advance(ns);
    rig.tick();
    assert_eq!(rig.in_flight_from(TX).len(), 1);
    // Resent once: the wait doubles.
    let again = rig.clock.now() + HOP * 8 + ns;
    assert_eq!(rig.tx.next_due(), Some(again));

    rig.settle();
    assert_eq!(rig.tx.next_due(), None, "nothing in flight");
    assert_eq!(rig.rx.next_due(), None);
}

/// A peer gone silent after one round trip, ticked every quarter of the RTO
/// for a second: the waits of 200, 400, 800, 1 600 and 3 200 µs are each
/// met by the next tick, 6.4 ms by the second, 12.8 ms by the third, and
/// every wait after that is the RTO's. The RTO alone resends 50 times in
/// that second, one second over the RTO.
#[test]
fn a_lost_tail_resend_waits_twice_as_long_and_never_beyond_the_rto() {
    let rig = lost_tail(4, &message(15, 2));
    let mut resent_at = Vec::new();
    for tick in 1..=200 {
        rig.clock.advance(RTO / 4);
        rig.tick();
        for d in rig.handle().pending_datagrams() {
            assert_eq!(d.from, TX, "nothing reaches the receiver to ack");
            assert!(rig.handle().drop_seq(d.seq));
            resent_at.push(tick);
        }
    }
    assert_eq!(resent_at[..7], [1, 2, 3, 4, 5, 7, 10]);
    let rto_apart = resent_at[6..].windows(2).all(|w| w[1] - w[0] == 4);
    assert!(rto_apart, "{resent_at:?}");
    assert_eq!(resent_at.len(), 54);
    assert_eq!(rig.tx.retransmissions(), 54);
}

/// Window 2, a message of 4: while fragments queue behind the window, one
/// sent later can still overtake a lost one and the count can find it, so
/// the timer waits the RTO as it always did.
#[test]
fn a_peer_with_a_backlog_still_waits_the_rto() {
    let rig = Rig::with_hop(2, HOP);
    let msg = message(16, 4);
    rig.send(&msg);
    let first = rig.in_flight_from(TX);
    assert_eq!(first.len(), 2, "a full window, two fragments queued");
    assert!(rig.handle().drop_seq(first[0]));
    // A round-trip sample, and the third fragment leaves; the fourth waits.
    rig.deliver_and_ack(first[1]);
    let sent = rig.in_flight_from(TX);
    assert_eq!(sent.len(), 1);

    // The lost one left an RTO ago, less a nanosecond: far more than two
    // round trips.
    rig.clock.advance(RTO - HOP * 2 - Duration::from_nanos(1));
    rig.tick();
    assert_eq!(rig.new_from_tx(&sent), [], "resent before the RTO");
    rig.clock.advance(Duration::from_nanos(1));
    rig.tick();
    assert_eq!(rig.new_from_tx(&sent).len(), 1);
    assert_eq!(rig.tx.retransmissions(), 1);

    rig.settle();
    assert_eq!(rig.delivered(), [msg]);
    assert_eq!(rig.tx.retransmissions(), 1);
    assert_eq!(rig.tx.in_flight(RX), 0);
    assert_eq!(rig.rx.duplicates_suppressed(), 0);
}

/// Every round trip on a frozen clock is 0 long, and so is the tail
/// timeout: only time *beyond* it counts, so ticks alone resend nothing.
#[test]
fn on_a_clock_that_has_not_moved_nothing_is_resent_early() {
    let rig = Rig::new(4);
    let msg = message(17, 2);
    rig.send(&msg);
    let data = rig.in_flight_from(TX);
    assert!(rig.handle().drop_seq(data[1]));
    rig.settle();
    assert_eq!(rig.tx.in_flight(RX), 1, "a zero round trip was sampled");
    for _ in 0..3 {
        rig.tick();
    }
    assert_eq!(rig.handle().pending(), 0);
    assert_eq!(rig.tx.retransmissions(), 0);
    // Any time at all is more than two round trips of none.
    rig.clock.advance(Duration::from_nanos(1));
    rig.tick();
    assert_eq!(rig.tx.retransmissions(), 1);
    rig.settle();
    assert_eq!(rig.delivered(), [msg]);
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
    // The acks came back newest first, so the oldest frames looked lost:
    // every resend was suppressed and acknowledged again.
    assert_eq!(rig.tx.retransmissions(), rig.tx.fast_retransmissions());
    assert_eq!(rig.rx.duplicates_suppressed(), rig.tx.retransmissions());
    assert_eq!(rig.tx.in_flight(RX), 0);
}

#[test]
fn a_middle_hole_is_resent_by_the_third_later_ack_and_not_by_the_second() {
    let rig = Rig::new(8);
    let msg = message(7, 8);
    rig.send(&msg);
    let data = rig.in_flight_from(TX);
    assert_eq!(data.len(), 8, "a full window on the wire");
    rig.deliver_and_ack(data[0]);
    rig.deliver_and_ack(data[1]);
    assert!(rig.handle().drop_seq(data[2]));
    rig.deliver_and_ack(data[3]);
    rig.deliver_and_ack(data[4]);
    assert_eq!(rig.tx.retransmissions(), 0, "two acks are not yet a loss");
    assert!(rig.new_from_tx(&data).is_empty());
    rig.deliver_and_ack(data[5]);
    assert_eq!(rig.tx.fast_retransmissions(), 1);
    assert_eq!(rig.new_from_tx(&data).len(), 1, "on the wire again");

    rig.settle();
    assert_eq!(rig.delivered(), [msg]);
    assert_eq!(rig.tx.retransmissions(), 1);
    assert_eq!(rig.tx.in_flight(RX), 0);
    assert_eq!(rig.rx.duplicates_suppressed(), 0);
}

#[test]
fn acks_delivered_two_out_of_order_resend_nothing() {
    let rig = Rig::new(8);
    let msg = message(8, 8);
    rig.send(&msg);
    for seq in rig.in_flight_from(TX) {
        rig.deliver(seq);
    }
    let acks = rig.in_flight_from(RX);
    assert_eq!(acks.len(), 8);
    // The first frame's ack behind the next two.
    for i in [1, 2, 0, 3, 4, 5, 6, 7] {
        rig.deliver(acks[i]);
    }
    assert_eq!(rig.handle().pending(), 0);
    assert_eq!(rig.handle().stats(TX).sent, 8, "each frame left once");
    assert_eq!(rig.tx.retransmissions(), 0);
    assert_eq!(rig.tx.in_flight(RX), 0);
    assert_eq!(rig.delivered(), [msg]);
}

#[test]
fn a_dropped_fast_resend_is_resent_again_by_three_further_acks() {
    let rig = Rig::new(8);
    let msg = message(9, 16);
    rig.send(&msg);
    let first = rig.in_flight_from(TX);
    assert!(rig.handle().drop_seq(first[1]));
    for i in [0, 2, 3, 4] {
        rig.deliver_and_ack(first[i]);
    }
    assert_eq!(rig.tx.fast_retransmissions(), 1);
    // Each ack let one more frame out; the third also resent the hole, and
    // then let out the only frame sent after the repeat so far.
    let second = rig.new_from_tx(&first);
    assert_eq!(second.len(), 5);
    assert!(rig.handle().drop_seq(second[3]), "the repeat is lost too");

    // Frames sent before the repeat say nothing about it.
    for &seq in first[5..].iter().chain(&second[..3]) {
        rig.deliver_and_ack(seq);
    }
    assert_eq!(rig.tx.retransmissions(), 1);
    // Three sent after it do.
    let sent = [first, second].concat();
    let third = rig.new_from_tx(&sent);
    assert_eq!(third.len(), 4, "the rest of the message");
    rig.deliver_and_ack(sent[sent.len() - 1]);
    rig.deliver_and_ack(third[0]);
    assert_eq!(rig.tx.retransmissions(), 1);
    rig.deliver_and_ack(third[1]);
    assert_eq!(rig.tx.fast_retransmissions(), 2);

    rig.settle();
    assert_eq!(rig.delivered(), [msg]);
    assert_eq!(rig.tx.retransmissions(), 2);
    assert_eq!(rig.tx.in_flight(RX), 0);
    assert_eq!(rig.rx.duplicates_suppressed(), 0);
}

#[test]
fn with_two_frames_left_in_flight_the_older_is_resent_on_the_youngers_ack() {
    let rig = Rig::new(4);
    let msg = message(10, 2);
    rig.send(&msg);
    let data = rig.in_flight_from(TX);
    assert_eq!(data.len(), 2);
    assert!(rig.handle().drop_seq(data[0]));
    // No third ack will ever come: the one there is has to do.
    rig.deliver_and_ack(data[1]);
    assert_eq!(rig.tx.fast_retransmissions(), 1);
    rig.settle();
    assert_eq!(rig.delivered(), [msg]);
    assert_eq!(rig.tx.retransmissions(), 1);
    assert_eq!(rig.tx.in_flight(RX), 0);
}

/// One frame is left in flight after every ack, but the backlog sends the
/// next at once and that one can still overtake: not a draining window.
#[test]
fn a_window_of_two_with_a_backlog_is_not_draining() {
    // Two acks swapped on the way resend nothing.
    let rig = Rig::new(2);
    let msg = message(12, 6);
    rig.send(&msg);
    let data = rig.in_flight_from(TX);
    assert_eq!(data.len(), 2);
    rig.deliver(data[0]);
    rig.deliver(data[1]);
    let acks = rig.in_flight_from(RX);
    rig.deliver(acks[1]);
    assert_eq!(rig.new_from_tx(&data).len(), 1, "the next fragment, only");
    rig.deliver(acks[0]);
    rig.settle();
    assert_eq!(rig.delivered(), [msg]);
    assert_eq!(rig.handle().stats(TX).sent, 6, "each frame left once");
    assert_eq!(rig.tx.retransmissions(), 0);

    // A lost frame is found by the count, as in any window.
    let rig = Rig::new(2);
    let msg = message(13, 6);
    rig.send(&msg);
    let mut sent = rig.in_flight_from(TX);
    assert!(rig.handle().drop_seq(sent[0]));
    for acked in 2..=4 {
        assert_eq!(rig.tx.retransmissions(), 0, "before the ack of {acked}");
        let next = *sent.last().unwrap();
        rig.deliver_and_ack(next);
        sent.extend(rig.new_from_tx(&sent));
    }
    assert_eq!(rig.tx.fast_retransmissions(), 1);
    rig.settle();
    assert_eq!(rig.delivered(), [msg]);
    assert_eq!(rig.tx.retransmissions(), 1);
    assert_eq!(rig.rx.duplicates_suppressed(), 0);
}

/// Were the ack of a resent frame evidence, each resend's ack would vouch
/// for the next resend: every frame sent twice over.
#[test]
fn the_ack_of_a_resent_frame_moves_no_count() {
    let rig = Rig::new(12);
    let msg = message(11, 12);
    rig.send(&msg);
    let data = rig.in_flight_from(TX);
    // Frames 1 and 5 are late, not lost. Three acks ahead of frame 1...
    for i in [1, 2, 3] {
        rig.deliver_and_ack(data[i]);
    }
    assert_eq!(rig.tx.retransmissions(), 1);
    let repeat = rig.new_from_tx(&data);
    assert_eq!(repeat.len(), 1);
    // ...and two ahead of frame 5.
    rig.deliver_and_ack(data[5]);
    rig.deliver_and_ack(data[6]);
    // The repeat was sent after frame 5, and its ack is not a third.
    rig.deliver_and_ack(repeat[0]);
    assert_eq!(rig.tx.retransmissions(), 1);
    // The ack of a frame that left once is.
    rig.deliver_and_ack(data[7]);
    assert_eq!(rig.tx.retransmissions(), 2);

    rig.settle();
    assert_eq!(rig.delivered(), [msg]);
    assert_eq!(rig.tx.retransmissions(), 2, "each late frame resent once");
    assert_eq!(rig.rx.duplicates_suppressed(), 2);
    assert_eq!(rig.tx.in_flight(RX), 0);
}

/// The bound a storm would break, where the count is exact: one datagram in
/// ten is lost and each delivery picks among the four oldest in flight, data
/// and acks alike, so acks overtake one another up to three deep. 51 of 128
/// are resent; with the ack of a resent frame counted as evidence, 189.
#[test]
fn a_lossy_reordering_schedule_resends_fewer_than_half_the_fragments() {
    const FRAGS: usize = 128;
    let rig = Rig::new(16);
    let msg = message(14, FRAGS);
    rig.send(&msg);
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    let mut below = move |n: usize| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as usize % n
    };
    let mut dropped = 0;
    while rig.tx.in_flight(RX) > 0 {
        let pending = rig.handle().pending_datagrams();
        if pending.is_empty() {
            // Only the timer knows of what is left.
            rig.clock.advance(RTO);
            rig.tick();
            continue;
        }
        let seq = pending[below(pending.len().min(4))].seq;
        if below(10) == 0 {
            assert!(rig.handle().drop_seq(seq));
            dropped += 1;
        } else {
            rig.deliver(seq);
        }
    }
    rig.settle();
    assert_eq!(rig.delivered(), [msg]);
    let (resent, fast) = (rig.tx.retransmissions(), rig.tx.fast_retransmissions());
    assert!(
        dropped > 0 && fast > 0,
        "vacuous: {dropped} lost, {fast} shown"
    );
    assert!(2 * resent < FRAGS as u64, "{resent} resends of {FRAGS}");
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
