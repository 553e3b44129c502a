//! The ARQ core on virtual time: the receiver's duplicate filter — and the
//! range set under it, against a `BTreeSet` model — and the sender's
//! retransmission policy — the timeout, the reading of acks as loss
//! evidence and the instant the next resend falls due — driven through
//! their public methods with a
//! [`ProtoClock::manual`] — nothing here sleeps or reads the wall clock.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use samoa_net::{ArqReceiver, ArqSender, ProtoClock, RangeSet, SiteId};

const FLOOR: Duration = Duration::from_millis(10);
const A: SiteId = SiteId(1);
const B: SiteId = SiteId(2);
const WINDOW: u64 = ArqSender::<()>::RETRANSMIT_WINDOW as u64;

/// Feed `arrivals` to a fresh receiver; each sequence number must be fresh
/// exactly the first time, and the floor must be the contiguous prefix of
/// what has arrived.
fn check_receiver(arrivals: &[u64]) {
    let mut rx = ArqReceiver::default();
    let mut seen = BTreeSet::new();
    for &seq in arrivals {
        let first_time = seq > 0 && seen.insert(seq);
        assert_eq!(rx.fresh(A, seq), first_time, "seq {seq} of {arrivals:?}");
        let prefix = (1..).take_while(|s| seen.contains(s)).count() as u64;
        assert_eq!(rx.floor(A), prefix, "after {seq} of {arrivals:?}");
        assert_eq!(rx.floor(B), 0, "floors are per peer");
    }
}

#[test]
fn receiver_accepts_fresh_rejects_duplicates_and_compacts() {
    check_receiver(&[1, 1, 3, 3, 2, 2, 0]);
}

#[test]
fn receiver_handles_large_gaps() {
    check_receiver(&[100, 1, 100, u64::MAX, 2]);
}

/// One step against the range set: a single value or a whole range.
#[derive(Debug, Clone, Copy)]
enum Put {
    One(u64),
    Range(u64, u64),
}

/// A few values around `base`: near enough to each other to collide, merge
/// and fill holes.
fn near(base: u64) -> impl Strategy<Value = Put> {
    prop_oneof![
        (0u64..40).prop_map(move |d| Put::One(base.saturating_add(d))),
        (0u64..40, 0u64..6).prop_map(move |(d, len)| {
            let lo = base.saturating_add(d);
            Put::Range(lo, lo.saturating_add(len))
        }),
    ]
}

/// The set holds what a `BTreeSet` fed the same values holds, answers
/// `insert` as it does, and keeps its ranges sorted, disjoint and never
/// adjacent — so their number is the number of holes plus one.
fn check_range_set(puts: &[Put]) {
    let mut set = RangeSet::default();
    let mut model = BTreeSet::new();
    for &put in puts {
        match put {
            Put::One(v) => assert_eq!(set.insert(v), model.insert(v), "{put:?} of {puts:?}"),
            Put::Range(lo, hi) => {
                set.insert_range(lo, hi);
                model.extend(lo..=hi);
            }
        }
        let ranges: Vec<(u64, u64)> = set.ranges().collect();
        let covered: Vec<u64> = ranges.iter().flat_map(|&(lo, hi)| lo..=hi).collect();
        assert_eq!(
            covered,
            model.iter().copied().collect::<Vec<_>>(),
            "after {put:?} of {puts:?}"
        );
        for pair in ranges.windows(2) {
            assert!(pair[0].1 + 1 < pair[1].0, "{ranges:?} not merged");
        }
        assert_eq!(set.len(), model.len() as u64);
        assert_eq!(set.is_empty(), model.is_empty());
    }
    let probes = model
        .iter()
        .flat_map(|&v| [v.saturating_sub(1), v, v.saturating_add(1)]);
    for v in probes.chain([0, u64::MAX]) {
        assert_eq!(
            set.contains(v),
            model.contains(&v),
            "contains({v}) of {puts:?}"
        );
    }
}

#[test]
fn range_set_merges_fills_and_starts_anywhere() {
    use Put::{One, Range};
    // In order: one range however long.
    check_range_set(&(1..=200).map(One).collect::<Vec<_>>());
    // A high first value is one range, not a floor and a set.
    check_range_set(&[One(1000), One(1001), One(999), One(1)]);
    // Duplicates, a hole filled from either side, two ranges made one.
    check_range_set(&[One(5), One(5), One(7), One(9), One(8), One(6), One(4)]);
    // Ranges: empty (`lo > hi`), swallowing several, touching on each side.
    check_range_set(&[Range(9, 3), Range(10, 12), Range(20, 22), Range(30, 30)]);
    check_range_set(&[Range(10, 12), Range(20, 22), Range(30, 30), Range(11, 29)]);
    check_range_set(&[Range(10, 12), Range(13, 19), Range(5, 9), Range(0, 4)]);
    // The ends of the domain.
    check_range_set(&[One(u64::MAX), One(0), One(u64::MAX - 1), One(u64::MAX)]);
    let mut all = RangeSet::default();
    all.insert_range(0, u64::MAX);
    assert_eq!(all.len(), u64::MAX, "saturates");
    assert!(all.contains(0) && all.contains(u64::MAX) && !all.insert(7));
}

/// Everything the sender says is due at the current time, re-arming it,
/// for a caller with more to send to every peer: the RTO alone.
fn due<P: Clone>(tx: &mut ArqSender<P>, clock: &ProtoClock) -> Vec<(SiteId, u64, u32, P)> {
    due_draining(tx, |_| false, clock)
}

/// [`due`] for a caller that holds nothing more for the peers `draining`
/// names.
fn due_draining<P: Clone>(
    tx: &mut ArqSender<P>,
    draining: impl Fn(SiteId) -> bool,
    clock: &ProtoClock,
) -> Vec<(SiteId, u64, u32, P)> {
    let mut out = Vec::new();
    tx.due(clock.now(), draining, |peer, seq, attempts, p| {
        out.push((peer, seq, attempts, p.clone()))
    });
    out
}

fn seqs<P>(resends: &[(SiteId, u64, u32, P)], peer: SiteId) -> Vec<u64> {
    let of_peer = resends.iter().filter(|r| r.0 == peer);
    of_peer.map(|r| r.1).collect()
}

#[test]
fn numbering_is_per_peer_from_one_and_survives_retain() {
    let clock = ProtoClock::manual();
    let mut tx = ArqSender::new(FLOOR, 4);
    assert_eq!(tx.send(A, 'a', clock.now()), 1);
    assert_eq!(tx.send(A, 'b', clock.now()), 2);
    assert_eq!(tx.send(B, 'c', clock.now()), 1);
    assert_eq!((tx.in_flight(A), tx.in_flight(B), tx.unacked()), (2, 1, 3));
    tx.retain_peers(|peer| peer == B);
    assert_eq!((tx.in_flight(A), tx.in_flight(B), tx.unacked()), (0, 1, 1));
    assert_eq!(tx.send(A, 'd', clock.now()), 3);
    clock.advance(FLOOR);
    assert_eq!(due(&mut tx, &clock), [(A, 3, 1, 'd'), (B, 1, 1, 'c')]);
}

#[test]
fn only_the_oldest_frames_of_each_peer_are_resent() {
    let clock = ProtoClock::manual();
    let mut tx = ArqSender::new(FLOOR, 4);
    for _ in 0..100 {
        tx.send(A, (), clock.now());
    }
    for _ in 0..40 {
        tx.send(B, (), clock.now());
    }
    clock.advance(FLOOR);
    let first = due(&mut tx, &clock);
    assert_eq!(seqs(&first, A), (1..=WINDOW).collect::<Vec<_>>());
    assert_eq!(seqs(&first, B), (1..=WINDOW).collect::<Vec<_>>());
    // The head moves with the acks, not with time.
    for seq in 1..=10 {
        tx.ack(A, seq, clock.now());
    }
    clock.advance(FLOOR * 32);
    let second = due(&mut tx, &clock);
    assert_eq!(seqs(&second, A), (11..=10 + WINDOW).collect::<Vec<_>>());
    assert_eq!(seqs(&second, B), (1..=WINDOW).collect::<Vec<_>>());
}

#[test]
fn the_first_three_samples_follow_rfc_6298() {
    let clock = ProtoClock::manual();
    let mut tx = ArqSender::new(FLOOR, 4);
    let ms = Duration::from_millis;
    let mut sample = |rtt: Duration| {
        let seq = tx.send(A, (), clock.now());
        clock.advance(rtt);
        tx.ack(A, seq, clock.now());
        tx.rto(A)
    };
    // SRTT = R, RTTVAR = R/2: 100 + 4·50.
    assert_eq!(sample(ms(100)), ms(300));
    // RTTVAR = 3/4·50 + 1/4·0 = 37.5, SRTT = 100.
    assert_eq!(sample(ms(100)), ms(250));
    // RTTVAR = 3/4·37.5 + 1/4·100 = 53.125, SRTT = 7/8·100 + 1/8·200 = 112.5.
    assert_eq!(sample(ms(200)), ms(325));
}

#[test]
fn the_timeout_stays_between_the_floor_and_forty_floors() {
    let clock = ProtoClock::manual();
    let mut tx = ArqSender::new(FLOOR, 4);
    assert_eq!(tx.rto(A), FLOOR, "no sample yet");
    let seq = tx.send(A, (), clock.now());
    tx.ack(A, seq, clock.now());
    assert_eq!(tx.rto(A), FLOOR, "a zero sample");
    let seq = tx.send(B, (), clock.now());
    clock.advance(FLOOR * 1000);
    tx.ack(B, seq, clock.now());
    assert_eq!(tx.rto(B), FLOOR * 40, "an extreme sample");
    assert_eq!(tx.rto(A), FLOOR, "estimates are per peer");
}

#[test]
fn the_ack_of_a_retransmitted_frame_is_not_sampled() {
    let clock = ProtoClock::manual();
    let mut tx = ArqSender::new(FLOOR, 4);
    tx.send(A, (), clock.now());
    clock.advance(FLOOR * 20);
    assert_eq!(due(&mut tx, &clock), [(A, 1, 1, ())]);
    tx.ack(A, 1, clock.now());
    assert_eq!(tx.in_flight(A), 0);
    assert_eq!(tx.rto(A), FLOOR, "Karn: an ambiguous ack is no sample");
    // The next clean round trip is the first sample.
    let seq = tx.send(A, (), clock.now());
    clock.advance(FLOOR * 2);
    tx.ack(A, seq, clock.now());
    assert_eq!(tx.rto(A), FLOOR * 6);
}

/// `peer` acknowledged `seq`, read as evidence by a caller with nothing more
/// to send: the frames it shows lost.
fn detect<P>(tx: &mut ArqSender<P>, peer: SiteId, seq: u64, clock: &ProtoClock) -> Vec<(u64, u32)> {
    detect_with(tx, peer, seq, false, clock)
}

fn detect_with<P>(
    tx: &mut ArqSender<P>,
    peer: SiteId,
    seq: u64,
    more_follows: bool,
    clock: &ProtoClock,
) -> Vec<(u64, u32)> {
    let mut out = Vec::new();
    tx.ack_detecting_loss(peer, seq, clock.now(), more_follows, |seq, attempts, _| {
        out.push((seq, attempts))
    });
    out
}

/// A sender with frames `1..=n` in flight to `A`.
fn sender_with(n: u64, clock: &ProtoClock) -> ArqSender<()> {
    let mut tx = ArqSender::new(FLOOR, 0);
    for _ in 0..n {
        tx.send(A, (), clock.now());
    }
    tx
}

#[test]
fn the_third_ack_ahead_of_a_frame_hands_it_back_and_rearms_it() {
    let clock = ProtoClock::manual();
    let mut tx = sender_with(8, &clock);
    assert_eq!(detect(&mut tx, A, 1, &clock), [], "in order: no hole");
    assert_eq!(detect(&mut tx, A, 3, &clock), []);
    assert_eq!(detect(&mut tx, A, 4, &clock), []);
    clock.advance(FLOOR / 2);
    assert_eq!(detect(&mut tx, A, 5, &clock), [(2, 1)]);
    assert_eq!(tx.in_flight(A), 4, "held until it is acknowledged");
    // Re-armed as `due` re-arms: the timeout counts from the resend.
    clock.advance(FLOOR / 2);
    assert_eq!(seqs(&due(&mut tx, &clock), A), [6, 7, 8]);
    clock.advance(FLOOR / 2);
    assert_eq!(seqs(&due(&mut tx, &clock), A), [2]);
}

#[test]
fn send_numbers_order_repeats_after_originals() {
    let clock = ProtoClock::manual();
    let mut tx = sender_with(8, &clock);
    for seq in [2, 3] {
        assert_eq!(detect(&mut tx, A, seq, &clock), []);
    }
    assert_eq!(detect(&mut tx, A, 4, &clock), [(1, 1)]);
    // 5..=8 left before the repeat of 1 did: their acks say nothing of it.
    for seq in 5..=8 {
        assert_eq!(detect(&mut tx, A, seq, &clock), [], "ack {seq}");
    }
    // 9..=11 left after it: a lost repeat is found again the same way.
    for _ in 9..=11 {
        tx.send(A, (), clock.now());
    }
    assert_eq!(detect(&mut tx, A, 9, &clock), []);
    assert_eq!(detect(&mut tx, A, 10, &clock), []);
    assert_eq!(detect(&mut tx, A, 11, &clock), [(1, 2)]);
}

#[test]
fn the_ack_of_a_retransmitted_frame_is_no_evidence() {
    let clock = ProtoClock::manual();
    let mut tx = sender_with(8, &clock);
    for seq in [2, 3] {
        assert_eq!(detect(&mut tx, A, seq, &clock), []);
    }
    assert_eq!(detect(&mut tx, A, 4, &clock), [(1, 1)]);
    assert_eq!(detect(&mut tx, A, 7, &clock), []);
    assert_eq!(detect(&mut tx, A, 8, &clock), []);
    // 5 and 6 have two acks ahead of them; the repeat of 1 left after both
    // and its ack is not a third.
    assert_eq!(detect(&mut tx, A, 1, &clock), []);
    assert_eq!(tx.in_flight(A), 2);
}

#[test]
fn due_resets_the_count() {
    let clock = ProtoClock::manual();
    let mut tx = sender_with(6, &clock);
    assert_eq!(detect(&mut tx, A, 2, &clock), []);
    assert_eq!(detect(&mut tx, A, 3, &clock), []);
    clock.advance(FLOOR);
    assert_eq!(seqs(&due(&mut tx, &clock), A), [1, 4, 5, 6]);
    tx.send(A, (), clock.now());
    tx.send(A, (), clock.now());
    // One more ack ahead of frame 1 — the third, had the timeout not reset it.
    assert_eq!(detect(&mut tx, A, 7, &clock), []);
    assert_eq!(tx.in_flight(A), 5);
}

#[test]
fn a_draining_window_resends_what_can_no_longer_be_overtaken() {
    let clock = ProtoClock::manual();
    // Two left in flight after the ack, the younger still able to overtake.
    let mut tx = sender_with(3, &clock);
    assert_eq!(
        detect(&mut tx, A, 3, &clock),
        [(2, 1)],
        "2 has no later frame, 1 has"
    );
    assert_eq!(
        detect(&mut tx, A, 1, &clock),
        [],
        "2 left again after 1 did"
    );
    assert_eq!(detect(&mut tx, A, 2, &clock), []);
    assert_eq!(tx.in_flight(A), 0);
    // Three left: the count decides, nothing is early.
    let mut tx = sender_with(4, &clock);
    assert_eq!(detect(&mut tx, A, 4, &clock), []);
    assert_eq!(tx.in_flight(A), 3);
    // In order nothing is ever overtaken, however few are left.
    let mut tx = sender_with(3, &clock);
    for seq in 1..=3 {
        assert_eq!(detect(&mut tx, A, seq, &clock), []);
    }
}

/// A window of two with a backlog: one frame is left in flight after every
/// ack, and the next leaves at once. That is not a draining window.
#[test]
fn a_caller_with_more_to_send_is_not_draining() {
    let clock = ProtoClock::manual();
    // The acks of 1 and 2 swapped on the way: 3 and 4 could still have
    // overtaken 1, nothing is resent.
    let mut tx = sender_with(2, &clock);
    assert_eq!(detect_with(&mut tx, A, 2, true, &clock), []);
    tx.send(A, (), clock.now());
    assert_eq!(detect_with(&mut tx, A, 1, true, &clock), []);
    assert_eq!(tx.in_flight(A), 1);
    // 1 lost: the count finds it as in any window, by the acks of 2, 3, 4.
    let mut tx = sender_with(2, &clock);
    for seq in [2, 3] {
        assert_eq!(detect_with(&mut tx, A, seq, true, &clock), [], "ack {seq}");
        tx.send(A, (), clock.now());
    }
    assert_eq!(detect_with(&mut tx, A, 4, true, &clock), [(1, 1)]);
    // The backlog empty, the same acks are all there will be.
    let mut tx = sender_with(2, &clock);
    assert_eq!(detect_with(&mut tx, A, 2, false, &clock), [(1, 1)]);
}

#[test]
fn a_peer_never_acked_from_costs_nothing() {
    let clock = ProtoClock::manual();
    let mut tx = sender_with(8, &clock);
    for _ in 0..8 {
        tx.send(B, (), clock.now());
    }
    // Counts are per peer: A's acks, in the worst order, move nothing of B's.
    for seq in (1..=8).rev() {
        detect(&mut tx, A, seq, &clock);
    }
    assert_eq!((tx.in_flight(A), tx.in_flight(B)), (0, 8));
    // B's frames are due when the parent's rule says, once each.
    clock.advance(FLOOR - Duration::from_nanos(1));
    assert_eq!(due(&mut tx, &clock), []);
    clock.advance(Duration::from_nanos(1));
    let resent = due(&mut tx, &clock);
    assert_eq!(seqs(&resent, B), (1..=8).collect::<Vec<_>>());
    assert!(resent.iter().all(|r| r.2 == 1));
    // An ack from a peer nothing was sent to, or of a frame not in flight.
    assert_eq!(detect(&mut tx, SiteId(9), 1, &clock), []);
    assert_eq!(detect(&mut tx, A, 1, &clock), []);
    assert_eq!(detect(&mut tx, B, 99, &clock), []);
    assert_eq!(tx.in_flight(B), 8);
}

#[test]
fn the_scan_stops_at_the_retransmit_window() {
    let clock = ProtoClock::manual();
    let mut tx = sender_with(WINDOW + 10, &clock);
    // The three newest acknowledged first: every older frame is overtaken
    // three times, the oldest `RETRANSMIT_WINDOW` are looked at.
    let last = WINDOW + 10;
    assert_eq!(detect(&mut tx, A, last, &clock), []);
    assert_eq!(detect(&mut tx, A, last - 1, &clock), []);
    let lost: Vec<u64> = detect(&mut tx, A, last - 2, &clock)
        .iter()
        .map(|r| r.0)
        .collect();
    assert_eq!(lost, (1..=WINDOW).collect::<Vec<_>>());
}

/// A sender whose one round-trip sample toward `A` was `rtt`, with `n`
/// frames sent to `A` since and the clock where they left.
fn sampled(rtt: Duration, n: u64, clock: &ProtoClock) -> ArqSender<()> {
    let mut tx = sender_with(1, clock);
    clock.advance(rtt);
    tx.ack(A, 1, clock.now());
    for _ in 0..n {
        tx.send(A, (), clock.now());
    }
    tx
}

/// `A` has nothing more coming: what is due toward it, by sequence number.
fn tail_due(tx: &mut ArqSender<()>, clock: &ProtoClock) -> Vec<u64> {
    seqs(&due_draining(tx, |peer| peer == A, clock), A)
}

#[test]
fn without_a_sample_the_tail_timeout_is_the_rto() {
    let clock = ProtoClock::manual();
    let mut tx = sender_with(2, &clock);
    clock.advance(FLOOR - Duration::from_nanos(1));
    assert_eq!(tail_due(&mut tx, &clock), []);
    clock.advance(Duration::from_nanos(1));
    assert_eq!(tail_due(&mut tx, &clock), [1, 2]);
}

/// A sample of `FLOOR`: srtt `FLOOR`, RTO `3 · FLOOR`. The tail timeout is
/// two round trips, then four — which the RTO caps at three.
#[test]
fn the_tail_timeout_doubles_per_resend_up_to_the_rto() {
    let clock = ProtoClock::manual();
    let mut tx = sampled(FLOOR, 1, &clock);
    assert_eq!(tx.rto(A), FLOOR * 3);
    clock.advance(FLOOR * 2);
    assert_eq!(tail_due(&mut tx, &clock), [], "at two round trips exactly");
    assert_eq!(due(&mut tx, &clock), [], "a caller with more to send");
    clock.advance(Duration::from_nanos(1));
    assert_eq!(tail_due(&mut tx, &clock), [2]);
    clock.advance(FLOOR * 3 - Duration::from_nanos(1));
    assert_eq!(tail_due(&mut tx, &clock), []);
    clock.advance(Duration::from_nanos(1));
    assert_eq!(tail_due(&mut tx, &clock), [2], "at the RTO, not at four");
    clock.advance(FLOOR * 3);
    assert_eq!(tail_due(&mut tx, &clock), [2], "and at the RTO again");
}

/// An extreme sample: srtt `1000 · FLOOR`, the RTO clamped at `40 · FLOOR`.
#[test]
fn the_tail_timeout_is_capped_by_the_rto_at_forty_floors() {
    let clock = ProtoClock::manual();
    let mut tx = sampled(FLOOR * 1000, 1, &clock);
    assert_eq!(tx.rto(A), FLOOR * 40);
    clock.advance(FLOOR * 40 - Duration::from_nanos(1));
    assert_eq!(tail_due(&mut tx, &clock), []);
    clock.advance(Duration::from_nanos(1));
    assert_eq!(tail_due(&mut tx, &clock), [2]);
}

#[test]
fn the_tail_scan_stops_at_the_retransmit_window() {
    let clock = ProtoClock::manual();
    let rtt = Duration::from_micros(100);
    let mut tx = sampled(rtt, WINDOW + 10, &clock);
    clock.advance(rtt * 3);
    assert_eq!(
        tail_due(&mut tx, &clock),
        (2..=WINDOW + 1).collect::<Vec<_>>()
    );
    assert_eq!(
        due_draining(&mut tx, |peer| peer == B, &clock),
        [],
        "per peer"
    );
}

/// RelComm's entry: whatever the order of the acks, nothing is resent by
/// them, before or after — only `due`, at its times.
#[test]
fn the_plain_ack_resends_nothing_whatever_the_order() {
    let clock = ProtoClock::manual();
    let mut tx = sender_with(8, &clock);
    for seq in [8, 7, 6, 5] {
        tx.ack(A, seq, clock.now());
    }
    assert_eq!(tx.in_flight(A), 4);
    assert_eq!(due(&mut tx, &clock), [], "and nothing was re-armed");
    clock.advance(FLOOR);
    assert_eq!(
        due(&mut tx, &clock),
        [(A, 1, 1, ()), (A, 2, 1, ()), (A, 3, 1, ()), (A, 4, 1, ())]
    );
}

/// One step of a schedule against the sender and [`RtoModel`].
#[derive(Debug, Clone)]
enum Step {
    /// `n` frames to the peer.
    Send(u16, u8),
    /// The ack of one of the peer's unacked frames, picked by index.
    Ack(u16, usize),
    Advance(Duration),
    Due,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u16..3, 1u8..24).prop_map(|(peer, n)| Step::Send(peer, n)),
        (0u16..3, any::<usize>()).prop_map(|(peer, i)| Step::Ack(peer, i)),
        (0u64..30_000).prop_map(|us| Step::Advance(Duration::from_micros(us))),
        Just(Step::Due),
    ]
}

/// The RTO rule written out: an RFC 6298 estimate per peer, sampled only on
/// the ack of a frame never resent; `srtt + 4·rttvar` within `[FLOOR, 40 ×
/// FLOOR]`, doubled per resend up to `cap` times; the oldest
/// `RETRANSMIT_WINDOW` unacked frames looked at, in `(peer, seq)` order.
#[derive(Default)]
struct RtoModel {
    now: Duration,
    peers: BTreeMap<SiteId, ModelPeer>,
}

#[derive(Default)]
struct ModelPeer {
    next_seq: u64,
    /// `(srtt, rttvar)`.
    rtt: Option<(Duration, Duration)>,
    /// Sequence number → (when it last left, how often it was resent).
    unacked: BTreeMap<u64, (Duration, u32)>,
}

impl RtoModel {
    fn send(&mut self, peer: SiteId) -> u64 {
        let p = self.peers.entry(peer).or_default();
        p.next_seq += 1;
        p.unacked.insert(p.next_seq, (self.now, 0));
        p.next_seq
    }

    /// Acknowledge the `pick`-th unacked frame to `peer`, if there is one.
    fn ack(&mut self, peer: SiteId, pick: usize) -> Option<u64> {
        let p = self.peers.get_mut(&peer)?;
        let seq = *p.unacked.keys().nth(pick % p.unacked.len().max(1))?;
        let (last, attempts) = p.unacked.remove(&seq)?;
        if attempts == 0 {
            let r = self.now - last;
            p.rtt = Some(match p.rtt {
                None => (r, r / 2),
                Some((srtt, rttvar)) => ((srtt * 7 + r) / 8, (rttvar * 3 + srtt.abs_diff(r)) / 4),
            });
        }
        Some(seq)
    }

    fn due(&mut self, cap: u32) -> Vec<(SiteId, u64, u32, ())> {
        let mut out = Vec::new();
        for (&peer, p) in self.peers.iter_mut() {
            let adaptive = p.rtt.map_or(FLOOR, |(srtt, rttvar)| srtt + rttvar * 4);
            let rto = adaptive.clamp(FLOOR, FLOOR * 40);
            for (&seq, (last, attempts)) in p.unacked.iter_mut().take(WINDOW as usize) {
                if self.now - *last >= rto * 2u32.pow((*attempts).min(cap)) {
                    *last = self.now;
                    *attempts += 1;
                    out.push((peer, seq, *attempts, ()));
                }
            }
        }
        out
    }
}

/// One step of a schedule against [`ArqSender::next_due`].
#[derive(Debug, Clone)]
enum Op {
    /// `n` frames to the peer.
    Send(u16, u8),
    /// The plain ack of one of the peer's unacked frames, picked by index.
    Ack(u16, usize),
    /// The same ack read as evidence, with or without more to follow.
    AckDetecting(u16, usize, bool),
    Advance(Duration),
    /// `due` now, for a caller draining toward the peers in the bitmask.
    Due(u8),
    /// The timer, for such a caller: `due` at `next_due`.
    Fire(u8),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u16..3, 1u8..6).prop_map(|(peer, n)| Op::Send(peer, n)),
        (0u16..3, any::<usize>()).prop_map(|(peer, i)| Op::Ack(peer, i)),
        (0u16..3, any::<usize>(), any::<bool>())
            .prop_map(|(peer, i, more)| Op::AckDetecting(peer, i, more)),
        (0u64..15_000).prop_map(|us| Op::Advance(Duration::from_micros(us))),
        (0u8..8).prop_map(Op::Due),
        (0u8..8).prop_map(Op::Fire),
    ]
}

/// The peers a bitmask names.
fn in_mask(mask: u8) -> impl Fn(SiteId) -> bool {
    move |peer| mask >> peer.0 & 1 == 1
}

/// How many frames `due` at `at` resends, re-arming them.
fn resent_at(tx: &mut ArqSender<()>, at: Instant, mask: u8) -> usize {
    let mut n = 0;
    tx.due(at, in_mask(mask), |_, _, _, _| n += 1);
    n
}

/// Run `ops` against a sender with backoff cap `cap`. After every step,
/// under every draining mask, `next_due` is `None` exactly when nothing is
/// unacked. `due` now resends something exactly when `next_due` has come;
/// at `next_due` less a nanosecond it resends nothing, at `next_due` at
/// least one frame.
fn check_next_due(cap: u32, ops: &[Op]) {
    let clock = ProtoClock::manual();
    let mut tx = ArqSender::new(FLOOR, cap);
    let mut unacked: BTreeMap<SiteId, BTreeSet<u64>> = BTreeMap::new();
    let ns = Duration::from_nanos(1);
    for op in ops {
        match *op {
            Op::Send(peer, n) => {
                for _ in 0..n {
                    let seq = tx.send(SiteId(peer), (), clock.now());
                    unacked.entry(SiteId(peer)).or_default().insert(seq);
                }
            }
            Op::Ack(peer, pick) | Op::AckDetecting(peer, pick, _) => {
                let Some(set) = unacked.get_mut(&SiteId(peer)) else {
                    continue;
                };
                let Some(&seq) = set.iter().nth(pick % set.len().max(1)) else {
                    continue;
                };
                set.remove(&seq);
                match *op {
                    Op::AckDetecting(_, _, more) => {
                        tx.ack_detecting_loss(SiteId(peer), seq, clock.now(), more, |_, _, _| {})
                    }
                    _ => tx.ack(SiteId(peer), seq, clock.now()),
                }
            }
            Op::Advance(d) => clock.advance(d),
            Op::Due(mask) => {
                let come = tx
                    .next_due(in_mask(mask))
                    .is_some_and(|at| at <= clock.now());
                let n = resent_at(&mut tx, clock.now(), mask);
                assert_eq!(n > 0, come, "{n} resent, mask {mask:b}, {ops:?}");
            }
            Op::Fire(mask) => {
                let Some(at) = tx.next_due(in_mask(mask)) else {
                    continue;
                };
                if let Some(wait) = at.checked_duration_since(clock.now()) {
                    clock.advance(wait);
                }
                let early = resent_at(&mut tx, at - ns, mask);
                assert_eq!(early, 0, "resent early, mask {mask:b}, {ops:?}");
                let n = resent_at(&mut tx, at, mask);
                assert!(n > 0, "nothing due at next_due, mask {mask:b}, {ops:?}");
            }
        }
        let nothing_unacked = unacked.values().all(BTreeSet::is_empty);
        for mask in 0..8 {
            let due = tx.next_due(in_mask(mask));
            assert_eq!(due.is_none(), nothing_unacked, "mask {mask:b}, {ops:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `next_due` agrees with `due` over any schedule of sends, plain and
    /// evidence-reading acks, time and timer firings, without backoff (as
    /// Window calls it) and with (as RelComm does).
    #[test]
    fn next_due_is_the_first_instant_due_resends_at(
        cap in 1u32..5,
        ops in proptest::collection::vec(op(), 1..80),
    ) {
        check_next_due(0, &ops);
        check_next_due(cap, &ops);
    }

    /// A caller that is never draining gets the RTO rule, exactly: over any
    /// schedule of sends, acks, time and `due` calls, `due(now, |_| false,
    /// …)` resends what [`RtoModel`] says, in its order, with its counts.
    #[test]
    fn never_draining_is_the_rto_rule(
        cap in 0u32..5,
        steps in proptest::collection::vec(step(), 1..120),
    ) {
        let clock = ProtoClock::manual();
        let mut tx = ArqSender::new(FLOOR, cap);
        let mut model = RtoModel::default();
        for step in steps {
            match step {
                Step::Send(peer, n) => {
                    for _ in 0..n {
                        let seq = tx.send(SiteId(peer), (), clock.now());
                        prop_assert_eq!(seq, model.send(SiteId(peer)));
                    }
                }
                Step::Ack(peer, pick) => {
                    if let Some(seq) = model.ack(SiteId(peer), pick) {
                        tx.ack(SiteId(peer), seq, clock.now());
                    }
                }
                Step::Advance(d) => {
                    clock.advance(d);
                    model.now += d;
                }
                Step::Due => prop_assert_eq!(due(&mut tx, &clock), model.due(cap)),
            }
            for (&peer, p) in &model.peers {
                prop_assert_eq!(tx.in_flight(peer), p.unacked.len());
            }
        }
    }

    /// Any arrival order, with duplicates.
    #[test]
    fn receiver_reports_each_seq_fresh_exactly_once(
        arrivals in proptest::collection::vec(0u64..24, 0..80),
    ) {
        check_receiver(&arrivals);
    }

    /// Out of order, duplicates, a high first value, merges of adjacent
    /// ranges, whole ranges — low in the domain and at its top.
    #[test]
    fn range_set_agrees_with_a_btreeset(
        low in proptest::collection::vec(near(0), 0..60),
        high in proptest::collection::vec(near(u64::MAX - 50), 0..20),
        high_first in any::<bool>(),
    ) {
        let puts = if high_first { [high, low].concat() } else { [low, high].concat() };
        check_range_set(&puts);
    }

    /// One frame, time advanced in arbitrary steps with a `due` call after
    /// each: it is resent exactly when `floor << min(attempts, cap)` has
    /// passed since its last transmission, never earlier.
    #[test]
    fn nothing_is_due_before_its_backed_off_timeout(
        cap in 0u32..6,
        steps_ms in proptest::collection::vec(0u64..200, 1..60),
    ) {
        let clock = ProtoClock::manual();
        let mut tx = ArqSender::new(FLOOR, cap);
        tx.send(A, (), clock.now());
        let (mut since_last, mut attempts) = (Duration::ZERO, 0u32);
        for ms in steps_ms {
            let step = Duration::from_millis(ms);
            clock.advance(step);
            since_last += step;
            let expected = if since_last >= FLOOR * (1 << attempts.min(cap)) {
                since_last = Duration::ZERO;
                attempts += 1;
                vec![(A, 1, attempts, ())]
            } else {
                Vec::new()
            };
            prop_assert_eq!(due(&mut tx, &clock), expected);
        }
    }

    /// Resend order is a pure function of the state: the same frames, sent
    /// to the peers in any interleaving, come back in `(peer, seq)` order,
    /// at most `RETRANSMIT_WINDOW` per peer.
    #[test]
    fn resend_order_is_a_pure_function_of_the_state(
        targets in proptest::collection::vec(0u16..5, 0..200),
    ) {
        let clock = ProtoClock::manual();
        let mut tx = ArqSender::new(FLOOR, 4);
        let mut sorted = ArqSender::new(FLOOR, 4);
        let mut by_peer = targets.clone();
        by_peer.sort_unstable();
        for (&t, &s) in targets.iter().zip(&by_peer) {
            tx.send(SiteId(t), (), clock.now());
            sorted.send(SiteId(s), (), clock.now());
        }
        clock.advance(FLOOR);
        let resends = due(&mut tx, &clock);
        prop_assert_eq!(&resends, &due(&mut sorted, &clock));
        let keys: Vec<(SiteId, u64)> = resends.iter().map(|r| (r.0, r.1)).collect();
        let mut expected = Vec::new();
        for peer in (0..5).map(SiteId) {
            let sent = by_peer.iter().filter(|&&t| SiteId(t) == peer).count() as u64;
            expected.extend((1..=sent.min(WINDOW)).map(|seq| (peer, seq)));
        }
        prop_assert_eq!(keys, expected);
        prop_assert!(due(&mut tx, &clock).is_empty(), "re-armed");
    }
}
