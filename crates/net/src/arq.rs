//! One ARQ core: *when is an unacknowledged frame resent* ([`ArqSender`])
//! and *has this sequence number been seen* ([`ArqReceiver`], a
//! [`RangeSet`] per peer — the same set `samoa-proto` keeps per origin for
//! RelCast's and atomic broadcast's duplicate suppression).
//!
//! Plain data, no thread, no I/O, no clock: a call that needs the time is
//! handed `now`, from the caller's [`ProtoClock`](crate::ProtoClock). RelComm
//! (`samoa-proto`) and Window (`samoa-transport`) wrap it and keep what
//! differs: what a frame carries, when acks leave, flow control and in-order
//! release. Sequence numbers are per peer and start at 1.
//!
//! # Reading acks as loss evidence
//!
//! A timeout is the slow way to learn of a loss: the acks of the frames sent
//! *after* a lost one come back a round trip later and say that it is a
//! hole. [`ArqSender::ack_detecting_loss`] reads them. Every transmission,
//! first or repeat, takes the peer's next *send number*. When a
//! never-retransmitted frame is acknowledged, each still-unacknowledged
//! frame whose latest transmission has a lower send number was *overtaken*
//! once more. A frame overtaken `LOSS_THRESHOLD` = 3 times (RFC 5681's three
//! duplicate acks, RFC 9002's packet threshold) is handed back for
//! resending at once — and so is one overtaken by every frame that still
//! could, once fewer than the threshold remain in flight and the caller has
//! nothing more to send (RFC 5827's early retransmit: the window is draining
//! and no third ack will ever come; a caller with a backlog says so, since
//! what it sends next can still overtake). It is re-armed exactly as
//! [`due`](ArqSender::due) re-arms it — sent now, one more attempt, a fresh
//! send number, the count back at 0 — so a lost repeat is found again the
//! same way. What no later ack can vouch for (the last frames sent, a lost
//! repeat at the tail) is left to [`due`](ArqSender::due), which resends it,
//! toward a peer the caller holds nothing more for, once more than two
//! smoothed round trips have passed since it left, the wait doubled per
//! resend and never beyond the RTO (RFC 8985's probe timeout, RFC 9002's
//! backoff). [`next_due`](ArqSender::next_due) is the earliest instant at
//! which `due` would resend anything, so a caller may sleep until then
//! instead of asking on a fixed period. Nothing here reads a clock, and
//! iteration is the ordered map's.
//!
//! *Karn's rule applies to evidence as it does to round-trip samples*: the
//! ack of a frame that was ever resent says nothing about order — it may
//! answer the first transmission or the last — so it moves no count.
//! Counting it was measured: on the lossy transfer benchmark every fragment
//! went out twice over (1.28 resends per fragment, 4.5 datagrams per
//! fragment against 2.5), each spurious resend's ack vouching for the next.
//!
//! *What counting costs.* A network that reorders makes holes that are not
//! losses. Of 20 000 acks of never-lost frames on `NetConfig::fast` (0–20 µs
//! jitter per datagram, bursts of 16) 56 % were overtaken at least once,
//! 19.6 % three times, 3.5 % six times and 0.13 % ten times: at threshold 3
//! about one fragment in six is resent needlessly (17–18 % of 25 600 on that
//! network without loss, window 16), a datagram the receiver drops and acks
//! again. A threshold of 6 halves that and was a quarter
//! slower end to end; a time window instead of a count (RACK) resends
//! nothing needlessly and was three times slower, because a window of 16
//! turns over within the reordering window and the tail of a message has no
//! later ack to wait for. Three is the standard and is not an option.
//!
//! RelComm does not call this entry: its acks are deferred up to a tick and
//! batched, so their order says little and neither does a missing one two
//! round trips on. It keeps the plain [`ack`](ArqSender::ack) and the RTO
//! alone.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use crate::SiteId;

/// Smoothed round-trip estimate toward one peer (RFC 6298). A fixed RTO
/// below the *loaded* RTT retransmits spuriously: each duplicate costs the
/// receiver a serialized computation, raising the RTT further — the classic
/// congestion spiral. `srtt + 4·rttvar` stays above the real ack latency as
/// load varies.
#[derive(Clone, Copy)]
struct Rtt {
    srtt: Duration,
    rttvar: Duration,
}

impl Rtt {
    /// `prev` with `sample` folded in.
    fn after(prev: Option<Rtt>, sample: Duration) -> Rtt {
        match prev {
            None => Rtt {
                srtt: sample,
                rttvar: sample / 2,
            },
            Some(Rtt { srtt, rttvar }) => Rtt {
                srtt: (srtt * 7 + sample) / 8,
                rttvar: (rttvar * 3 + srtt.abs_diff(sample)) / 4,
            },
        }
    }
}

/// How many later-sent frames must be acknowledged ahead of a frame before
/// it counts as lost (see the module docs).
const LOSS_THRESHOLD: u32 = 3;

/// A sent frame, when it last left and how often it has been resent.
struct Unacked<P> {
    payload: P,
    last: Instant,
    attempts: u32,
    /// Send number of its latest transmission.
    send_no: u64,
    /// Never-retransmitted frames sent after that transmission and
    /// acknowledged before it.
    overtaken: u32,
}

impl<P> Unacked<P> {
    /// It goes out again at `now`, as the next of the peer's `sent`
    /// transmissions.
    fn rearm(&mut self, now: Instant, sent: &mut u64) {
        *sent += 1;
        self.last = now;
        self.attempts += 1;
        self.send_no = *sent;
        self.overtaken = 0;
    }
}

struct PeerTx<P> {
    next_seq: u64,
    /// Transmissions so far, repeats included.
    sent: u64,
    rtt: Option<Rtt>,
    unacked: BTreeMap<u64, Unacked<P>>,
}

impl<P> PeerTx<P> {
    /// Forget `seq`. A never-retransmitted frame is a round-trip sample
    /// (Karn's rule: a retransmission's ack is ambiguous) and, for the same
    /// reason, the only evidence of order: its send number is returned.
    fn acked(&mut self, seq: u64, now: Instant) -> Option<u64> {
        let u = self.unacked.remove(&seq).filter(|u| u.attempts == 0)?;
        self.rtt = Some(Rtt::after(self.rtt, now.saturating_duration_since(u.last)));
        Some(u.send_no)
    }

    /// The timeout before backoff: never below `floor` (an idle, fast link
    /// still recovers from a loss quickly), at most `40 × floor` (one
    /// extreme sample cannot park the channel).
    fn rto(&self, floor: Duration) -> Duration {
        let adaptive = self.rtt.map_or(floor, |r| r.srtt + r.rttvar * 4);
        adaptive.clamp(floor, floor * 40)
    }

    /// The timeout of a frame resent `attempts` times toward a peer the
    /// caller holds nothing more for, whose own timeout is `rto`: `2·srtt`
    /// (RFC 8985 §7.2's probe timeout without its delayed-ack term — the
    /// acks this is for leave as the frames arrive), doubled per resend
    /// (RFC 9002 §6.2.1), never beyond `rto`, and `rto` before the first
    /// sample. Only a frame *more* than this late is due, so on a clock
    /// that has not moved (srtt 0) nothing is resent early.
    fn tail_timeout(&self, attempts: u32, rto: Duration) -> Duration {
        let Some(r) = self.rtt else { return rto };
        (r.srtt * 2).saturating_mul(1 << attempts.min(31)).min(rto)
    }
}

/// The sender half: sequence numbers, the unacknowledged frames and the
/// retransmission policy. Ordered maps, so that resend order is a pure
/// function of the state (hooked exploration replays schedules by decision
/// index and diverges if send order varies run to run).
pub struct ArqSender<P> {
    floor: Duration,
    backoff_cap: u32,
    peers: BTreeMap<SiteId, PeerTx<P>>,
}

impl<P> ArqSender<P> {
    /// How many of a peer's oldest unacked frames one [`due`](Self::due) may
    /// resend. Unbounded retransmission turns a transient receiver stall
    /// into a self-sustaining storm: the whole backlog re-enters the
    /// (bounded) send queues every RTO, drowning the fresh traffic and the
    /// acks that would drain it. The receiver's floor only moves past its
    /// head, so resending far beyond an undelivered head is pure flood.
    pub const RETRANSMIT_WINDOW: usize = 32;

    /// The timeout toward a peer is `srtt + 4·rttvar` within `[floor, 40 ×
    /// floor]`, doubled per retransmission of the frame up to `backoff_cap`
    /// times (0: a fixed interval) — backoff keeps a stalled peer from being
    /// sent the same duplicates every tick.
    pub fn new(floor: Duration, backoff_cap: u32) -> Self {
        ArqSender {
            floor,
            backoff_cap,
            peers: BTreeMap::new(),
        }
    }

    /// Hold `payload` until `peer` acknowledges it; returns its sequence
    /// number.
    pub fn send(&mut self, peer: SiteId, payload: P, now: Instant) -> u64 {
        let p = self.peers.entry(peer).or_insert_with(|| PeerTx {
            next_seq: 0,
            sent: 0,
            rtt: None,
            unacked: BTreeMap::new(),
        });
        p.next_seq += 1;
        p.sent += 1;
        let unacked = Unacked {
            payload,
            last: now,
            attempts: 0,
            send_no: p.sent,
            overtaken: 0,
        };
        p.unacked.insert(p.next_seq, unacked);
        p.next_seq
    }

    /// `peer` acknowledged `seq`. Only a never-retransmitted frame is a
    /// round-trip sample (Karn's rule): a retransmission's ack is ambiguous.
    pub fn ack(&mut self, peer: SiteId, seq: u64, now: Instant) {
        if let Some(p) = self.peers.get_mut(&peer) {
            p.acked(seq, now);
        }
    }

    /// [`ack`](Self::ack), read as evidence too (see the module docs): call
    /// `resend(seq, attempts, payload)`, in `seq` order, for every frame to
    /// `peer` this ack shows to be lost, and re-arm it. For a caller whose
    /// acks leave the receiver one by one, as the frames arrive.
    /// `more_follows`: the caller holds frames for `peer` that this ack lets
    /// it [`send`](Self::send) — they can still overtake what is in flight,
    /// so however few that is, the window is not draining.
    pub fn ack_detecting_loss(
        &mut self,
        peer: SiteId,
        seq: u64,
        now: Instant,
        more_follows: bool,
        mut resend: impl FnMut(u64, u32, &P),
    ) {
        let Some(p) = self.peers.get_mut(&peer) else {
            return;
        };
        let Some(evidence) = p.acked(seq, now) else {
            return;
        };
        // With the window draining no third ack will come: the newest frame
        // still able to overtake, and what was sent after it cannot be
        // overtaken again.
        let draining = !more_follows && p.unacked.len() < LOSS_THRESHOLD as usize;
        let newest = draining.then(|| {
            let clean = p.unacked.values().filter(|u| u.attempts == 0);
            clean.map(|u| u.send_no).max().unwrap_or(0)
        });
        let PeerTx { unacked, sent, .. } = p;
        for (&seq, u) in unacked.iter_mut().take(Self::RETRANSMIT_WINDOW) {
            if u.send_no > evidence {
                continue;
            }
            u.overtaken += 1;
            if u.overtaken >= LOSS_THRESHOLD || newest.is_some_and(|n| n <= u.send_no) {
                u.rearm(now, sent);
                resend(seq, u.attempts, &u.payload);
            }
        }
    }

    /// The retransmission timeout toward `peer` before backoff.
    pub fn rto(&self, peer: SiteId) -> Duration {
        let known = self.peers.get(&peer);
        known.map_or(self.floor, |p| p.rto(self.floor))
    }

    /// Call `resend(peer, seq, attempts, payload)` for every frame whose
    /// timeout has run out, in `(peer, seq)` order, and re-arm it. The
    /// timeout is the backed-off RTO, except toward a peer `draining` says
    /// the caller holds nothing more for: no frame will leave after what is
    /// in flight there, so no ack can show its tail lost, and once the
    /// first round trip is sampled a frame is resent when more than its
    /// tail timeout — `2·srtt`, doubled per resend, at most the RTO — has
    /// passed since it last left. A caller whose acks leave late or batched
    /// passes `|_| false`: a round trip is then no evidence of loss.
    pub fn due(
        &mut self,
        now: Instant,
        draining: impl Fn(SiteId) -> bool,
        mut resend: impl FnMut(SiteId, u64, u32, &P),
    ) {
        for (&peer, p) in self.peers.iter_mut() {
            let rto = p.rto(self.floor);
            let draining = draining(peer);
            // Out of the peer while they are re-armed, so that the scan can
            // read the peer's estimate.
            let mut unacked = std::mem::take(&mut p.unacked);
            for (&seq, u) in unacked.iter_mut().take(Self::RETRANSMIT_WINDOW) {
                let timeout = rto * (1u32 << u.attempts.min(self.backoff_cap));
                let late = now.duration_since(u.last);
                let tail_lost = draining && late > p.tail_timeout(u.attempts, timeout);
                if late < timeout && !tail_lost {
                    continue;
                }
                u.rearm(now, &mut p.sent);
                resend(peer, seq, u.attempts, &u.payload);
            }
            p.unacked = unacked;
        }
    }

    /// The earliest instant at which [`due`](Self::due), passed the same
    /// `draining`, resends something; `None` while nothing is unacked. It
    /// reads what `due` reads — the oldest `RETRANSMIT_WINDOW` frames per
    /// peer, the backed-off RTO, the tail timeout toward a draining peer —
    /// and changes nothing. The tail test is strict, so a frame's tail
    /// deadline is a nanosecond past its tail timeout.
    pub fn next_due(&self, draining: impl Fn(SiteId) -> bool) -> Option<Instant> {
        let per_peer = self.peers.iter().filter_map(|(&peer, p)| {
            let (rto, draining) = (p.rto(self.floor), draining(peer));
            let due_at = |last: Instant, attempts: u32| {
                let timeout = rto * (1u32 << attempts.min(self.backoff_cap));
                let at = last + timeout;
                if !draining {
                    return at;
                }
                at.min(last + p.tail_timeout(attempts, timeout) + Duration::from_nanos(1))
            };
            let oldest = || p.unacked.values().take(Self::RETRANSMIT_WINDOW);
            // Frames never resent all wait alike: the first of them to leave
            // is due first, and the timeout is worked out once, not per
            // frame (a caller asks after every ack).
            let fresh = oldest().filter(|u| u.attempts == 0).map(|u| u.last).min();
            let fresh = fresh.map(|last| due_at(last, 0));
            let resent = oldest().filter(|u| u.attempts > 0);
            let resent = resent.map(|u| due_at(u.last, u.attempts));
            fresh.into_iter().chain(resent).min()
        });
        per_peer.min()
    }

    /// Frames sent to `peer` and not yet acknowledged.
    pub fn in_flight(&self, peer: SiteId) -> usize {
        self.peers.get(&peer).map_or(0, |p| p.unacked.len())
    }

    /// Frames not yet acknowledged, all peers.
    pub fn unacked(&self) -> usize {
        self.peers.values().map(|p| p.unacked.len()).sum()
    }

    /// Forget what is unacknowledged toward every peer `keep` rejects (its
    /// numbering continues should it return).
    pub fn retain_peers(&mut self, keep: impl Fn(SiteId) -> bool) {
        for (&peer, p) in self.peers.iter_mut() {
            if !keep(peer) {
                p.unacked.clear();
            }
        }
    }
}

/// A set of `u64`s kept as sorted, disjoint, non-adjacent inclusive ranges:
/// the one answer in the tree to *which sequence numbers have I seen*. What
/// arrives mostly in order costs one range however much arrives — a million
/// consecutive numbers and a hole are two ranges — and the common insert,
/// the number after the last one, touches only the last range. A set that
/// starts high (a joiner that first sees 1000) is one range too, which a
/// floor-plus-set would not give it.
///
/// Three users: [`ArqReceiver`] per peer (RelComm's and Window's duplicate
/// filter), and — per origin — RelCast's seen set and atomic broadcast's
/// delivered set in `samoa-proto`, whose join-time snapshot ships
/// [`ranges`](RangeSet::ranges) instead of every uid.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RangeSet {
    ranges: Vec<(u64, u64)>,
}

impl RangeSet {
    /// Add `v`; true if it was not in the set.
    pub fn insert(&mut self, v: u64) -> bool {
        if let Some(last) = self.ranges.last_mut() {
            if v > last.1 {
                if v - 1 == last.1 {
                    last.1 = v;
                } else {
                    self.ranges.push((v, v));
                }
                return true;
            }
        }
        if self.contains(v) {
            return false;
        }
        self.insert_range(v, v);
        true
    }

    /// Add every value of `lo..=hi`, in time independent of how many that
    /// is (an empty range when `lo > hi`).
    pub fn insert_range(&mut self, lo: u64, hi: u64) {
        if lo > hi {
            return;
        }
        // Everything from the first range that reaches `lo - 1` to the last
        // that starts by `hi + 1` overlaps or touches `lo..=hi`: one range
        // replaces them all.
        let start = self.ranges.partition_point(|r| r.1 < lo.saturating_sub(1));
        let end = self.ranges.partition_point(|r| r.0 <= hi.saturating_add(1));
        let merged = match self.ranges[start..end] {
            [] => (lo, hi),
            [first, ..] => (lo.min(first.0), hi.max(self.ranges[end - 1].1)),
        };
        self.ranges.splice(start..end, [merged]);
    }

    /// Is `v` in the set?
    pub fn contains(&self, v: u64) -> bool {
        let i = self.ranges.partition_point(|r| r.1 < v);
        self.ranges.get(i).is_some_and(|r| r.0 <= v)
    }

    /// How many values are in the set (saturating).
    pub fn len(&self) -> u64 {
        self.ranges().fold(0, |n, (lo, hi)| {
            n.saturating_add((hi - lo).saturating_add(1))
        })
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The set as `(lo, hi)` inclusive ranges, ascending, with at least one
    /// absent value between any two.
    pub fn ranges(&self) -> impl ExactSizeIterator<Item = (u64, u64)> + '_ {
        self.ranges.iter().copied()
    }
}

/// The receiver half: per-peer duplicate suppression.
#[derive(Default)]
pub struct ArqReceiver {
    peers: HashMap<SiteId, RangeSet>,
}

impl ArqReceiver {
    /// Record `seq` from `peer`; true the first time it is seen. Numbering
    /// starts at 1: 0 is never fresh.
    pub fn fresh(&mut self, peer: SiteId, seq: u64) -> bool {
        seq > 0 && self.peers.entry(peer).or_default().insert(seq)
    }

    /// Every sequence number from `peer` up to this one has been seen.
    pub fn floor(&self, peer: SiteId) -> u64 {
        let first = self.peers.get(&peer).and_then(|s| s.ranges().next());
        first.filter(|r| r.0 == 1).map_or(0, |r| r.1)
    }
}
