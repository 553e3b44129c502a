//! The Window microprotocol: sliding-window ARQ.
//!
//! Per peer: at most `window_size` frames are in flight (excess queues in a
//! backlog); the receiver acks every data frame at once, suppresses
//! duplicates, and releases fragments strictly in order to the Chunker above.
//! Because each ack leaves as its frame arrives, the order of the acks is the
//! order of arrival, and the sender reads it: a frame that three later-sent
//! ones were acknowledged ahead of is resent by the ack that shows it (`recv`,
//! through [`ArqSender::ack_detecting_loss`]), so a hole is filled at the pace
//! of the acks. The timer (`retransmit`) recovers what no later ack can vouch
//! for — the last frames sent, a lost repeat at the tail — more than two
//! round trips after the frame left, once the backlog is empty (the wait
//! doubles per resend up to the RTO), and at the RTO while frames still
//! queue behind the window. It ticks when that is: a computation whose
//! handlers put a frame in flight or take one out (`send`, `recv_ack`,
//! `retransmit`) arms the endpoint's [`Alarm`], as it completes, at the
//! [`ArqSender::next_due`] of the state it leaves; `recv_data`, which only
//! acks, arms nothing. Sequence numbers, both rules and the duplicate filter
//! are [`samoa_net::arq`], without backoff: a window-limited sender cannot
//! storm.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::{Duration, Instant};

use samoa_core::prelude::*;
use samoa_net::{Alarm, ArqReceiver, ArqSender, ProtoClock, SiteId};

use crate::events::Events;
use crate::frames::Frame;

/// `frame` as it goes on the wire with sequence number `seq`.
fn stamped(mut frame: Frame, seq: u64) -> Frame {
    if let Frame::Data { seq: s, .. } = &mut frame {
        *s = seq;
    }
    frame
}

/// How many windows ahead of its in-order floor the receiver holds frames.
/// The sender bounds how many frames are unacknowledged, not how far apart
/// they are: until a lost frame is resent — three acks later, or by the timer
/// if it was among the last sent or its repeat is lost too — the rest of the
/// window turns over once per round trip. Further ahead than a hole plausibly
/// lasts is stray or hostile, and holding it all would let outside input grow
/// the buffer without bound: dropped unacknowledged, so a sender resends it.
const HELD_WINDOWS: u64 = 64;

/// Local state of the Window microprotocol.
pub struct WindowState {
    window_size: usize,
    clock: ProtoClock,
    /// In flight, as enqueued: the sequence number is stamped on the way out.
    tx: ArqSender<Frame>,
    backlog: HashMap<SiteId, VecDeque<Frame>>,
    rx: ArqReceiver,
    /// Received ahead of a gap, waiting for in-order release.
    held: HashMap<SiteId, BTreeMap<u64, Frame>>,
    /// Frames retransmitted, by an ack or by the timer (diagnostics).
    pub retransmissions: u64,
    /// Those of them an ack showed to be lost (diagnostics).
    pub fast_retransmissions: u64,
    /// Duplicate data frames suppressed (diagnostics).
    pub duplicates: u64,
    /// Data frames dropped for lying too far ahead to hold (diagnostics).
    pub out_of_window: u64,
    /// The computation that arms the timer as it completes (0: none yet).
    arming: u64,
}

impl WindowState {
    /// Fresh state; `rto` is the retransmission timeout's floor.
    pub fn new(window_size: usize, rto: Duration, clock: ProtoClock) -> Self {
        assert!(window_size > 0);
        WindowState {
            window_size,
            clock,
            tx: ArqSender::new(rto, 0),
            backlog: HashMap::new(),
            rx: ArqReceiver::default(),
            held: HashMap::new(),
            retransmissions: 0,
            fast_retransmissions: 0,
            duplicates: 0,
            out_of_window: 0,
            arming: 0,
        }
    }

    /// Frames currently in flight to `peer`.
    pub fn in_flight(&self, peer: SiteId) -> usize {
        self.tx.in_flight(peer)
    }

    /// Frames in flight, all peers.
    pub(crate) fn unacked(&self) -> usize {
        self.tx.unacked()
    }

    /// Frames queued behind the window to `peer`.
    pub fn backlog(&self, peer: SiteId) -> usize {
        self.backlog.get(&peer).map_or(0, |b| b.len())
    }

    /// Enqueue a frame for `peer`; returns the frames to transmit now
    /// (window permitting), with sequence numbers assigned.
    fn enqueue(&mut self, peer: SiteId, frame: Frame) -> Vec<Frame> {
        self.backlog.entry(peer).or_default().push_back(frame);
        self.drain(peer, self.clock.now())
    }

    fn drain(&mut self, peer: SiteId, now: Instant) -> Vec<Frame> {
        let mut out = Vec::new();
        let Some(backlog) = self.backlog.get_mut(&peer) else {
            return out;
        };
        while self.tx.in_flight(peer) < self.window_size {
            let Some(f) = backlog.pop_front() else {
                break;
            };
            let seq = self.tx.send(peer, f.clone(), now);
            out.push(stamped(f, seq));
        }
        out
    }

    /// Handle an ack from `peer`; returns the frames it shows to be lost,
    /// then the newly transmittable ones.
    fn on_ack(&mut self, peer: SiteId, seq: u64) -> Vec<Frame> {
        let now = self.clock.now();
        // What waits in the backlog leaves on this ack and can still overtake
        // what is in flight.
        let more_follows = self.backlog(peer) > 0;
        let mut out = Vec::new();
        self.tx
            .ack_detecting_loss(peer, seq, now, more_follows, |seq, _, f| {
                out.push(stamped(f.clone(), seq))
            });
        self.retransmissions += out.len() as u64;
        self.fast_retransmissions += out.len() as u64;
        out.extend(self.drain(peer, now));
        out
    }

    /// Handle a data frame from `peer`; returns the frames released in
    /// order, or `None` for a frame that is dropped and must not be
    /// acknowledged (see [`HELD_WINDOWS`]).
    fn on_data(&mut self, peer: SiteId, frame: Frame) -> Option<Vec<Frame>> {
        let seq = frame.seq();
        let ahead = seq.saturating_sub(self.rx.floor(peer));
        if ahead > HELD_WINDOWS.saturating_mul(self.window_size as u64) {
            self.out_of_window += 1;
            return None;
        }
        if !self.rx.fresh(peer, seq) {
            self.duplicates += 1;
            return Some(Vec::new());
        }
        let held = self.held.entry(peer).or_default();
        held.insert(seq, frame);
        let floor = self.rx.floor(peer);
        let mut released = Vec::new();
        while let Some(first) = held.first_entry().filter(|e| *e.key() <= floor) {
            released.push(first.remove());
        }
        Some(released)
    }

    /// Collect frames overdue for retransmission.
    fn overdue(&mut self) -> Vec<(SiteId, Frame)> {
        let mut out = Vec::new();
        let draining = draining(&self.backlog);
        self.tx.due(self.clock.now(), draining, |peer, seq, _, f| {
            out.push((peer, stamped(f.clone(), seq)))
        });
        self.retransmissions += out.len() as u64;
        out
    }

    /// When [`overdue`](Self::overdue) next returns anything, if it ever
    /// will without another frame sent or acknowledged.
    pub(crate) fn next_due(&self) -> Option<Instant> {
        self.tx.next_due(draining(&self.backlog))
    }
}

/// With the backlog empty nothing will overtake the tail in flight.
fn draining(backlog: &HashMap<SiteId, VecDeque<Frame>>) -> impl Fn(SiteId) -> bool + '_ {
    |peer| backlog.get(&peer).is_none_or(VecDeque::is_empty)
}

/// After a handler changed `s`: once this computation has completed — a
/// deadline leaves a computation the way a reply does, after Rule 3 — arm
/// `alarm` at the instant the state the computation leaves has a frame due.
/// The state it *leaves*, not `s`: the Chunker hands `send` a message one
/// fragment at a time, and the first fragment finds the backlog empty — a
/// tail two round trips away, which the later ones take back. So this
/// queues once per computation, and not at all while an instant no later
/// than `s`'s is armed: the tick that instant brings reads Window's state
/// after this handler has (the endpoint's timer reads it before ticking)
/// and arms for what it finds. A typical ack costs one scan and one load,
/// and allocates nothing.
fn arm_when_done(
    ctx: &Ctx<'_>,
    alarm: &Option<Alarm>,
    state: &ProtocolState<WindowState>,
    s: &mut WindowState,
) {
    let Some(alarm) = alarm else { return };
    if s.arming == ctx.comp_id() {
        return;
    }
    let Some(at) = s.next_due() else { return };
    if alarm.deadline().is_some_and(|armed| armed <= at) {
        return;
    }
    s.arming = ctx.comp_id();
    let (alarm, state) = (alarm.clone(), state.clone());
    ctx.after_completion(move || {
        if let Some(at) = state.read(WindowState::next_due) {
            alarm.arm(at);
        }
    });
}

/// Register the Window microprotocol. How many frames a handler passes on is
/// known only at run time — what the window admits, what an ack shows lost
/// or lets through, what is overdue, the run a data frame releases in order
/// — so those triggers are fan-outs; the one ack a data frame earns is not.
/// `alarm`: the endpoint's timer, if it runs on the wall clock.
pub fn register(
    b: &mut StackBuilder,
    pid: ProtocolId,
    ev: &Events,
    state: ProtocolState<WindowState>,
    alarm: Option<Alarm>,
) {
    let events = *ev;

    let send = {
        let (state, alarm) = (state.clone(), alarm.clone());
        let e = ev.win_out;
        b.bind_with_triggers(e, pid, "window.send", &[], move |ctx, data| {
            let (peer, frame): &(SiteId, Frame) = data.expect(e)?;
            let out = state.with(ctx, |s| {
                let out = s.enqueue(*peer, frame.clone());
                arm_when_done(ctx, &alarm, &state, s);
                out
            });
            for f in out {
                ctx.trigger(events.csum_out, EventData::new((*peer, f)))?;
            }
            Ok(())
        })
    };
    b.declare_fan_out(send, &[ev.csum_out]);

    let recv_ack = {
        let (state, alarm) = (state.clone(), alarm.clone());
        let e = ev.win_ack;
        b.bind_with_triggers(e, pid, "window.recv_ack", &[], move |ctx, data| {
            let (from, seq): &(SiteId, u64) = data.expect(e)?;
            let out = state.with(ctx, |s| {
                let out = s.on_ack(*from, *seq);
                arm_when_done(ctx, &alarm, &state, s);
                out
            });
            for f in out {
                ctx.trigger(events.csum_out, EventData::new((*from, f)))?;
            }
            Ok(())
        })
    };
    b.declare_fan_out(recv_ack, &[ev.csum_out]);

    let recv_data = {
        let state = state.clone();
        let e = ev.win_data;
        b.bind_with_triggers(
            e,
            pid,
            "window.recv_data",
            &[ev.csum_out],
            move |ctx, data| {
                let (from, frame): &(SiteId, Frame) = data.expect(e)?;
                let released = state.with(ctx, |s| s.on_data(*from, frame.clone()));
                let Some(released) = released else {
                    return Ok(());
                };
                // Ack duplicates too — the previous ack may have been lost.
                let ack = Frame::Ack { seq: frame.seq() };
                ctx.trigger(events.csum_out, EventData::new((*from, ack)))?;
                for f in released {
                    ctx.trigger(events.chunk_in, EventData::new((*from, f)))?;
                }
                Ok(())
            },
        )
    };
    b.declare_fan_out(recv_data, &[ev.chunk_in]);

    let retransmit = {
        let state = state.clone();
        let e = ev.tick;
        b.bind_with_triggers(e, pid, "window.retransmit", &[], move |ctx, _| {
            let overdue = state.with(ctx, |s| {
                let overdue = s.overdue();
                arm_when_done(ctx, &alarm, &state, s);
                overdue
            });
            for (peer, f) in overdue {
                ctx.trigger(events.csum_out, EventData::new((peer, f)))?;
            }
            Ok(())
        })
    };
    b.declare_fan_out(retransmit, &[ev.csum_out]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    const RTO: Duration = Duration::from_millis(10);

    fn window(size: usize) -> (WindowState, ProtoClock) {
        let clock = ProtoClock::manual();
        (WindowState::new(size, RTO, clock.clone()), clock)
    }

    fn data(seq: u64) -> Frame {
        Frame::Data {
            msg_id: 1,
            frag_idx: 0,
            frag_total: 10,
            seq,
            payload: Bytes::new(),
        }
    }

    fn seqs(frames: &[Frame]) -> Vec<u64> {
        frames.iter().map(Frame::seq).collect()
    }

    #[test]
    fn window_limits_in_flight() {
        let (mut w, _) = window(2);
        let peer = SiteId(1);
        assert_eq!(w.enqueue(peer, data(0)).len(), 1);
        assert_eq!(w.enqueue(peer, data(0)).len(), 1);
        assert_eq!(w.enqueue(peer, data(0)).len(), 0, "window full");
        assert_eq!(w.in_flight(peer), 2);
        assert_eq!(w.backlog(peer), 1);
        // The first ack releases the backlog.
        assert_eq!(seqs(&w.on_ack(peer, 1)), [3]);
    }

    #[test]
    fn sequence_numbers_are_consecutive_per_peer() {
        let (mut w, _) = window(10);
        assert_eq!(seqs(&w.enqueue(SiteId(1), data(0))), [1]);
        assert_eq!(seqs(&w.enqueue(SiteId(1), data(0))), [2]);
        assert_eq!(seqs(&w.enqueue(SiteId(2), data(0))), [1], "per peer");
    }

    #[test]
    fn receiver_releases_in_order_and_dedupes() {
        let (mut w, _) = window(4);
        let peer = SiteId(0);
        assert_eq!(w.on_data(peer, data(2)), Some(vec![]), "held");
        assert_eq!(w.on_data(peer, data(1)), Some(vec![data(1), data(2)]));
        assert_eq!(w.on_data(peer, data(1)), Some(vec![]), "duplicate");
        assert_eq!(w.duplicates, 1);
        assert_eq!(w.on_data(peer, data(3)), Some(vec![data(3)]));
    }

    #[test]
    fn a_frame_too_far_ahead_is_neither_held_nor_acked() {
        let (mut w, _) = window(4);
        let peer = SiteId(0);
        let limit = HELD_WINDOWS * 4;
        for seq in [limit + 1, limit + 1000, u64::MAX] {
            assert_eq!(w.on_data(peer, data(seq)), None);
        }
        assert_eq!(w.out_of_window, 3);
        assert!(w.held.is_empty());
        // The limit is relative to the floor and moves with it.
        assert_eq!(w.on_data(peer, data(limit)), Some(vec![]));
        assert_eq!(w.on_data(peer, data(1)), Some(vec![data(1)]));
        assert_eq!(w.on_data(peer, data(limit + 1)), Some(vec![]));
    }

    #[test]
    fn overdue_retransmits_and_rearms() {
        let (mut w, clock) = window(4);
        w.enqueue(SiteId(1), data(0));
        clock.advance(RTO - Duration::from_nanos(1));
        assert!(w.overdue().is_empty());
        clock.advance(Duration::from_nanos(1));
        assert_eq!(w.overdue(), [(SiteId(1), data(1))]);
        assert_eq!(w.retransmissions, 1);
        // Re-armed: nothing is overdue until another RTO has passed, and
        // then again (no backoff).
        assert!(w.overdue().is_empty());
        clock.advance(RTO);
        assert_eq!(w.overdue().len(), 1);
    }
}
