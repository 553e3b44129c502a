//! `RelComm` — reliable point-to-point communication (paper §3).
//!
//! Sends datagrams with per-channel sequence numbers, acknowledges and
//! deduplicates on receipt, and retransmits unacknowledged messages on the
//! retransmission timer: that much is [`samoa_net::arq`]. What it delivers
//! goes up on the event of its class — plain user casts, atomic-broadcast
//! requests, consensus proposals, other consensus messages, state
//! transfers — so each upper handler binds only the traffic it owns. A cast
//! of a retired class (the flooded request or decision the codec still
//! reads) is acknowledged and goes up to no one. Messages are only
//! sent to — and only delivered from — sites in the current view ("this
//! requirement is necessary to implement finite buffers"); pending messages
//! to sites that leave the view are discarded, and so are the acks owed to
//! them.
//!
//! RelComm copies no batch. The retransmission buffer keeps a clone of the
//! payload it sent, and the delivery event gets a clone of the payload that
//! arrived; a payload's [`Batch`](crate::msgs::Batch), where it has one, is
//! shared by both clones, so neither copies a message. The acks owed to a
//! peer wait in a list that the next datagram to that peer clears, not
//! drops, so the list keeps its buffer.
//!
//! ## Deferred acks
//!
//! Every data frame is acknowledged — duplicates too, the first ack may
//! have been lost — but an ack never costs a datagram of its own while
//! there is traffic the other way. `recv_data` only *records* the ack it
//! owes the sender (per peer, in arrival order, with the instant the first
//! of them was recorded). Every data datagram built for that peer (`send`,
//! `retransmit`) takes the owed list along: the `Wire::Ack` frames follow
//! the `Wire::Data` frame in the same datagram, and the receiver's Network
//! Module hands the whole datagram to one computation. An ack waits for a
//! ride for at most `ACK_DELAY` (10 ms): that is its own deadline, and at
//! the tick it brings whatever is still owed leaves as one ack-only
//! datagram per peer — as does a peer's list as soon as `OWED_ACK_CAP`
//! acks have piled up in it, whichever comes first.
//!
//! So an ack is at most `ACK_DELAY` late. The RTT estimator sees the
//! deferral as part of the round trip and absorbs it; what must hold is
//! [`RTO`] ≥ 2 × `ACK_DELAY` (25 ms vs 10 ms), so that a deferred ack is
//! back before the sender's first timeout can fire. That relation is a
//! compile-time check beside [`RTO`]. A smaller RTO would stay correct —
//! dedup suppresses the spurious resends — it would just waste datagrams.
//!
//! ## Deadlines
//!
//! RelComm keeps no period. Its tick (`retransmit`) has something to do at
//! the earliest resend ([`ArqSender::next_due`]) or when the first ack
//! still owed has waited `ACK_DELAY`, whichever is first; that instant is a
//! pure function of the state (`RelCommState::next_due`). A handler that
//! adds a deadline arms the node's [`Alarm`] for it directly — `send` for
//! the frame it put in flight, `recv_data` when a peer's owed list was
//! empty, `retransmit` for what it leaves — and [`Alarm::arm`] keeps the
//! earlier instant, one load when one is armed already. A node whose
//! RelComm holds nothing unacknowledged and owes nothing has no deadline,
//! and its timer wakes nobody.
//!
//! Acks stay per sequence number and selective. A cumulative ack ("all up
//! to n") would be smaller still, but a single lost frame would pin the
//! floor, every later frame would look unacknowledged, and the sender
//! would resend its whole window behind one hole.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{BufMut, Bytes, BytesMut};
use samoa_core::prelude::*;
use samoa_net::codec::counted;
use samoa_net::{Alarm, ArqReceiver, ArqSender, SiteId, Transport};

use crate::clock::ProtoClock;
use crate::events::Events;
use crate::msgs::{ConsMsg, MsgUid, Payload, TraceCtx, Wire};
use crate::observe::{ClusterTracer, RelCommInstruments};
use crate::view::GroupView;

/// RelComm's retransmission timeout: the floor of the adaptive RTO a
/// message is first resent after.
pub const RTO: Duration = Duration::from_millis(25);

/// How long an owed ack waits for a data datagram to ride on before it
/// leaves on its own (module docs).
const ACK_DELAY: Duration = Duration::from_millis(10);

// A deferred ack is back before the sender's first timeout (module docs).
const _: () = assert!(RTO.as_nanos() >= 2 * ACK_DELAY.as_nanos());

/// A reliably delivered payload of one class —
/// [`CastMsg`](crate::msgs::CastMsg), packed [`AbMsg`](crate::msgs::AbMsg)s,
/// [`ConsMsg`] or
/// [`SyncMsg`](crate::msgs::SyncMsg) — handed to upper microprotocols via that class's
/// `FromRComm*` event.
#[derive(Debug, Clone)]
pub struct RDeliver<T> {
    /// The sending site.
    pub sender: SiteId,
    /// The delivered payload.
    pub payload: T,
}

/// The event a payload from `sender` is delivered on, with its data; none
/// for a cast of a retired class.
fn delivery(ev: &Events, sender: SiteId, payload: &Payload) -> Option<(EventType, EventData)> {
    fn of<T: Clone + Send + Sync + 'static>(sender: SiteId, payload: &T) -> EventData {
        EventData::new(RDeliver {
            sender,
            payload: payload.clone(),
        })
    }
    Some(match payload {
        Payload::Cast(c) if c.data.is_user() => (ev.from_rcomm_user, of(sender, c)),
        Payload::Cast(_) => return None,
        Payload::Request(batch) => (ev.from_rcomm_request, of(sender, batch)),
        Payload::Cons(c @ ConsMsg::Propose { .. }) => (ev.from_rcomm_propose, of(sender, c)),
        Payload::Cons(c) => (ev.from_rcomm_cons, of(sender, c)),
        Payload::Sync(s) => (ev.from_rcomm_sync, of(sender, s)),
    })
}

/// An inbound data datagram (the decoded `Wire::Data` and the acks that
/// rode behind it), payload of `RcData` and `RcDataUser`.
#[derive(Debug, Clone)]
pub struct RcDataIn {
    /// The sending site.
    pub sender: SiteId,
    /// RelComm channel sequence number.
    pub seq: u64,
    /// Causal context carried on the frame, if any.
    pub ctx: Option<TraceCtx>,
    /// The carried payload.
    pub payload: Payload,
    /// Sequence numbers the sender acknowledges in the same datagram.
    pub acks: Vec<u64>,
}

/// An inbound ack-only datagram, payload of `RcAck`.
#[derive(Debug, Clone)]
pub struct RcAckIn {
    /// The acknowledging site.
    pub sender: SiteId,
    /// The acknowledged sequence numbers.
    pub seqs: Vec<u64>,
}

/// A message's timeout doubles per retransmission, up to 16×.
const BACKOFF_CAP: u32 = 4;

/// How many acks may be owed to one peer before they leave as a datagram of
/// their own without waiting for `ACK_DELAY`: bounds the owed list (and the
/// datagram) under a one-directional burst.
const OWED_ACK_CAP: usize = 64;

/// The acks owed to one peer, in arrival order, and when the first of them
/// was recorded: they leave by `since + ACK_DELAY`.
struct Owed {
    seqs: Vec<u64>,
    since: Instant,
}

impl Owed {
    fn len(&self) -> usize {
        self.seqs.len()
    }
}

/// How many operations' hop counts [`HopTable`] remembers. A hop count is
/// looked up only while its operation is in flight — a few round trips —
/// so at any load the ext-gate admits (at most 64 computations per site,
/// one under the policies that hold everything to completion) what gets
/// evicted has long finished.
const CTX_HOPS_CAP: usize = 1024;

/// Smallest causal hop count observed per operation uid, learned from
/// inbound frame contexts, for the `CTX_HOPS_CAP` most recently first-seen
/// operations. Eviction is FIFO by first sight, so the table — like the
/// contexts derived from it — is a pure function of the delivered frames.
#[derive(Default)]
struct HopTable {
    hops: HashMap<MsgUid, u8>,
    order: VecDeque<MsgUid>,
}

impl HopTable {
    fn learn(&mut self, uid: MsgUid, hop: u8) {
        if let Some(h) = self.hops.get_mut(&uid) {
            *h = (*h).min(hop);
            return;
        }
        if self.order.len() == CTX_HOPS_CAP {
            if let Some(old) = self.order.pop_front() {
                self.hops.remove(&old);
            }
        }
        self.hops.insert(uid, hop);
        self.order.push_back(uid);
    }
}

/// One outbound datagram: the data frame, if any — sequence number, causal
/// context, payload, encoded from where they are held — then the owed acks.
/// Its buffer is sized once, by the writer run against a counting sink.
fn datagram(data: Option<(u64, Option<TraceCtx>, &Payload)>, acks: &[u64]) -> Bytes {
    fn write(out: &mut impl BufMut, data: Option<(u64, Option<TraceCtx>, &Payload)>, acks: &[u64]) {
        if let Some((seq, ctx, payload)) = data {
            Wire::encode_data_into(seq, ctx, payload, out);
        }
        for &seq in acks {
            Wire::Ack { seq }.encode_into(out);
        }
    }
    let mut out = BytesMut::with_capacity(counted(|sink| write(sink, data, acks)));
    write(&mut out, data, acks);
    out.freeze()
}

/// One outbound datagram to `peer` that takes along every ack `owed` to
/// it: those are owed no more. The list is cleared, not dropped, so the
/// next acks owed to `peer` reuse its buffer.
fn datagram_to(
    owed: &mut BTreeMap<SiteId, Owed>,
    peer: SiteId,
    data: Option<(u64, Option<TraceCtx>, &Payload)>,
) -> Bytes {
    match owed.get_mut(&peer) {
        Some(acks) => {
            let bytes = datagram(data, &acks.seqs);
            acks.seqs.clear();
            bytes
        }
        None => datagram(data, &[]),
    }
}

/// On a traced node, the `CtxSend` flow event of a datagram from `from` to
/// `to` whose data frame carries `ctx`: emitted right before the send, the
/// receiver's `CtxRecv` its other end.
fn ctx_send(tracer: &Option<ClusterTracer>, from: SiteId, to: SiteId, ctx: Option<TraceCtx>) {
    if let (Some(t), Some(c)) = (tracer, ctx) {
        t.emit(samoa_core::TraceKind::CtxSend {
            from: from.0,
            to: to.0,
            origin: c.origin.0,
            op: c.op,
            hop: c.hop,
        });
    }
}

/// The local state of the RelComm microprotocol.
pub struct RelCommState {
    site: SiteId,
    view: GroupView,
    /// Sent but unacknowledged: payload and causal context as first
    /// transmitted (retransmissions must be byte-identical).
    tx: ArqSender<(Payload, Option<TraceCtx>)>,
    rx: ArqReceiver,
    /// Acks owed per peer, in arrival order (see the module docs). Ordered,
    /// so that flush order is a pure function of the state, like resends.
    /// A peer's list is kept from one datagram to the next: sending what it
    /// holds clears it, and only a view change that drops the peer drops it.
    owed: BTreeMap<SiteId, Owed>,
    clock: ProtoClock,
    /// The node's timer: a handler that adds a deadline arms it (module
    /// docs, "Deadlines"). A node hands RelComm its own; until then it is
    /// one nobody rings.
    pub(crate) alarm: Alarm,
    /// Outbound frames serving an operation learned here carry `hop + 1`;
    /// frames serving a locally originated (or forgotten) operation carry
    /// hop 0. Empty for good on an untraced node.
    ctx_hops: HopTable,
    /// Cluster tracer, when the node is traced (retransmit spans, and the
    /// `CtxSend` of every frame carrying a context). Install it before
    /// [`register`], which reads it once.
    pub tracer: Option<ClusterTracer>,
    /// Sends, retransmissions, discards and the RTO. A discard is a send to
    /// a target outside RelComm's view: under an isolating policy only a
    /// genuinely departed site, under `Unsync` also the paper's §3 race (an
    /// upper layer fanned out using a view RelComm has not installed yet).
    pub instruments: RelCommInstruments,
}

impl RelCommState {
    /// Fresh state for `site` with the given initial view, reading time from
    /// `clock` (a manual clock makes retransmission timing deterministic
    /// under the checker).
    pub fn with_clock(site: SiteId, view: GroupView, clock: ProtoClock) -> Self {
        RelCommState {
            site,
            view,
            tx: ArqSender::new(RTO, BACKOFF_CAP),
            rx: ArqReceiver::default(),
            owed: BTreeMap::new(),
            alarm: Alarm::new(&clock),
            clock,
            ctx_hops: HopTable::default(),
            tracer: None,
            instruments: RelCommInstruments::default(),
        }
    }

    /// The causal context an outbound `payload` should carry: the payload's
    /// root operation, at the learned inbound hop count + 1 (0 when this
    /// site originated the operation or never saw a context for it). None
    /// on an untraced node: a context is 11 bytes on every frame and a table
    /// insert on every receipt, spent for a trace nobody records.
    fn ctx_for(&self, payload: &Payload) -> Option<TraceCtx> {
        self.tracer.as_ref()?;
        let uid = payload.root_uid()?;
        let hop = self
            .ctx_hops
            .hops
            .get(&uid)
            .map(|h| h.saturating_add(1))
            .unwrap_or(0);
        Some(TraceCtx {
            origin: uid.origin,
            op: uid.seq,
            hop,
        })
    }

    /// Operations whose hop count is remembered.
    #[cfg(test)]
    pub(crate) fn hops_known(&self) -> usize {
        self.ctx_hops.hops.len()
    }

    /// Messages sent but not yet acknowledged.
    pub fn pending_count(&self) -> usize {
        self.tx.unacked()
    }

    /// The view RelComm currently believes in.
    pub fn view(&self) -> &GroupView {
        &self.view
    }

    /// When the tick next has something to do, if ever without another
    /// frame sent or received: the earliest resend (never draining, as in
    /// `retransmit`) or the first ack still owed plus `ACK_DELAY`.
    pub(crate) fn next_due(&self) -> Option<Instant> {
        let owed = self.owed.values().filter(|o| !o.seqs.is_empty());
        let acks = owed.map(|o| o.since + ACK_DELAY).min();
        self.tx.next_due(|_| false).into_iter().chain(acks).min()
    }

    /// Arm the node's timer for `at`.
    fn arm(&self, at: Instant) {
        self.alarm.arm(at);
    }

    /// `from` acknowledges `seqs`: both the ack-only datagram (`recv_ack`)
    /// and the acks riding a data datagram (`recv_data`) end up here.
    fn apply_acks(&mut self, from: SiteId, seqs: &[u64]) {
        let now = self.clock.now();
        for &seq in seqs {
            self.tx.ack(from, seq, now);
        }
    }
}

/// Register RelComm on the builder.
pub fn register(
    b: &mut StackBuilder,
    pid: ProtocolId,
    ev: &Events,
    state: ProtocolState<RelCommState>,
    net: Arc<dyn Transport>,
) {
    let tracer = state.read(|s| s.tracer.clone());
    {
        let state = state.clone();
        let net = Arc::clone(&net);
        let tracer = tracer.clone();
        let e = ev.send_out;
        // `send` talks to the Transport directly — no stack-internal triggers.
        b.bind_with_triggers(e, pid, "relcomm.send", &[], move |ctx, data| {
            let (payload, target): &(Payload, SiteId) = data.expect(e)?;
            let frame = state.with(ctx, |s| {
                if !s.view.contains(*target) || *target == s.site {
                    if *target != s.site {
                        s.instruments.discards.inc();
                    }
                    return None; // discard, as the paper prescribes
                }
                let wire_ctx = s.ctx_for(payload);
                let now = s.clock.now();
                let seq = s.tx.send(*target, (payload.clone(), wire_ctx), now);
                let rto = s.tx.rto(*target);
                s.instruments.sends.inc();
                s.instruments.rto_us.set(rto.as_micros() as u64);
                // The frame just sent is due for a resend one RTO on.
                s.arm(now + rto);
                // The acks owed to the target ride along.
                let bytes = datagram_to(&mut s.owed, *target, Some((seq, wire_ctx, payload)));
                Some((s.site, wire_ctx, bytes))
            });
            if let Some((site, wire_ctx, bytes)) = frame {
                ctx_send(&tracer, site, *target, wire_ctx);
                net.send(site, *target, bytes);
            }
            Ok(())
        });
    }

    // One body, registered per entry event with only its classes' triggers.
    let recv_data = |b: &mut StackBuilder, e: EventType, name: &str, classes: &[EventType]| {
        let state = state.clone();
        let net = Arc::clone(&net);
        let events = *ev;
        b.bind_with_triggers(e, pid, name, classes, move |ctx, data| {
            let m: &RcDataIn = data.expect(e)?;
            let (me, deliver, overflow) = state.with(ctx, |s| {
                s.apply_acks(m.sender, &m.acks);
                // Learn the operation's hop distance so frames this site
                // forwards on the operation's behalf carry hop + 1 — if it
                // is traced: an untraced site attaches no context
                // (`ctx_for`), so it has nothing to learn one for.
                if let (Some(c), Some(_)) = (m.ctx, &s.tracer) {
                    let uid = MsgUid {
                        origin: c.origin,
                        seq: c.op,
                    };
                    s.ctx_hops.learn(uid, c.hop);
                }
                // The dedup filter is the exactly-once guarantee.
                let fresh = s.rx.fresh(m.sender, m.seq);
                // Always owe an ack — even for duplicates (the original ack
                // may be lost). It rides the next datagram to the sender, or
                // leaves on its own by its deadline or with a full list.
                let now = s.clock.now();
                let owed = s.owed.entry(m.sender).or_insert_with(|| Owed {
                    seqs: Vec::new(),
                    since: now,
                });
                if owed.seqs.is_empty() {
                    owed.since = now;
                    s.alarm.arm(now + ACK_DELAY);
                }
                owed.seqs.push(m.seq);
                let overflow =
                    (owed.len() >= OWED_ACK_CAP).then(|| datagram_to(&mut s.owed, m.sender, None));
                // Deliver only from in-view senders (paper's recv).
                (s.site, fresh && s.view.contains(m.sender), overflow)
            });
            if let Some(bytes) = overflow {
                net.send(me, m.sender, bytes);
            }
            let up = if deliver {
                delivery(&events, m.sender, &m.payload)
            } else {
                None
            };
            if let Some((class, data)) = up {
                ctx.async_trigger_all(class, data)?;
            }
            Ok(())
        });
    };
    let classes = [
        ev.from_rcomm_request,
        ev.from_rcomm_propose,
        ev.from_rcomm_cons,
        ev.from_rcomm_sync,
    ];
    recv_data(
        b,
        ev.rc_data_user,
        "relcomm.recv_data_user",
        &[ev.from_rcomm_user],
    );
    recv_data(b, ev.rc_data, "relcomm.recv_data", &classes);

    {
        let state = state.clone();
        let e = ev.rc_ack;
        b.bind_with_triggers(e, pid, "relcomm.recv_ack", &[], move |ctx, data| {
            let a: &RcAckIn = data.expect(e)?;
            state.with(ctx, |s| s.apply_acks(a.sender, &a.seqs));
            Ok(())
        });
    }

    {
        let state = state.clone();
        let net = Arc::clone(&net);
        let e = ev.retransmit_tick;
        b.bind_with_triggers(e, pid, "relcomm.retransmit", &[], move |ctx, _| {
            let (me, out) = state.with(ctx, |s| {
                let now = s.clock.now();
                // Purge pending messages to departed sites.
                let view = &s.view;
                s.tx.retain_peers(|target| view.contains(target));
                let mut out = Vec::new();
                // Never draining: acks leave batched, up to ACK_DELAY late.
                s.tx.due(
                    now,
                    |_| false,
                    |target, seq, attempts, (payload, ctx)| {
                        s.instruments.retransmits.inc();
                        if let Some(t) = &s.tracer {
                            t.emit(samoa_core::TraceKind::Retransmit {
                                site: t.site().0,
                                to: target.0,
                                attempts,
                            });
                        }
                        // The first resend to a target takes its owed acks.
                        let bytes = datagram_to(&mut s.owed, target, Some((seq, *ctx, payload)));
                        out.push((target, *ctx, bytes));
                    },
                );
                // Whatever no data datagram took along goes out on its own,
                // one datagram per peer.
                for (&peer, acks) in &mut s.owed {
                    if !acks.seqs.is_empty() {
                        out.push((peer, None, datagram(None, &acks.seqs)));
                        acks.seqs.clear();
                    }
                }
                // What is still unacknowledged is due again later.
                if let Some(at) = s.next_due() {
                    s.arm(at);
                }
                (s.site, out)
            });
            for (target, wire_ctx, bytes) in out {
                ctx_send(&tracer, me, target, wire_ctx);
                net.send(me, target, bytes);
            }
            Ok(())
        });
    }

    {
        let state = state.clone();
        let e = ev.view_change;
        b.bind_with_triggers(e, pid, "relcomm.view_change", &[], move |ctx, data| {
            let v: &GroupView = data.expect(e)?;
            state.with(ctx, |s| {
                s.view = v.clone();
                // Finite buffers: nothing stays queued for a departed site,
                // neither unacknowledged messages nor the acks owed to it.
                // (A frame it still sends afterwards is acked as before.)
                let view = &s.view;
                s.tx.retain_peers(|target| view.contains(target));
                s.owed.retain(|peer, _| view.contains(*peer));
            });
            Ok(())
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Site 0's RelComm alone, over a manual two-site network and clock,
    /// traced into `trace` or not (a tracer installed in its state before
    /// `register`, as `Node` does).
    struct Lone {
        rt: Runtime,
        pid: ProtocolId,
        ev: Events,
        state: ProtocolState<RelCommState>,
        trace: Arc<samoa_core::TraceBuffer>,
        clock: ProtoClock,
        net: samoa_net::SimNet,
    }

    impl Lone {
        fn new(traced: bool) -> Lone {
            let net = samoa_net::SimNet::new_manual(2, samoa_net::NetConfig::fast(1));
            let mut b = StackBuilder::new();
            let pid = b.protocol("RelComm");
            let ev = Events::declare(&mut b);
            let clock = ProtoClock::manual();
            let mut st = RelCommState::with_clock(SiteId(0), GroupView::of_first(2), clock.clone());
            let trace = samoa_core::TraceBuffer::new();
            let sink = Arc::clone(&trace) as Arc<dyn samoa_core::TraceSink>;
            st.tracer = traced.then(|| ClusterTracer::new(SiteId(0), sink, clock.now()));
            let state = ProtocolState::new(pid, st);
            register(&mut b, pid, &ev, state.clone(), Arc::new(net.handle()));
            let rt = Runtime::new(b.build());
            Lone {
                rt,
                pid,
                ev,
                state,
                trace,
                clock,
                net,
            }
        }

        fn trigger(&self, event: EventType, data: EventData) {
            self.rt
                .run(Decl::Basic(&[self.pid]), |ctx| ctx.trigger(event, data))
                .expect("relcomm");
        }

        /// An inbound data frame from site 1, serving its operation `op`.
        fn recv(&self, op: u64, ctx: Option<TraceCtx>) {
            let m = RcDataIn {
                sender: SiteId(1),
                seq: op,
                ctx,
                payload: cast(SiteId(1), op),
                acks: Vec::new(),
            };
            self.trigger(self.ev.rc_data_user, EventData::new(m));
        }

        /// `CtxSend` events emitted since the last call.
        fn ctx_sends(&self) -> usize {
            self.trace
                .drain()
                .iter()
                .filter(|e| matches!(e.kind, samoa_core::TraceKind::CtxSend { .. }))
                .count()
        }
    }

    /// A user cast, operation `op` of `origin`.
    fn cast(origin: SiteId, op: u64) -> Payload {
        let data = crate::msgs::CastData::User(Bytes::new());
        let uid = MsgUid { origin, seq: op };
        Payload::Cast(crate::msgs::CastMsg { uid, data })
    }

    /// Site 0's RelComm fed `frames` inbound data frames from site 1: one
    /// fresh operation per frame, each carrying a causal context at hop 2 —
    /// what every site sees under load from traced peers.
    fn fed(traced: bool, frames: u64) -> ProtocolState<RelCommState> {
        let lone = Lone::new(traced);
        for op in 1..=frames {
            let origin = SiteId(1);
            lone.recv(op, Some(TraceCtx { origin, op, hop: 2 }));
        }
        lone.state
    }

    /// What a frame serving operation `op` of site 1 would carry.
    fn ctx_of(s: &RelCommState, op: u64) -> Option<TraceCtx> {
        s.ctx_for(&cast(SiteId(1), op))
    }

    #[test]
    fn ctx_hops_stays_bounded_through_recv_data() {
        let ops = 10 * CTX_HOPS_CAP as u64;
        fed(true, ops).read(|s| {
            assert_eq!(s.ctx_hops.hops.len(), CTX_HOPS_CAP);
            assert_eq!(s.ctx_hops.order.len(), CTX_HOPS_CAP);
            // The newest operation is remembered, an evicted one reads as
            // locally originated.
            assert_eq!(ctx_of(s, ops).map(|c| c.hop), Some(3));
            assert_eq!(ctx_of(s, 1).map(|c| c.hop), Some(0));
            // The owed-ack list is bounded by its cap the same way.
            assert!(s.owed.values().all(|v| v.len() < OWED_ACK_CAP));
        });
    }

    #[test]
    fn an_untraced_site_learns_no_hops_and_attaches_no_context() {
        // Even fed contexts by traced peers: nothing is learned, nothing is
        // attached, and delivery is what it was.
        fed(false, 100).read(|s| {
            assert!(s.ctx_hops.hops.is_empty() && s.ctx_hops.order.is_empty());
            assert_eq!(ctx_of(s, 100), None);
            assert_eq!(s.rx.floor(SiteId(1)), 100);
        });
    }

    /// A traced site emits one `CtxSend` per datagram whose data frame
    /// carries a context, first sends and resends alike, right before the
    /// send; a datagram of acks alone emits none.
    #[test]
    fn ctx_send_is_emitted_once_per_context_carrying_datagram() {
        let lone = Lone::new(true);
        let to_site_1 = EventData::new((cast(SiteId(0), 1), SiteId(1)));
        lone.trigger(lone.ev.send_out, to_site_1);
        assert_eq!((lone.net.pending(), lone.ctx_sends()), (1, 1), "send");

        lone.clock.advance(RTO * 2);
        lone.trigger(lone.ev.retransmit_tick, EventData::empty());
        assert_eq!((lone.net.pending(), lone.ctx_sends()), (2, 1), "resend");

        // A frame from site 1 leaves an ack owed; the next tick, before the
        // resent frame is due again, sends it on its own.
        lone.recv(1, None);
        lone.trigger(lone.ev.retransmit_tick, EventData::empty());
        assert_eq!(lone.state.read(|s| s.instruments.retransmits.get()), 1);
        assert_eq!((lone.net.pending(), lone.ctx_sends()), (3, 0), "ack");
    }

    /// RelComm's deadline on a manual clock: a frame sent at `t` is due for
    /// a resend at `t + RTO`, an ack owed since `t` leaves by
    /// `t + ACK_DELAY`, and once a tick has sent the owed acks and
    /// everything sent is acknowledged there is no deadline at all.
    #[test]
    fn next_due_is_the_earliest_resend_or_owed_ack() {
        let lone = Lone::new(false);
        let due = || lone.state.read(RelCommState::next_due);
        assert_eq!(due(), None, "nothing sent, nothing owed");

        let t = lone.clock.now();
        let to_site_1 = EventData::new((cast(SiteId(0), 1), SiteId(1)));
        lone.trigger(lone.ev.send_out, to_site_1);
        assert_eq!(due(), Some(t + RTO), "a send");

        lone.clock.advance(ACK_DELAY / 2);
        let t = lone.clock.now();
        lone.recv(1, None);
        assert_eq!(due(), Some(t + ACK_DELAY), "an owed ack");
        // A second ack owed to the same peer waits with the first.
        lone.clock.advance(ACK_DELAY / 2);
        lone.recv(2, None);
        assert_eq!(due(), Some(t + ACK_DELAY), "the first owed ack");

        let acked = RcAckIn {
            sender: SiteId(1),
            seqs: vec![1],
        };
        lone.trigger(lone.ev.rc_ack, EventData::new(acked));
        assert_eq!(due(), Some(t + ACK_DELAY), "the send is acknowledged");

        lone.clock.advance(ACK_DELAY);
        lone.trigger(lone.ev.retransmit_tick, EventData::empty());
        assert_eq!(lone.net.pending(), 2, "the send, then the owed acks");
        assert_eq!(due(), None, "all acknowledged, nothing owed");
    }

    #[test]
    fn state_counters_start_clean() {
        let s = RelCommState::with_clock(SiteId(0), GroupView::of_first(3), ProtoClock::wall());
        assert_eq!(s.pending_count(), 0);
        assert_eq!(s.instruments.retransmits.get(), 0);
        assert_eq!(s.view().len(), 3);
    }
}
