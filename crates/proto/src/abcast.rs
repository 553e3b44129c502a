//! Atomic broadcast — total-order broadcast via repeated consensus on
//! message batches (the classic Chandra–Toueg reduction; this is the
//! protocol the paper's §7 evaluation exercises).
//!
//! Each site accumulates undelivered requests in `pending` and proposes the
//! pending set for the next undecided consensus instance. Decisions arrive
//! as RelCast floods (`CastData::Decide`), are buffered per instance, and
//! are delivered in instance order — messages within a batch in `uid`
//! order — yielding the same total order at every site.
//!
//! What a decision makes deliverable goes up as runs, not one message at a
//! time: one `ADeliver` per maximal run of consecutive user messages (an
//! [`ARun`]), and a view operation — which ends a run — on `ADeliverView`
//! between the two runs it separates (`runs`). The total order of user
//! messages and view changes is the same as message by message; a handler
//! above applies a whole run in one call.
//!
//! Only round 0's coordinator proposes in round 0 (`consensus.rs`), so a
//! request must reach `view.coordinator(0)`; it need not reach every site.
//! Its origin sends it to every other member in a [`Payload::Request`]. A
//! site that is not the coordinator forwards the requests it receives first
//! to the coordinator, in one `Request`, unless the coordinator is their
//! origin or the copy's sender: both hold them already. With `n` sites a
//! `Request` costs at most `2n − 3` frames however many requests it packs,
//! and an origin that crashes after reaching a single site still gets its
//! requests ordered.
//!
//! An origin packs the requests it makes while one of its own is in
//! flight. A new request is sent at once unless a request this site sent
//! earlier is still undelivered here; then it is *held*. A held request is
//! in `pending` from the start, so a coordinator origin proposes it, and a
//! handover or a joiner's snapshot carries it. Each decision delivered here
//! sends everything still held and undelivered as one `Request` per peer.
//! A view operation is never held and takes what is held with it: a Leave
//! of a coordinator must not wait behind a request stuck at that
//! coordinator. The trigger is the request in flight, so no timer bounds
//! the hold and no size caps the pack: a held request waits for the
//! decision that was coming anyway, and with one request at a time
//! nothing is ever held.
//!
//! A request stays in `pending` until it is delivered, and that is what a
//! change of coordinator falls back on. When a view change moves round 0's
//! coordinator to a site that was already a member, every site sends it
//! its pending requests, in one `Request`: the one forward of a request may
//! have gone to the coordinator that left.
//!
//! A joiner is sent the ordering state by every incumbent: the next
//! instance, the delivered uids (as per-origin ranges: constant size however
//! long the group has run), and the incumbent's `pending` requests —
//! they were cast before the joiner was a member, no copy was sent its way,
//! and if the joiner sorts first in the view it is the one site that
//! proposes in round 0 (see `consensus.rs`).
//!
//! Requests and decisions travel as a [`Batch`], allocated once where it is
//! made and shared after that. A site makes one when it sends what it holds
//! (`flush`), forwards first receipts, hands its `pending` over, snapshots
//! it for a joiner, or proposes it; every target of the `Request` and the
//! `ConsPropose` event share that body. A decision arrives as the batch its
//! `Decide` was decoded into (or, at the site that decided, the batch
//! consensus proposed). `decides` buffers that same body, and `note_decide`
//! reads it in place, in `uid` order: every batch this stack builds is
//! sorted, so only one that is not is sorted, in a copy.

use std::collections::{BTreeMap, HashMap};
use std::ops::RangeInclusive;
use std::time::Instant;

use bytes::Bytes;
use samoa_core::prelude::*;
use samoa_core::TraceKind;
use samoa_net::SiteId;

use crate::events::Events;
use crate::msgs::{AbMsg, AbPayload, Batch, CastData, CastMsg, MsgUid, Payload, SyncMsg, UidSet};
use crate::observe::{AbcastInstruments, ClusterTracer};
use crate::relcomm::RDeliver;
use crate::view::{GroupView, ViewOp};

/// What one `ADeliver` carries: a run of consecutive user messages of the
/// total order, each with its uid, in delivery order. No view operation
/// falls between two of them.
pub type ARun = Vec<(MsgUid, Bytes)>;

/// One step of handing deliverable messages up, in total order.
#[derive(Debug, PartialEq, Eq)]
enum Delivery {
    /// A maximal run of user messages, for `ADeliver`.
    Run(ARun),
    /// The view operation that ended a run, for `ADeliverView`.
    View(ViewOp, SiteId),
}

/// Split a deliverable sequence into maximal runs of user messages, each
/// view operation on its own between the runs it separates. The parts, in
/// order, are the sequence in order.
fn runs(msgs: Vec<AbMsg>) -> impl Iterator<Item = Delivery> {
    let mut msgs = msgs
        .into_iter()
        .map(|m| match m.payload {
            AbPayload::User(bytes) => Ok((m.uid, bytes)),
            AbPayload::ViewOp(op, site) => Err((op, site)),
        })
        .peekable();
    std::iter::from_fn(move || match msgs.next()? {
        Err((op, site)) => Some(Delivery::View(op, site)),
        Ok(first) => {
            let mut run = Vec::with_capacity(1 + msgs.len());
            run.push(first);
            while let Some(Ok(m)) = msgs.next_if(|m| m.is_ok()) {
                run.push(m);
            }
            Some(Delivery::Run(run))
        }
    })
}

/// What installing a view sends: the joiners, the snapshot each of them
/// gets, and — when round 0's coordinator moved to an incumbent — that
/// coordinator with what is pending here (module docs). A joiner gets the
/// pending requests in the snapshot.
type Install = (Vec<SiteId>, SyncMsg, Option<(SiteId, Batch)>);

/// The local state of the atomic-broadcast microprotocol.
pub struct AbcastState {
    site: SiteId,
    view: GroupView,
    next_seq: u64,
    /// Requests received (or made here) but not yet delivered.
    pending: BTreeMap<MsgUid, AbMsg>,
    /// Requests made here up to this sequence number have been sent; those
    /// after it are held (module docs).
    sent_through: u64,
    /// Uids already delivered (for duplicate suppression): a range set per
    /// origin, like RelCast's `seen`, shipped to a joiner as its ranges.
    delivered: UidSet,
    /// Next undecided consensus instance.
    next_inst: u64,
    /// Out-of-order decisions buffered until their turn: the decided
    /// batches themselves, shared with the `Decide` that carried them.
    decides: BTreeMap<u64, Batch>,
    /// The instance we have already proposed for (avoid re-proposing).
    proposed_for: Option<u64>,
    /// When false, `note_decide` skips the
    /// instance-order buffering and delivers every arriving decision
    /// immediately — an **injected bug** for the fault explorer
    /// (`samoa-check`): a reordered `Decide` flood then produces divergent
    /// delivery prefixes across sites. Leave true everywhere else.
    pub order_enabled: bool,
    /// Submit times of locally originated requests, for delivery-lag
    /// accounting.
    submit_at: HashMap<u64, Instant>,
    /// Cluster tracer, when the node is traced (submit/deliver spans).
    pub tracer: Option<ClusterTracer>,
    /// Messages delivered, and the delivery lag of those made here.
    pub instruments: AbcastInstruments,
}

impl AbcastState {
    /// Fresh state for `site` with the given initial view.
    pub fn new(site: SiteId, view: GroupView) -> Self {
        AbcastState {
            site,
            view,
            next_seq: 0,
            pending: BTreeMap::new(),
            sent_through: 0,
            delivered: UidSet::default(),
            next_inst: 0,
            decides: BTreeMap::new(),
            proposed_for: None,
            order_enabled: true,
            submit_at: HashMap::new(),
            tracer: None,
            instruments: AbcastInstruments::default(),
        }
    }

    /// Number of requests awaiting ordering.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Next undecided instance number.
    pub fn next_instance(&self) -> u64 {
        self.next_inst
    }

    /// The delivered set as `(origin, lo, hi)` ranges.
    #[cfg(test)]
    pub(crate) fn delivered_ranges(&self) -> Vec<(SiteId, u64, u64)> {
        self.delivered.ranges()
    }

    /// Create a new request from this site. `(site, seq)` is the cluster
    /// operation id every downstream causal-context event refers back to.
    fn new_request(&mut self, payload: AbPayload) -> AbMsg {
        self.next_seq += 1;
        self.submit_at.insert(self.next_seq, Instant::now());
        if let Some(t) = &self.tracer {
            t.emit(TraceKind::ClientSubmit {
                site: self.site.0,
                op: self.next_seq,
            });
        }
        AbMsg {
            uid: MsgUid {
                origin: self.site,
                seq: self.next_seq,
            },
            payload,
        }
    }

    /// Emission-only accounting for a batch of just-delivered messages:
    /// delivered/lag instruments, and AbDeliver spans on a traced node.
    fn observe_delivered(&mut self, out: &[AbMsg]) {
        self.instruments.delivered.add(out.len() as u64);
        // Read once per batch, and only by the site that made a request in it.
        let mut now = None;
        for m in out {
            let lag = if m.uid.origin == self.site {
                let now = *now.get_or_insert_with(Instant::now);
                self.submit_at
                    .remove(&m.uid.seq)
                    .map(|t0| now.saturating_duration_since(t0))
            } else {
                None
            };
            if let Some(t) = &self.tracer {
                t.emit(TraceKind::AbDeliver {
                    site: self.site.0,
                    origin: m.uid.origin.0,
                    op: m.uid.seq,
                    lag_ns: lag.map_or(0, |d| d.as_nanos() as u64),
                });
            }
            if let Some(d) = lag {
                self.instruments.lag_us.observe(d.as_micros() as u64);
            }
        }
    }

    /// Record a request; returns true if it is new and undelivered — the
    /// first receipt.
    fn note_request(&mut self, m: &AbMsg) -> bool {
        if self.delivered.contains(&m.uid) || self.pending.contains_key(&m.uid) {
            return false;
        }
        self.pending.insert(m.uid, m.clone());
        true
    }

    /// Should we propose now? Returns the instance and value if so.
    fn proposal(&mut self) -> Option<(u64, Batch)> {
        if self.pending.is_empty() || self.proposed_for == Some(self.next_inst) {
            return None;
        }
        self.proposed_for = Some(self.next_inst);
        Some((self.next_inst, self.pending.values().cloned().collect()))
    }

    /// Make a request here and say what to send now, and to whom: the new
    /// request with whatever is held, to every peer — or nothing, when a
    /// user request is held behind one of ours still in flight.
    fn request(&mut self, payload: AbPayload) -> (Batch, Vec<SiteId>) {
        let hold = matches!(payload, AbPayload::User(_)) && self.in_flight();
        let m = self.new_request(payload);
        self.note_request(&m);
        if hold {
            (Batch::default(), Vec::new())
        } else {
            self.flush()
        }
    }

    /// This site's undelivered requests numbered within `seqs`.
    fn own(&self, seqs: RangeInclusive<u64>) -> impl Iterator<Item = &AbMsg> {
        let uid = |seq| MsgUid {
            origin: self.site,
            seq,
        };
        let uids = uid(*seqs.start())..=uid(*seqs.end());
        self.pending.range(uids).map(|(_, m)| m)
    }

    /// Is a request this site sent still undelivered here?
    fn in_flight(&self) -> bool {
        self.own(0..=self.sent_through).next().is_some()
    }

    /// Take what is held for sending: every request made here since the
    /// last send that is still undelivered, and the peers it goes to. Both
    /// empty when nothing is held.
    fn flush(&mut self) -> (Batch, Vec<SiteId>) {
        let held: Batch = self
            .own(self.sent_through + 1..=u64::MAX)
            .cloned()
            .collect();
        self.sent_through = self.next_seq;
        if held.is_empty() {
            return (held, Vec::new());
        }
        let peers = self.view.members().iter().copied();
        (held, peers.filter(|&p| p != self.site).collect())
    }

    /// Build the state-transfer snapshot for a joiner.
    fn snapshot(&self) -> SyncMsg {
        SyncMsg {
            next_inst: self.next_inst,
            delivered: self.delivered.ranges(),
            pending: self.pending.values().cloned().collect(),
            view_id: self.view.id,
            members: self.view.members().to_vec(),
        }
    }

    /// Adopt a state-transfer snapshot if it is ahead of us; returns true
    /// when adopted. Its pending requests are taken either way: incumbents
    /// need not hold the same set, and `delivered` is complete up to our
    /// own `next_inst`, so a stale snapshot cannot resurrect a request.
    fn apply_sync(&mut self, sync: &SyncMsg) -> bool {
        let adopted = sync.next_inst > self.next_inst;
        if adopted {
            self.next_inst = sync.next_inst;
            self.delivered.extend(&sync.delivered);
            let lim = self.next_inst;
            self.decides.retain(|&k, _| k >= lim);
            let delivered = &self.delivered;
            self.pending.retain(|uid, _| !delivered.contains(uid));
            self.proposed_for = None;
        }
        for m in &sync.pending {
            self.note_request(m);
        }
        adopted
    }

    /// Install the next view and say what that sends ([`Install`]).
    fn install(&mut self, v: &GroupView) -> Install {
        let joiners = v.members().iter().copied();
        let joiners = joiners
            .filter(|&m| m != self.site && !self.view.contains(m))
            .collect();
        let coord = v.coordinator(0);
        let handover = coord
            .filter(|&c| {
                c != self.site && coord != self.view.coordinator(0) && self.view.contains(c)
            })
            .map(|c| (c, self.pending.values().cloned().collect()));
        self.view = v.clone();
        (joiners, self.snapshot(), handover)
    }

    /// Buffer a decision; returns the messages now deliverable, in order.
    fn note_decide(&mut self, inst: u64, batch: Batch) -> Vec<AbMsg> {
        let mut out = Vec::new();
        if !self.order_enabled {
            // Injected bug (see `order_enabled`): deliver in arrival order.
            self.next_inst = self.next_inst.max(inst + 1);
            self.deliver(&batch, &mut out);
        } else {
            if inst >= self.next_inst {
                self.decides.entry(inst).or_insert(batch);
            }
            while let Some(batch) = self.decides.remove(&self.next_inst) {
                self.next_inst += 1;
                self.deliver(&batch, &mut out);
            }
        }
        self.observe_delivered(&out);
        out
    }

    /// Mark delivered what of `batch` is not yet, and append it to `out` in
    /// `uid` order. The batch is read where it is, shared with whoever else
    /// holds it; only one out of `uid` order, which no site of this stack
    /// builds, is sorted, in a copy.
    fn deliver(&mut self, batch: &Batch, out: &mut Vec<AbMsg>) {
        let mut sorted;
        let msgs: &[AbMsg] = if batch.is_sorted_by_key(|m| m.uid) {
            batch
        } else {
            sorted = batch.to_vec();
            sorted.sort_by_key(|m| m.uid);
            &sorted
        };
        out.reserve(msgs.len());
        for m in msgs {
            if self.delivered.insert(m.uid) {
                self.pending.remove(&m.uid);
                out.push(m.clone());
            }
        }
    }
}

/// Ask consensus to propose, if [`AbcastState::proposal`] said so.
fn propose(ctx: &Ctx, ev: &Events, proposal: Option<(u64, Batch)>) -> Result<()> {
    match proposal {
        Some(p) => ctx.trigger(ev.cons_propose, EventData::new(p)),
        None => Ok(()),
    }
}

/// Send `batch` to each of `to` as one packed [`Payload::Request`]: the one
/// place a request is put on its way. Every target's payload shares the
/// batch. Nothing when `batch` is empty.
fn send_requests(
    ctx: &Ctx,
    ev: &Events,
    batch: Batch,
    to: impl IntoIterator<Item = SiteId>,
) -> Result<()> {
    if batch.is_empty() {
        return Ok(());
    }
    let request = Payload::Request(batch);
    for target in to {
        ctx.trigger(ev.send_out, EventData::new((request.clone(), target)))?;
    }
    Ok(())
}

/// Register the atomic-broadcast microprotocol on the builder.
pub fn register(
    b: &mut StackBuilder,
    pid: ProtocolId,
    ev: &Events,
    state: ProtocolState<AbcastState>,
) {
    let events = *ev;

    {
        let state = state.clone();
        let e = ev.abcast;
        let triggers = [ev.send_out, ev.cons_propose];
        let h = b.bind_with_triggers(e, pid, "abcast.request", &triggers, move |ctx, data| {
            let payload: &AbPayload = data.expect(e)?;
            let ((batch, peers), proposal) = state.with(ctx, |s| {
                let send = s.request(payload.clone());
                (send, s.proposal())
            });
            // To every other member unless held; our own copy is in
            // `pending`.
            send_requests(ctx, &events, batch, peers)?;
            propose(ctx, &events, proposal)
        });
        // One `SendOut` per peer.
        b.declare_fan_out(h, &[ev.send_out]);
    }

    {
        let state = state.clone();
        let e = ev.from_rcomm_request;
        let triggers = [ev.send_out, ev.cons_propose];
        b.bind_with_triggers(e, pid, "abcast.on_request", &triggers, move |ctx, data| {
            let d: &RDeliver<Batch> = data.expect(e)?;
            let (coord, forward, proposal) = state.with(ctx, |s| {
                // First receipts go on to round 0's coordinator — unless
                // that is us, or it holds them already.
                let coord = s
                    .view
                    .coordinator(0)
                    .filter(|&c| c != s.site && c != d.sender);
                let mut forward = Vec::new();
                for m in &d.payload {
                    if s.note_request(m) && coord.is_some_and(|c| c != m.uid.origin) {
                        forward.push(m.clone());
                    }
                }
                (coord, Batch::from(forward), s.proposal())
            });
            send_requests(ctx, &events, forward, coord)?;
            propose(ctx, &events, proposal)
        });
    }

    {
        let state = state.clone();
        let e = ev.deliver_out;
        let triggers = [ev.cons_gc, ev.cons_propose, ev.send_out];
        let h = b.bind_with_triggers(e, pid, "abcast.on_deliver", &triggers, move |ctx, data| {
            let msg: &CastMsg = data.expect(e)?;
            // RelCast delivers plain user casts on `DeliverUser`, and no
            // request rides it.
            let CastData::Decide { inst, batch } = &msg.data else {
                return Err(SamoaError::WrongPayloadType {
                    event: e,
                    expected: "CastData::Decide",
                });
            };
            let (deliverable, gc_below, proposal) = state.with(ctx, |s| {
                let out = s.note_decide(*inst, batch.clone());
                (out, s.next_inst, s.proposal())
            });
            let decided = !deliverable.is_empty();
            // Deliver in total order — synchronously, so the order is
            // preserved end to end — each part on its class's event.
            for part in runs(deliverable) {
                match part {
                    Delivery::Run(run) => ctx.trigger_all(events.adeliver, EventData::new(run))?,
                    Delivery::View(op, site) => {
                        ctx.trigger_all(events.adeliver_view, EventData::new((op, site)))?
                    }
                }
            }
            if decided {
                // What is held here goes now, to the view the decision left
                // installed.
                let (held, peers) = state.with(ctx, |s| s.flush());
                send_requests(ctx, &events, held, peers)?;
            }
            ctx.trigger(events.cons_gc, EventData::new(gc_below))?;
            propose(ctx, &events, proposal)
        });
        // A `Decide` can release a whole backlog of deliveries, as runs
        // split by view operations, and what is held goes to every peer.
        b.declare_fan_out(h, &[ev.adeliver, ev.adeliver_view, ev.send_out]);
    }

    {
        let state = state.clone();
        let e = ev.from_rcomm_sync;
        let triggers = [ev.view_sync, ev.cons_gc, ev.cons_propose];
        b.bind_with_triggers(e, pid, "abcast.on_sync", &triggers, move |ctx, data| {
            let sync = &data.expect::<RDeliver<SyncMsg>>(e)?.payload;
            let (adopted, proposal) = state.with(ctx, |s| {
                let adopted = s.apply_sync(sync);
                (adopted, s.proposal())
            });
            if adopted {
                // The joiner cannot learn the view through ADeliver (it
                // missed the prefix); membership installs it directly.
                ctx.trigger(events.view_sync, EventData::new(sync.clone()))?;
                ctx.trigger(events.cons_gc, EventData::new(sync.next_inst))?;
            }
            propose(ctx, &events, proposal)
        });
    }

    {
        let state = state.clone();
        let e = ev.view_change;
        let h = b.bind_with_triggers(e, pid, "abcast.view_change", &[], move |ctx, data| {
            let v: &GroupView = data.expect(e)?;
            let (joiners, snapshot, handover) = state.with(ctx, |s| s.install(v));
            // Every incumbent sends the joiner the ordering state —
            // redundant but loss-tolerant; adoption is idempotent, and the
            // pending sets add up.
            for j in joiners {
                ctx.trigger(
                    events.send_out,
                    EventData::new((Payload::Sync(snapshot.clone()), j)),
                )?;
            }
            if let Some((coord, pending)) = handover {
                send_requests(ctx, &events, pending, [coord])?;
            }
            Ok(())
        });
        // One `SendOut` per joiner, and one to a new coordinator.
        b.declare_fan_out(h, &[ev.send_out]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn st() -> AbcastState {
        AbcastState::new(SiteId(0), GroupView::of_first(3))
    }

    fn m(origin: u16, seq: u64) -> AbMsg {
        AbMsg {
            uid: MsgUid {
                origin: SiteId(origin),
                seq,
            },
            payload: AbPayload::User(Bytes::from_static(b"x")),
        }
    }

    #[test]
    fn requests_accumulate_and_propose_once() {
        let mut s = st();
        assert!(s.note_request(&m(1, 1)));
        assert!(!s.note_request(&m(1, 1)), "duplicate accepted");
        assert!(s.note_request(&m(2, 1)));
        let (inst, v) = s.proposal().unwrap();
        assert_eq!(inst, 0);
        assert_eq!(v.len(), 2);
        assert!(s.proposal().is_none(), "re-proposed same instance");
    }

    #[test]
    fn decide_delivers_in_uid_order_and_unblocks_next() {
        let mut s = st();
        s.note_request(&m(2, 1));
        s.note_request(&m(1, 1));
        let out = s.note_decide(0, Batch::from(vec![m(2, 1), m(1, 1)]));
        assert_eq!(
            out.iter().map(|x| x.uid).collect::<Vec<_>>(),
            vec![m(1, 1).uid, m(2, 1).uid]
        );
        assert_eq!(s.pending_count(), 0);
        assert_eq!(s.next_instance(), 1);
    }

    #[test]
    fn out_of_order_decides_buffered() {
        let mut s = st();
        let out = s.note_decide(1, Batch::from(vec![m(1, 2)]));
        assert!(out.is_empty(), "delivered instance 1 before 0");
        let out = s.note_decide(0, Batch::from(vec![m(1, 1)]));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].uid, m(1, 1).uid);
        assert_eq!(out[1].uid, m(1, 2).uid);
        assert_eq!(s.next_instance(), 2);
    }

    #[test]
    fn duplicate_decide_ignored() {
        let mut s = st();
        let out = s.note_decide(0, Batch::from(vec![m(1, 1)]));
        assert_eq!(out.len(), 1);
        let out = s.note_decide(0, Batch::from(vec![m(1, 1)]));
        assert!(out.is_empty());
        assert_eq!(s.instruments.delivered.get(), 1);
    }

    #[test]
    fn message_in_two_batches_delivered_once() {
        let mut s = st();
        let out = s.note_decide(0, Batch::from(vec![m(1, 1), m(2, 1)]));
        assert_eq!(out.len(), 2);
        let out = s.note_decide(1, Batch::from(vec![m(1, 1), m(3, 1)]));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].uid.origin, SiteId(3));
    }

    #[test]
    fn proposal_resumes_after_decide_with_leftovers() {
        let mut s = st();
        s.note_request(&m(1, 1));
        s.note_request(&m(2, 1));
        let _ = s.proposal().unwrap();
        // Only m(1,1) got ordered in instance 0.
        let _ = s.note_decide(0, Batch::from(vec![m(1, 1)]));
        let (inst, v) = s.proposal().unwrap();
        assert_eq!(inst, 1);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].uid.origin, SiteId(2));
    }

    #[test]
    fn sync_hands_the_joiner_what_is_pending() {
        let mut incumbent = st();
        incumbent.note_request(&m(1, 1));
        incumbent.note_request(&m(2, 1));
        let _ = incumbent.note_decide(0, Batch::from(vec![m(1, 1)]));
        let snap = incumbent.snapshot();
        assert_eq!(snap.pending, Batch::from(vec![m(2, 1)]));

        let mut joiner = AbcastState::new(SiteId(3), GroupView::of_first(3));
        assert!(joiner.apply_sync(&snap));
        assert_eq!(joiner.proposal(), Some((1, Batch::from(vec![m(2, 1)]))));
        // A second incumbent's snapshot is not ahead, but what it alone has
        // pending is taken; what the joiner knows as delivered is not.
        let mut other = snap.clone();
        other.pending = Batch::from(vec![m(1, 1), m(2, 2)]);
        assert!(!joiner.apply_sync(&other));
        assert_eq!(joiner.pending_count(), 2);
    }

    fn view(seq: u64) -> AbMsg {
        AbMsg {
            uid: MsgUid {
                origin: SiteId(0),
                seq,
            },
            payload: AbPayload::ViewOp(ViewOp::Join, SiteId(9)),
        }
    }

    /// What `ADeliver` carries for `m(..)`.
    fn user(m: &AbMsg) -> (MsgUid, Bytes) {
        (m.uid, Bytes::from_static(b"x"))
    }

    #[test]
    fn runs_are_split_at_view_ops_and_keep_the_order() {
        let (u1, u2, u3) = (m(1, 1), m(2, 1), m(1, 2));
        let parts: Vec<_> = runs(vec![u1.clone(), u2.clone(), view(1), u3.clone()]).collect();
        assert_eq!(
            parts,
            [
                Delivery::Run(vec![user(&u1), user(&u2)]),
                Delivery::View(ViewOp::Join, SiteId(9)),
                Delivery::Run(vec![user(&u3)]),
            ]
        );
        assert_eq!(runs(Vec::new()).count(), 0);
        assert_eq!(
            runs(vec![view(1)]).collect::<Vec<_>>(),
            [Delivery::View(ViewOp::Join, SiteId(9))]
        );
        // Two view ops in a row have no run between them.
        assert_eq!(
            runs(vec![view(1), view(2), u1.clone()]).collect::<Vec<_>>(),
            [
                Delivery::View(ViewOp::Join, SiteId(9)),
                Delivery::View(ViewOp::Join, SiteId(9)),
                Delivery::Run(vec![user(&u1)]),
            ]
        );
    }

    /// A user request made at `s`, with the payload `m(..)` carries.
    fn make(s: &mut AbcastState) -> (Batch, Vec<SiteId>) {
        s.request(AbPayload::User(Bytes::from_static(b"x")))
    }

    fn nothing() -> (Batch, Vec<SiteId>) {
        (Batch::default(), Vec::new())
    }

    #[test]
    fn nothing_is_held_when_the_previous_request_was_delivered() {
        let mut s = st();
        for seq in 1..=3 {
            let (batch, to) = make(&mut s);
            assert_eq!(*batch, [m(0, seq)]);
            assert_eq!(to, [SiteId(1), SiteId(2)]);
            assert_eq!(s.note_decide(seq - 1, batch).len(), 1);
        }
    }

    #[test]
    fn a_flush_sends_what_is_held_and_still_undelivered() {
        let mut s = st();
        assert_eq!(*make(&mut s).0, [m(0, 1)]);
        // Held behind the first, but pending: a coordinator proposes them.
        for _ in 0..3 {
            assert_eq!(make(&mut s), nothing());
        }
        assert_eq!(s.proposal().map(|(_, v)| v.len()), Some(4));
        // A decision orders the first and one held: the flush sends the
        // other two, and then nothing is held.
        let _ = s.note_decide(0, Batch::from(vec![m(0, 1), m(0, 2)]));
        assert_eq!(
            s.flush(),
            (
                Batch::from(vec![m(0, 3), m(0, 4)]),
                vec![SiteId(1), SiteId(2)]
            )
        );
        assert_eq!(s.flush(), nothing());
        // Held and delivered before the next decision: nothing to send.
        assert_eq!(make(&mut s), nothing());
        let _ = s.note_decide(1, Batch::from(vec![m(0, 3), m(0, 4), m(0, 5)]));
        assert_eq!(s.flush(), nothing());
        assert_eq!(*make(&mut s).0, [m(0, 6)]);
    }

    #[test]
    fn a_view_op_is_never_held_and_takes_the_held_requests_with_it() {
        let mut s = st();
        let _ = make(&mut s);
        assert_eq!(make(&mut s), nothing());
        let (batch, to) = s.request(AbPayload::ViewOp(ViewOp::Leave, SiteId(2)));
        let leave = AbMsg {
            uid: m(0, 3).uid,
            payload: AbPayload::ViewOp(ViewOp::Leave, SiteId(2)),
        };
        assert_eq!(*batch, [m(0, 2), leave]);
        assert_eq!(to, [SiteId(1), SiteId(2)]);
        // In flight as well: the next user request is held behind them.
        assert_eq!(make(&mut s), nothing());
    }

    #[test]
    fn the_joiner_snapshot_and_the_handover_carry_held_requests() {
        // Site 2 of {0, 1, 2}, one request in flight and one held.
        let mut s = AbcastState::new(SiteId(2), GroupView::of_first(3));
        let _ = make(&mut s);
        assert_eq!(make(&mut s), nothing());
        let ours = Batch::from(vec![m(2, 1), m(2, 2)]);
        // Site 3 joins and gets both; the coordinator stays.
        let joined = s.view.apply(ViewOp::Join, SiteId(3));
        let (joiners, snapshot, handover) = s.install(&joined);
        assert_eq!(joiners, [SiteId(3)]);
        assert_eq!(snapshot.pending, ours);
        assert_eq!(handover, None);
        // Site 0 leaves: site 1 coordinates round 0 and is handed both.
        let left = joined.apply(ViewOp::Leave, SiteId(0));
        let (joiners, _, handover) = s.install(&left);
        assert!(joiners.is_empty());
        assert_eq!(handover, Some((SiteId(1), ours)));
    }

    #[test]
    fn new_request_uids_are_unique_and_ordered() {
        let mut s = st();
        let a = s.new_request(AbPayload::User(Bytes::new()));
        let b = s.new_request(AbPayload::User(Bytes::new()));
        assert!(a.uid < b.uid);
        assert_eq!(a.uid.origin, SiteId(0));
    }
}
