//! Atomic broadcast — total-order broadcast via repeated consensus on
//! message batches (the classic Chandra–Toueg reduction; this is the
//! protocol the paper's §7 evaluation exercises).
//!
//! Each site accumulates undelivered requests in `pending` and proposes the
//! pending set for the next undecided consensus instance. Decisions come
//! from consensus on `ConsDecide` — at the coordinator in the computation
//! that decided, elsewhere in the one that received its `Decide` — are
//! buffered per instance, and are delivered in instance order — messages
//! within a batch in `uid` order — yielding the same total order at every
//! site.
//!
//! What a decision makes deliverable goes up as runs, not one message at a
//! time: one `ADeliver` per maximal run of consecutive user messages of a
//! decided batch (an [`ARun`], a range of the batch that shares its body),
//! and a view operation — which ends a run — on `ADeliverView` between the
//! two runs it separates (`deliver`). The total order of user messages and
//! view changes is the same as message by message; a handler above applies
//! a whole run in one call.
//!
//! Only round 0's coordinator proposes in round 0 (`consensus.rs`), so a
//! request must reach `view.coordinator(0)`; it need not reach every site.
//! The coordinator's own requests are in its `pending` from the start, and
//! its next `Propose` carries them to every follower: it sends no
//! [`Payload::Request`]. Any other origin sends its requests to every other
//! member in a `Request`. A site that is not the coordinator forwards the
//! requests it receives first to the coordinator, in one `Request`, unless
//! the coordinator is their origin or the copy's sender: both hold them
//! already. With `n` sites a `Request` costs at most `2n − 3` frames however
//! many requests it packs, and the coordinator's own requests cost none.
//!
//! A follower takes the requests a `Propose` carries into `pending` on first
//! receipt (`abcast.on_propose`), as a `Request` would have: it forwards
//! nothing, since the sender is the coordinator, and proposes nothing. So an
//! origin that crashes after reaching a single site — with its `Request`,
//! or, the coordinator, with its `Propose` — still gets its requests
//! ordered, and what a handover or a joiner's snapshot carries is the same
//! as when every origin sent a `Request`.
//!
//! An origin packs the requests it makes while one of its own is in
//! flight. A new request is sent at once unless a request this site sent
//! earlier is still undelivered here; then it is *held*. A held request is
//! in `pending` from the start, so a coordinator origin proposes it, and a
//! handover or a joiner's snapshot carries it. Each decision delivered here
//! sends everything still held and undelivered as one `Request` per peer —
//! from a follower: round 0's coordinator sends nothing (`flush`). A view
//! operation is never held and takes what is held with it: a Leave
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
//! have gone to the coordinator that left. A coordinator that steps down
//! while a request of its own is pending hands it on the same way — to a
//! successor that was a member, or in the snapshot to a joiner that sorts
//! first — since no `Request` ever carried it.
//!
//! A joiner is sent the ordering state by every incumbent: the next
//! instance, the delivered uids (as per-origin ranges: constant size however
//! long the group has run), and the incumbent's `pending` requests —
//! they were cast before the joiner was a member, no copy was sent its way,
//! and if the joiner sorts first in the view it is the one site that
//! proposes in round 0 (see `consensus.rs`). The snapshot is cut when the
//! delivery that installed the view ends (`installed`), not at each view
//! operation: a batch may join two sites, and both must get the view the
//! whole batch leaves installed, not the one between its two operations.
//!
//! Requests and decisions travel as a [`Batch`], allocated once where it is
//! made and shared after that. A site makes one when it sends what it holds
//! (`flush`), forwards first receipts, hands its `pending` over, snapshots
//! it for a joiner, or proposes it; every target of the `Request` and the
//! `ConsPropose` event share that body. A decision arrives as the batch
//! consensus holds: the one a `Propose` or `Decide` was decoded into, or, at
//! the site that decided, the one it proposed. `decides` buffers that same
//! body, and `note_decide` reads it in place, in `uid` order, and cuts its
//! runs from it: every batch this stack builds is sorted, so only one that
//! is not is sorted, in a copy. A batch collected from `pending` is written
//! straight into its one allocation (`Batch::filled`), not built in a `Vec`
//! and copied.

use std::collections::{BTreeMap, HashMap};
use std::ops::{Range, RangeInclusive};
use std::time::Instant;

use bytes::Bytes;
use samoa_core::prelude::*;
use samoa_core::TraceKind;
use samoa_net::SiteId;

use crate::events::Events;
use crate::msgs::{AbMsg, AbPayload, Batch, ConsMsg, MsgUid, Payload, SyncMsg, UidSet};
use crate::observe::{AbcastInstruments, ClusterTracer};
use crate::relcomm::RDeliver;
use crate::view::{GroupView, ViewOp};

/// What one `ADeliver` carries: a run of consecutive user messages of the
/// total order, in delivery order, with no view operation between two of
/// them. It is cut from the decided batch that holds it: a range of the
/// batch, sharing its body, not a copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ARun {
    batch: Batch,
    range: Range<usize>,
}

impl ARun {
    /// The run's messages, each with its uid, in delivery order.
    pub fn iter(&self) -> impl Iterator<Item = (MsgUid, &Bytes)> {
        let msgs = self.batch.get(self.range.clone()).unwrap_or_default();
        msgs.iter().filter_map(|m| match &m.payload {
            AbPayload::User(bytes) => Some((m.uid, bytes)),
            AbPayload::ViewOp(..) => None,
        })
    }
}

/// One step of handing deliverable messages up, in total order.
#[derive(Debug, PartialEq, Eq)]
enum Delivery {
    /// A maximal run of user messages, for `ADeliver`.
    Run(ARun),
    /// The view operation that ended a run, for `ADeliverView`.
    View(ViewOp, SiteId),
}

/// What installing views sends: the joiners, the snapshot each of them
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
    /// Joiners of the views installed by the delivery under way, owed a
    /// snapshot at its end ([`AbcastState::installed`]).
    joiners: Vec<SiteId>,
    /// An incumbent that became round 0's coordinator in one of those
    /// views, owed what is pending here.
    new_coord: Option<SiteId>,
    /// When false, `note_decide` skips the
    /// instance-order buffering and delivers every arriving decision
    /// immediately — an **injected bug** for the fault explorer
    /// (`samoa-check`): reordered `Decide`s then produce divergent delivery
    /// prefixes across sites. Leave true everywhere else.
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
            joiners: Vec::new(),
            new_coord: None,
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

    /// Emission-only accounting for a just-delivered message: the delivered
    /// and lag instruments, and an AbDeliver span on a traced node. `now`
    /// is read once per batch, and only by the site that made a request in
    /// it.
    fn observe_delivered(&mut self, m: &AbMsg, now: &mut Option<Instant>) {
        self.instruments.delivered.inc();
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

    /// Record a request; returns true if it is new and undelivered — the
    /// first receipt.
    fn note_request(&mut self, m: &AbMsg) -> bool {
        if self.delivered.contains(&m.uid) || self.pending.contains_key(&m.uid) {
            return false;
        }
        self.pending.insert(m.uid, m.clone());
        true
    }

    /// Take the requests a `Propose` carries into `pending`, as if a
    /// `Request` had brought them (module docs).
    fn adopt(&mut self, value: &Batch) {
        for m in value {
            self.note_request(m);
        }
    }

    /// Should we propose now? Returns the instance and value if so.
    fn proposal(&mut self) -> Option<(u64, Batch)> {
        if self.pending.is_empty() || self.proposed_for == Some(self.next_inst) {
            return None;
        }
        self.proposed_for = Some(self.next_inst);
        Some((self.next_inst, self.pending_batch()))
    }

    /// Every request pending here, in one batch.
    fn pending_batch(&self) -> Batch {
        let mut pending = self.pending.values();
        Batch::filled(self.pending.len(), || pending.next().cloned())
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
    /// empty when nothing is held, and at round 0's coordinator.
    fn flush(&mut self) -> (Batch, Vec<SiteId>) {
        let seqs = std::mem::replace(&mut self.sent_through, self.next_seq) + 1..=u64::MAX;
        if self.view.coordinator(0) == Some(self.site) {
            // Its next `Propose` carries them to every peer (module docs).
            return (Batch::default(), Vec::new());
        }
        let mut held = self.own(seqs.clone());
        let held = Batch::filled(self.own(seqs).count(), || held.next().cloned());
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
            pending: self.pending_batch(),
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

    /// Install the next view. What that sends waits for the end of the
    /// delivery that installed it ([`AbcastState::installed`]): one batch
    /// may hold several view operations, and a joiner's snapshot is cut at
    /// the batch's end, with the view the whole batch leaves installed.
    fn install(&mut self, v: &GroupView) {
        let joiners = v.members().iter().copied();
        let joiners = joiners.filter(|&m| m != self.site && !self.view.contains(m));
        self.joiners.extend(joiners);
        let coord = v.coordinator(0);
        if coord != self.view.coordinator(0) {
            self.new_coord = coord.filter(|&c| c != self.site && self.view.contains(c));
        }
        self.view = v.clone();
    }

    /// What the views installed since the last call send ([`Install`]), if
    /// they send anything: to each joiner still a member, and to an
    /// incumbent still round 0's coordinator.
    fn installed(&mut self) -> Option<Install> {
        if self.joiners.is_empty() && self.new_coord.is_none() {
            return None;
        }
        let mut joiners = std::mem::take(&mut self.joiners);
        joiners.retain(|&j| self.view.contains(j));
        let coord = self.view.coordinator(0);
        let handover = self.new_coord.take().filter(|&c| coord == Some(c));
        let handover = handover.map(|c| (c, self.pending_batch()));
        Some((joiners, self.snapshot(), handover))
    }

    /// Buffer a decision; returns what is now deliverable, in order.
    fn note_decide(&mut self, inst: u64, batch: Batch) -> Vec<Delivery> {
        let mut out = Vec::new();
        if !self.order_enabled {
            // Injected bug (see `order_enabled`): deliver in arrival order.
            self.next_inst = self.next_inst.max(inst + 1);
            self.deliver(batch, &mut out);
        } else {
            if inst >= self.next_inst {
                self.decides.entry(inst).or_insert(batch);
            }
            while let Some(batch) = self.decides.remove(&self.next_inst) {
                self.next_inst += 1;
                self.deliver(batch, &mut out);
            }
        }
        out
    }

    /// Mark delivered what of `batch` is not yet, and append it to `out` in
    /// `uid` order: each maximal run of user messages delivered here as one
    /// [`ARun`] on the batch, each view operation as a step of its own. The
    /// batch is read where it is, shared with whoever else holds it; only
    /// one out of `uid` order, which no site of this stack builds, is
    /// sorted, in a copy.
    fn deliver(&mut self, batch: Batch, out: &mut Vec<Delivery>) {
        let batch = if batch.is_sorted_by_key(|m| m.uid) {
            batch
        } else {
            let mut sorted = batch.to_vec();
            sorted.sort_by_key(|m| m.uid);
            Batch::from(sorted)
        };
        // Steps before `from` are earlier batches': no run continues one.
        let (mut now, from) = (None, out.len());
        for (i, m) in batch.iter().enumerate() {
            if !self.delivered.insert(m.uid) {
                continue;
            }
            self.pending.remove(&m.uid);
            self.observe_delivered(m, &mut now);
            match (&m.payload, out.get_mut(from..).and_then(<[_]>::last_mut)) {
                (AbPayload::ViewOp(op, site), _) => out.push(Delivery::View(*op, *site)),
                (AbPayload::User(_), Some(Delivery::Run(run))) if run.range.end == i => {
                    run.range.end += 1;
                }
                (AbPayload::User(_), _) => out.push(Delivery::Run(ARun {
                    batch: batch.clone(),
                    range: i..i + 1,
                })),
            }
        }
    }
}

/// Ask consensus to propose, if [`AbcastState::proposal`] said so.
fn propose(ctx: &Ctx<'_>, ev: &Events, proposal: Option<(u64, Batch)>) -> Result<()> {
    match proposal {
        Some(p) => ctx.trigger(ev.cons_propose, EventData::new(p)),
        None => Ok(()),
    }
}

/// Send `batch` to each of `to` as one packed [`Payload::Request`]: the one
/// place a request is put on its way. Every target's payload shares the
/// batch. Nothing when `batch` is empty.
fn send_requests(
    ctx: &Ctx<'_>,
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

/// Send what installing views owes ([`Install`]): each joiner the snapshot
/// — every incumbent sends one, redundant but loss-tolerant: adoption is
/// idempotent, and the pending sets add up — and a new coordinator what is
/// pending here.
fn send_installed(ctx: &Ctx<'_>, ev: &Events, install: Option<Install>) -> Result<()> {
    let Some((joiners, snapshot, handover)) = install else {
        return Ok(());
    };
    for j in joiners {
        let sync = Payload::Sync(snapshot.clone());
        ctx.trigger(ev.send_out, EventData::new((sync, j)))?;
    }
    if let Some((coord, pending)) = handover {
        send_requests(ctx, ev, pending, [coord])?;
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
        let e = ev.from_rcomm_propose;
        b.bind_with_triggers(e, pid, "abcast.on_propose", &[], move |ctx, data| {
            let d: &RDeliver<ConsMsg> = data.expect(e)?;
            // Round 0's coordinator sent its own requests in nothing else.
            if let ConsMsg::Propose { value, .. } = &d.payload {
                state.with(ctx, |s| s.adopt(value));
            }
            Ok(())
        });
    }

    {
        let state = state.clone();
        let e = ev.cons_decide;
        let triggers = [ev.cons_gc, ev.cons_propose, ev.send_out];
        let h = b.bind_with_triggers(e, pid, "abcast.on_deliver", &triggers, move |ctx, data| {
            let (inst, batch): &(u64, Batch) = data.expect(e)?;
            let (deliverable, gc_below, proposal) = state.with(ctx, |s| {
                let out = s.note_decide(*inst, batch.clone());
                (out, s.next_inst, s.proposal())
            });
            let decided = !deliverable.is_empty();
            // Deliver in total order — synchronously, so the order is
            // preserved end to end — each part on its class's event.
            for part in deliverable {
                match part {
                    Delivery::Run(run) => ctx.trigger_all(events.adeliver, EventData::new(run))?,
                    Delivery::View(op, site) => {
                        ctx.trigger_all(events.adeliver_view, EventData::new((op, site)))?
                    }
                }
            }
            if decided {
                // What the views the decision installed owe goes now, and
                // then what is held here, to the view it left installed.
                let (install, (held, peers)) = state.with(ctx, |s| (s.installed(), s.flush()));
                send_installed(ctx, &events, install)?;
                send_requests(ctx, &events, held, peers)?;
            }
            ctx.trigger(events.cons_gc, EventData::new(gc_below))?;
            propose(ctx, &events, proposal)
        });
        // A `Decide` can release a whole backlog of deliveries, as runs
        // split by view operations; what is held goes to every peer, and a
        // snapshot to every joiner.
        b.declare_fan_out(h, &[ev.adeliver, ev.adeliver_view, ev.send_out]);
    }

    {
        let state = state.clone();
        let e = ev.from_rcomm_sync;
        let triggers = [ev.view_sync, ev.send_out, ev.cons_gc, ev.cons_propose];
        let h = b.bind_with_triggers(e, pid, "abcast.on_sync", &triggers, move |ctx, data| {
            let sync = &data.expect::<RDeliver<SyncMsg>>(e)?.payload;
            let (adopted, proposal) = state.with(ctx, |s| {
                let adopted = s.apply_sync(sync);
                (adopted, s.proposal())
            });
            if adopted {
                // Consensus first drops what it held below the snapshot,
                // so the view change restarts none of it.
                ctx.trigger(events.cons_gc, EventData::new(sync.next_inst))?;
                // The joiner cannot learn the view through ADeliver (it
                // missed the prefix); membership installs it directly.
                ctx.trigger(events.view_sync, EventData::new(sync.clone()))?;
                let install = state.with(ctx, |s| s.installed());
                send_installed(ctx, &events, install)?;
            }
            propose(ctx, &events, proposal)
        });
        // The view it installs may owe a snapshot to each other joiner.
        b.declare_fan_out(h, &[ev.send_out]);
    }

    {
        let state = state.clone();
        let e = ev.view_change;
        b.bind_with_triggers(e, pid, "abcast.view_change", &[], move |ctx, data| {
            let v: &GroupView = data.expect(e)?;
            // What it sends waits for the delivery or state transfer that
            // installed it to end.
            state.with(ctx, |s| s.install(v));
            Ok(())
        });
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
        assert_eq!(uids(&out), [m(1, 1).uid, m(2, 1).uid]);
        assert_eq!(s.pending_count(), 0);
        assert_eq!(s.next_instance(), 1);
    }

    #[test]
    fn out_of_order_decides_buffered() {
        let mut s = st();
        let out = s.note_decide(1, Batch::from(vec![m(1, 2)]));
        assert!(out.is_empty(), "delivered instance 1 before 0");
        let out = s.note_decide(0, Batch::from(vec![m(1, 1)]));
        assert_eq!(uids(&out), [m(1, 1).uid, m(1, 2).uid]);
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
        assert_eq!(uids(&out).len(), 2);
        let out = s.note_decide(1, Batch::from(vec![m(1, 1), m(3, 1)]));
        assert_eq!(uids(&out), [m(3, 1).uid]);
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

    /// The uids of the user messages `out` delivers, in order.
    fn uids(out: &[Delivery]) -> Vec<MsgUid> {
        let runs = out.iter().filter_map(|d| match d {
            Delivery::Run(run) => Some(run.iter().map(|(uid, _)| uid)),
            Delivery::View(..) => None,
        });
        runs.flatten().collect()
    }

    #[test]
    fn runs_are_cut_from_the_batch_at_view_ops_and_duplicates() {
        let mut s = st();
        let join = |seq| AbMsg {
            uid: MsgUid {
                origin: SiteId(1),
                seq,
            },
            payload: AbPayload::ViewOp(ViewOp::Join, SiteId(9)),
        };
        // Delivered before: it cuts the run it falls in.
        let _ = s.note_decide(0, Batch::from(vec![m(2, 2)]));
        let batch = Batch::from(vec![
            m(1, 1),
            m(1, 2),
            join(3),
            join(4),
            m(1, 5),
            m(2, 1),
            m(2, 2),
            m(2, 3),
        ]);
        let out = s.note_decide(1, batch.clone());
        let run = |range| {
            Delivery::Run(ARun {
                batch: batch.clone(),
                range,
            })
        };
        let view = || Delivery::View(ViewOp::Join, SiteId(9));
        // Two view ops in a row have no run between them.
        assert_eq!(out, [run(0..2), view(), view(), run(4..6), run(7..8)]);
        // A run reads the decided batch's own bytes: shared, not copied.
        let Delivery::Run(first) = &out[0] else {
            unreachable!()
        };
        let AbPayload::User(bytes) = &batch[0].payload else {
            unreachable!()
        };
        assert!(first
            .iter()
            .next()
            .is_some_and(|(_, b)| std::ptr::eq(b, bytes)));
        assert!(s.note_decide(2, Batch::default()).is_empty());
    }

    /// A user request made at `s`, with the payload `m(..)` carries.
    fn make(s: &mut AbcastState) -> (Batch, Vec<SiteId>) {
        s.request(AbPayload::User(Bytes::from_static(b"x")))
    }

    fn nothing() -> (Batch, Vec<SiteId>) {
        (Batch::default(), Vec::new())
    }

    /// Site 1 of {0, 1, 2}: a follower, whose peers are sites 0 and 2.
    fn follower() -> AbcastState {
        AbcastState::new(SiteId(1), GroupView::of_first(3))
    }

    #[test]
    fn nothing_is_held_when_the_previous_request_was_delivered() {
        let mut s = follower();
        for seq in 1..=3 {
            let (batch, to) = make(&mut s);
            assert_eq!(*batch, [m(1, seq)]);
            assert_eq!(to, [SiteId(0), SiteId(2)]);
            assert_eq!(s.note_decide(seq - 1, batch).len(), 1);
        }
    }

    #[test]
    fn a_flush_sends_what_is_held_and_still_undelivered() {
        let mut s = follower();
        assert_eq!(*make(&mut s).0, [m(1, 1)]);
        // Held behind the first, but pending: a handover or a snapshot
        // carries them.
        for _ in 0..3 {
            assert_eq!(make(&mut s), nothing());
        }
        assert_eq!(s.proposal().map(|(_, v)| v.len()), Some(4));
        // A decision orders the first and one held: the flush sends the
        // other two, and then nothing is held.
        let _ = s.note_decide(0, Batch::from(vec![m(1, 1), m(1, 2)]));
        assert_eq!(
            s.flush(),
            (
                Batch::from(vec![m(1, 3), m(1, 4)]),
                vec![SiteId(0), SiteId(2)]
            )
        );
        assert_eq!(s.flush(), nothing());
        // Held and delivered before the next decision: nothing to send.
        assert_eq!(make(&mut s), nothing());
        let _ = s.note_decide(1, Batch::from(vec![m(1, 3), m(1, 4), m(1, 5)]));
        assert_eq!(s.flush(), nothing());
        assert_eq!(*make(&mut s).0, [m(1, 6)]);
    }

    #[test]
    fn a_view_op_is_never_held_and_takes_the_held_requests_with_it() {
        let mut s = follower();
        let _ = make(&mut s);
        assert_eq!(make(&mut s), nothing());
        let (batch, to) = s.request(AbPayload::ViewOp(ViewOp::Leave, SiteId(2)));
        let leave = AbMsg {
            uid: m(1, 3).uid,
            payload: AbPayload::ViewOp(ViewOp::Leave, SiteId(2)),
        };
        assert_eq!(*batch, [m(1, 2), leave]);
        assert_eq!(to, [SiteId(0), SiteId(2)]);
        // In flight as well: the next user request is held behind them.
        assert_eq!(make(&mut s), nothing());
    }

    #[test]
    fn the_coordinator_sends_no_request_and_proposes_its_own() {
        let mut s = st();
        // Neither a first request, nor a held one, nor a view operation
        // leaves in a `Request`: each is in the next proposal.
        assert_eq!(make(&mut s), nothing());
        assert_eq!(s.proposal(), Some((0, Batch::from(vec![m(0, 1)]))));
        assert_eq!(make(&mut s), nothing());
        let leave = AbMsg {
            uid: m(0, 3).uid,
            payload: AbPayload::ViewOp(ViewOp::Leave, SiteId(2)),
        };
        let (batch, to) = s.request(leave.payload.clone());
        assert_eq!((batch, to), nothing());
        let _ = s.note_decide(0, Batch::from(vec![m(0, 1)]));
        assert_eq!(s.flush(), nothing());
        assert_eq!(s.proposal(), Some((1, Batch::from(vec![m(0, 2), leave]))));
    }

    #[test]
    fn a_follower_adopts_what_a_propose_carries_once() {
        let mut s = AbcastState::new(SiteId(2), GroupView::of_first(3));
        s.note_request(&m(1, 1));
        // The coordinator's own request and one already pending here.
        s.adopt(&Batch::from(vec![m(0, 1), m(1, 1)]));
        assert_eq!(s.pending_batch(), Batch::from(vec![m(0, 1), m(1, 1)]));
        // Delivered, it is not adopted again from a late `Propose`.
        let _ = s.note_decide(0, Batch::from(vec![m(0, 1), m(1, 1)]));
        s.adopt(&Batch::from(vec![m(0, 1)]));
        assert_eq!(s.pending_count(), 0);
        // What it adopted goes in a joiner's snapshot, and to a successor.
        s.adopt(&Batch::from(vec![m(0, 2)]));
        assert_eq!(s.snapshot().pending, Batch::from(vec![m(0, 2)]));
        let left = s.view.apply(ViewOp::Leave, SiteId(0));
        s.install(&left);
        let (_, _, handover) = s.installed().unwrap();
        assert_eq!(handover, Some((SiteId(1), Batch::from(vec![m(0, 2)]))));
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
        s.install(&joined);
        let (joiners, snapshot, handover) = s.installed().unwrap();
        assert_eq!(joiners, [SiteId(3)]);
        assert_eq!(snapshot.pending, ours);
        assert_eq!(handover, None);
        // Site 0 leaves: site 1 coordinates round 0 and is handed both.
        let left = joined.apply(ViewOp::Leave, SiteId(0));
        s.install(&left);
        let (joiners, _, handover) = s.installed().unwrap();
        assert!(joiners.is_empty());
        assert_eq!(handover, Some((SiteId(1), ours)));
        assert_eq!(s.installed(), None, "nothing installed since");
    }

    #[test]
    fn a_batch_of_view_operations_owes_its_joiners_the_view_at_its_end() {
        // Sites 3 and 4 join in one batch, and site 0 leaves: both joiners
        // get a snapshot of the last view, and site 1, round 0's
        // coordinator once site 0 is gone, what is pending here.
        let mut s = AbcastState::new(SiteId(2), GroupView::of_first(3));
        s.note_request(&m(2, 1));
        let mut view = s.view.clone();
        for (op, site) in [(ViewOp::Join, 3), (ViewOp::Join, 4), (ViewOp::Leave, 0)] {
            view = view.apply(op, SiteId(site));
            s.install(&view);
        }
        let (joiners, snapshot, handover) = s.installed().unwrap();
        assert_eq!(joiners, [SiteId(3), SiteId(4)]);
        assert_eq!(
            (snapshot.view_id, snapshot.members),
            (view.id, view.members().to_vec())
        );
        assert_eq!(handover, Some((SiteId(1), Batch::from(vec![m(2, 1)]))));
        // A joiner that leaves in the same batch is owed nothing.
        let mut s = AbcastState::new(SiteId(2), GroupView::of_first(3));
        let joined = s.view.apply(ViewOp::Join, SiteId(3));
        s.install(&joined);
        s.install(&joined.apply(ViewOp::Leave, SiteId(3)));
        assert!(s.installed().unwrap().0.is_empty());
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
