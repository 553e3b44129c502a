//! Wire messages of the group-communication stack, with a hand-rolled
//! binary codec (no external serialisation dependency; see DESIGN.md).
//!
//! Layering, bottom-up:
//!
//! * [`Wire`] — what actually crosses the network: RelComm data frames and
//!   acks, plus raw failure-detector heartbeats. A datagram is a sequence
//!   of such frames (acks ride behind the data frame going the same way).
//! * [`Payload`] — what RelComm delivers reliably: RelCast traffic
//!   ([`CastMsg`]), atomic-broadcast requests on their way to the site that
//!   orders them ([`AbMsg`]), consensus point-to-point messages
//!   ([`ConsMsg`]), decisions among them, or a join-time state transfer
//!   ([`SyncMsg`]).
//! * [`CastMsg`] — what RelCast floods: user broadcasts.
//! * [`AbMsg`] — what atomic broadcast orders: user payloads or membership
//!   view operations. Several travel together as a [`Batch`].
//!
//! ## Where a batch is allocated
//!
//! A [`Batch`] is allocated once, where it is born, and shared from then on:
//! a clone is a pointer copy. It is born in one of two places. Decoding a
//! datagram builds it in one allocation sized from its count prefix
//! (`get_batch`). Atomic broadcast and consensus collect it from what a site
//! holds: its pending requests, the requests it forwards or hands over,
//! the union of collected estimates. Every holder after that shares the
//! body: each fan-out target's `Payload`, RelComm's retransmission buffer,
//! the `FromRComm*` delivery event, consensus's estimate, proposal and
//! retained decision, and atomic broadcast's buffer of decisions waiting
//! for their turn. Nothing down the path copies a batch to own it.
//!
//! A datagram is decoded frame by frame ([`Frames`]) under the one rule of
//! what it may hold: a lone heartbeat, a data frame followed by acks, or
//! acks alone. The Network Module moves each frame straight into the event
//! of the computation it starts; [`Wire::decode_all`] only collects the
//! frames.

use std::collections::BTreeMap;
use std::ops::Deref;
use std::sync::Arc;

use bytes::{BufMut, Bytes, BytesMut};
use samoa_net::codec::{counted, put_bytes, Reader, Truncated};
use samoa_net::{RangeSet, SiteId};

use crate::view::ViewOp;

/// Unique id of a broadcast message: originating site plus a per-origin
/// sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MsgUid {
    /// The site that created the message.
    pub origin: SiteId,
    /// The origin's sequence number.
    pub seq: u64,
}

/// Which uids have been seen: one [`RangeSet`] of sequence numbers per
/// origin. An origin numbers its messages 1, 2, 3, … and every site sees
/// nearly all of them nearly in order, so the set stays a range or two per
/// origin however many messages pass — RelCast's `seen` and atomic
/// broadcast's `delivered` are this, and a join-time [`SyncMsg`] ships its
/// [`ranges`](UidSet::ranges). Ordered by origin, so that the snapshot is a
/// pure function of the state.
#[derive(Debug, Default)]
pub(crate) struct UidSet(BTreeMap<SiteId, RangeSet>);

impl UidSet {
    /// Add `uid`; true if it was not in the set.
    pub(crate) fn insert(&mut self, uid: MsgUid) -> bool {
        self.0.entry(uid.origin).or_default().insert(uid.seq)
    }

    pub(crate) fn contains(&self, uid: &MsgUid) -> bool {
        self.0.get(&uid.origin).is_some_and(|s| s.contains(uid.seq))
    }

    /// How many uids are in the set.
    pub(crate) fn len(&self) -> usize {
        self.0.values().map(|s| s.len() as usize).sum()
    }

    /// The set as `(origin, lo, hi)` inclusive ranges, by origin, ascending.
    pub(crate) fn ranges(&self) -> Vec<(SiteId, u64, u64)> {
        self.0
            .iter()
            .flat_map(|(&o, s)| s.ranges().map(move |(lo, hi)| (o, lo, hi)))
            .collect()
    }

    /// Add everything `ranges` (another set's [`ranges`](UidSet::ranges))
    /// covers.
    pub(crate) fn extend(&mut self, ranges: &[(SiteId, u64, u64)]) {
        for &(origin, lo, hi) in ranges {
            self.0.entry(origin).or_default().insert_range(lo, hi);
        }
    }
}

/// A payload ordered by atomic broadcast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbPayload {
    /// Application data.
    User(Bytes),
    /// A membership view operation.
    ViewOp(ViewOp, SiteId),
}

/// One atomic-broadcast message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbMsg {
    /// Unique id (also the tie-breaker for in-batch delivery order).
    pub uid: MsgUid,
    /// The payload to order.
    pub payload: AbPayload,
}

/// A batch of atomic-broadcast messages: one allocation, shared by every
/// holder (module docs, "Where a batch is allocated"). It reads as the
/// slice of messages it holds, and its clone is a pointer copy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Batch(Arc<[AbMsg]>);

impl Deref for Batch {
    type Target = [AbMsg];

    fn deref(&self) -> &[AbMsg] {
        &self.0
    }
}

impl<'a> IntoIterator for &'a Batch {
    type Item = &'a AbMsg;
    type IntoIter = std::slice::Iter<'a, AbMsg>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl From<Vec<AbMsg>> for Batch {
    fn from(msgs: Vec<AbMsg>) -> Batch {
        // An empty `Arc<[_]>` made by `default` allocates nothing.
        if msgs.is_empty() {
            Batch::default()
        } else {
            Batch(msgs.into())
        }
    }
}

impl Batch {
    /// `len` messages, each the next one `msgs` returns, in one allocation
    /// at the batch's final size: `Arc<[_]>` collected from a
    /// `(0..len).map(..)` is allocated once and written in place, where one
    /// collected from an iterator of unknown length is built in a `Vec` and
    /// copied. A slot `msgs` has no message for gets an empty filler; an
    /// empty batch allocates nothing.
    pub(crate) fn filled(len: usize, mut msgs: impl FnMut() -> Option<AbMsg>) -> Batch {
        if len == 0 {
            return Batch::default();
        }
        let filler = || AbMsg {
            uid: MsgUid {
                origin: SiteId(0),
                seq: 0,
            },
            payload: AbPayload::User(Bytes::new()),
        };
        Batch((0..len).map(|_| msgs().unwrap_or_else(filler)).collect())
    }
}

/// The payload of a RelCast message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CastData {
    /// Application-level reliable broadcast.
    User(Bytes),
    /// An atomic-broadcast request as RelCast once flooded it. Nothing in
    /// this stack sends one any more — a request travels as
    /// [`Payload::Request`] — and atomic broadcast turns it away. It stays
    /// in the codec, under its old tag, because the wire-codec probe of
    /// `benchmark/src/probes.rs` still encodes one; it goes with the next
    /// change to the benchmark.
    AbRequest(AbMsg),
    /// A consensus decision as RelCast once flooded it. Nothing in this
    /// stack builds one any more — a decision travels as
    /// [`ConsMsg::Decide`] — and nothing receives one: RelComm hands a
    /// non-user cast to no one. It stays in the codec, under its old tag,
    /// because `benchmark/src/kv.rs` still counts decided instances by it;
    /// it goes with the next change to the benchmark.
    Decide {
        /// Consensus instance.
        inst: u64,
        /// The decided batch of messages, to deliver in `uid` order.
        batch: Batch,
    },
}

impl CastData {
    /// A plain user cast — the class RelCast delivers on `DeliverUser` and
    /// the Network Module hands in on `RcDataUser`.
    pub fn is_user(&self) -> bool {
        matches!(self, CastData::User(_))
    }
}

/// One RelCast message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CastMsg {
    /// Unique id used for duplicate suppression across rebroadcasts.
    pub uid: MsgUid,
    /// The flooded payload.
    pub data: CastData,
}

/// A consensus point-to-point message (rotating-coordinator consensus with
/// a Paxos-style read phase; see `consensus.rs`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConsMsg {
    /// Ask `round`'s coordinator to start (sent by participants that
    /// suspect the previous coordinator or hold undecided proposals). The
    /// kicker's estimate rides along so the coordinator always has a
    /// non-empty value to work with.
    Kick {
        /// Consensus instance.
        inst: u64,
        /// Round to start.
        round: u64,
        /// The kicker's current estimate.
        est: Batch,
        /// Round in which `est` was adopted (0 = never).
        est_round: u64,
    },
    /// Coordinator's read phase: collect estimates.
    Collect {
        /// Consensus instance.
        inst: u64,
        /// Round being read.
        round: u64,
    },
    /// Participant's reply to `Collect`: its current estimate and the round
    /// in which that estimate was adopted (0 = never adopted).
    Estimate {
        /// Consensus instance.
        inst: u64,
        /// Round being replied to.
        round: u64,
        /// The participant's estimate.
        est: Batch,
        /// Round in which `est` was adopted.
        est_round: u64,
    },
    /// Coordinator's write phase: adopt this value.
    Propose {
        /// Consensus instance.
        inst: u64,
        /// Round of the proposal.
        round: u64,
        /// Proposed value.
        value: Batch,
        /// The coordinator's stable point: every member of its view has
        /// reported delivering every instance below it, so no member can
        /// need one of those decisions again.
        stable: u64,
    },
    /// Participant's acknowledgement of a proposal.
    Ack {
        /// Consensus instance.
        inst: u64,
        /// Acknowledged round.
        round: u64,
        /// The sender's delivery point: it has delivered every instance
        /// below it.
        delivered: u64,
    },
    /// The decision of `inst`: sent by the coordinator that reached it to
    /// every other member, and by any site that has decided `inst` in
    /// answer to a `Kick`, `Collect`, `Estimate` or `Propose` for it.
    Decide {
        /// Consensus instance.
        inst: u64,
        /// Round the decision was reached in.
        round: u64,
        /// The decided value. `None` only from the deciding coordinator to
        /// a site whose `Ack` of `round` it counted: that site adopted the
        /// value in `round` and holds it.
        value: Option<Batch>,
    },
}

/// Ordering-state snapshot sent to a freshly joined site so it can
/// participate in atomic broadcast from the current instance onward
/// (simplified view-synchronous state transfer: the joiner receives the
/// *ordering* state — where the order stands and what is waiting to enter
/// it — not the past message history).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncMsg {
    /// The next undecided consensus instance.
    pub next_inst: u64,
    /// Uids already delivered (so re-flooded requests are not re-ordered),
    /// as `(origin, lo, hi)` inclusive ranges of sequence numbers: sorted by
    /// origin then `lo`, disjoint within an origin. A range or two per
    /// origin however long the group has run.
    pub delivered: Vec<(SiteId, u64, u64)>,
    /// Requests the sender holds undelivered. They were cast before the
    /// joiner was a member, so no copy of them was sent its way, and in
    /// round 0 only the coordinator proposes — which the joiner is at once
    /// if it sorts first in the view.
    pub pending: Batch,
    /// The sender's current view (the joiner installs it directly — it
    /// cannot learn it through ADeliver, whose prefix it missed).
    pub view_id: u64,
    /// Members of that view.
    pub members: Vec<SiteId>,
}

/// What RelComm delivers to upper microprotocols.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// RelCast traffic.
    Cast(CastMsg),
    /// Atomic-broadcast requests, packed: sent by their origin to every
    /// member, by a first receiver on to round 0's coordinator, and by every
    /// site to a new coordinator at a view change (`abcast.rs`). Never
    /// empty; [`Wire::decode`] refuses an empty one.
    Request(Batch),
    /// Consensus point-to-point traffic.
    Cons(ConsMsg),
    /// Join-time state transfer.
    Sync(SyncMsg),
}

impl Payload {
    /// Write the payload, its tag first.
    fn put(&self, out: &mut impl BufMut) {
        match self {
            Payload::Cast(c) => {
                out.put_u8(0);
                put_cast(out, c);
            }
            Payload::Cons(c) => {
                out.put_u8(1);
                put_cons(out, c);
            }
            Payload::Sync(s) => {
                out.put_u8(2);
                put_sync(out, s);
            }
            Payload::Request(batch) => {
                out.put_u8(3);
                put_batch(out, batch);
            }
        }
    }

    /// The uid of the cluster operation this payload is causally downstream
    /// of, when one is identifiable: the cast itself, the first element of a
    /// packed request, of a consensus value or of a decision. `None` for
    /// pure control traffic (collect/ack/sync), which serves no single
    /// operation. Deterministic in the payload alone, so attaching contexts
    /// derived from it preserves schedule purity.
    pub fn root_uid(&self) -> Option<MsgUid> {
        match self {
            Payload::Cast(c) => match &c.data {
                CastData::User(_) => Some(c.uid),
                CastData::AbRequest(ab) => Some(ab.uid),
                CastData::Decide { batch, .. } => batch.first().map(|m| m.uid).or(Some(c.uid)),
            },
            Payload::Request(batch) => batch.first().map(|m| m.uid),
            Payload::Cons(m) => match m {
                ConsMsg::Kick { est, .. } | ConsMsg::Estimate { est, .. } => {
                    est.first().map(|m| m.uid)
                }
                ConsMsg::Propose { value, .. }
                | ConsMsg::Decide {
                    value: Some(value), ..
                } => value.first().map(|m| m.uid),
                ConsMsg::Collect { .. } | ConsMsg::Ack { .. } | ConsMsg::Decide { .. } => None,
            },
            Payload::Sync(_) => None,
        }
    }
}

/// Compact causal context carried on a *traced* node's RelComm data frames
/// (an untraced node sends none: `ctx: None`, one byte): the identity of
/// the cluster operation this frame is causally downstream of, plus a hop
/// counter. Derived deterministically from the payload's root uid at send
/// time, re-derived hop-incremented on forward, and re-emitted into the
/// receiving node's trace sink — the mechanism that stitches one KV `put`
/// into a single cross-site causal tree in the Perfetto exporter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// The site that originated the operation.
    pub origin: SiteId,
    /// The operation id at the origin (the abcast uid sequence).
    pub op: u64,
    /// Causal hops so far (0 = first transmission from the origin).
    pub hop: u8,
}

/// One frame of a datagram. A datagram is a sequence of frames: RelComm
/// sends a data frame followed by the acks it owes the same peer, or acks
/// alone; the failure detector sends a lone heartbeat.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Wire {
    /// RelComm data frame: per-destination sequence number plus payload.
    Data {
        /// RelComm sequence number (per sender→receiver channel).
        seq: u64,
        /// Causal context of the operation the payload serves, when known.
        ctx: Option<TraceCtx>,
        /// The reliable payload.
        payload: Payload,
    },
    /// RelComm acknowledgement of `seq`.
    Ack {
        /// The acknowledged sequence number.
        seq: u64,
    },
    /// Raw failure-detector heartbeat (bypasses RelComm).
    Heartbeat,
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

/// Encoding/decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Ran out of bytes.
    Truncated,
    /// Unknown enum tag.
    BadTag(u8),
    /// A frame where a datagram may not hold it: anything after a
    /// heartbeat, or anything but an ack after the first frame.
    Misplaced,
    /// A `SyncMsg` delivered range with `lo > hi`, or one that overlaps or
    /// precedes the range before it.
    BadRange,
    /// A [`Payload::Request`] that packs no request.
    EmptyRequest,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated message"),
            CodecError::BadTag(t) => write!(f, "unknown tag {t}"),
            CodecError::Misplaced => write!(f, "frame out of place in its datagram"),
            CodecError::BadRange => write!(f, "delivered ranges out of order"),
            CodecError::EmptyRequest => write!(f, "empty request"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<Truncated> for CodecError {
    fn from(_: Truncated) -> CodecError {
        CodecError::Truncated
    }
}

type DecResult<T> = Result<T, CodecError>;

// Each message is written by its `put_*` and read by its `get_*`, and
// nothing else describes it: a length is the writer run against
// `codec::counted`, and a read goes through `codec::Reader`.

fn get_ctx(buf: &mut Bytes) -> DecResult<TraceCtx> {
    Ok(TraceCtx {
        origin: SiteId(buf.u16()?),
        op: buf.u64()?,
        hop: buf.u8()?,
    })
}

fn put_uid(out: &mut impl BufMut, uid: MsgUid) {
    out.put_u16_le(uid.origin.0);
    out.put_u64_le(uid.seq);
}

fn get_uid(buf: &mut Bytes) -> DecResult<MsgUid> {
    Ok(MsgUid {
        origin: SiteId(buf.u16()?),
        seq: buf.u64()?,
    })
}

fn put_ab(out: &mut impl BufMut, m: &AbMsg) {
    put_uid(out, m.uid);
    match &m.payload {
        AbPayload::User(b) => {
            out.put_u8(0);
            put_bytes(out, b);
        }
        AbPayload::ViewOp(op, site) => {
            out.put_u8(1);
            out.put_u8(match op {
                ViewOp::Join => 0,
                ViewOp::Leave => 1,
            });
            out.put_u16_le(site.0);
        }
    }
}

/// The fewest bytes [`put_ab`] writes: a uid, a tag, and a view operation's
/// three bytes (a user payload takes at least its four-byte length).
const AB_LEAST: usize = 10 + 1 + 3;

fn get_ab(buf: &mut Bytes) -> DecResult<AbMsg> {
    let uid = get_uid(buf)?;
    let payload = match buf.u8()? {
        0 => AbPayload::User(buf.bytes()?),
        1 => {
            let (op, site) = (buf.u8()?, SiteId(buf.u16()?));
            let op = match op {
                0 => ViewOp::Join,
                1 => ViewOp::Leave,
                t => return Err(CodecError::BadTag(t)),
            };
            AbPayload::ViewOp(op, site)
        }
        t => return Err(CodecError::BadTag(t)),
    };
    Ok(AbMsg { uid, payload })
}

fn put_batch(out: &mut impl BufMut, batch: &[AbMsg]) {
    out.put_u32_le(batch.len() as u32);
    for m in batch {
        put_ab(out, m);
    }
}

/// Decode a batch into one allocation of the size its count prefix claims,
/// once the bytes left could hold that many messages ([`Batch::filled`]):
/// each message is decoded in place, and after a malformed one the error is
/// returned instead of the batch.
fn get_batch(buf: &mut Bytes) -> DecResult<Batch> {
    let n = buf.count(AB_LEAST)?;
    let mut failed = None;
    let batch = Batch::filled(n, || match failed {
        Some(_) => None,
        None => get_ab(buf).map_err(|e| failed = Some(e)).ok(),
    });
    match failed {
        Some(e) => Err(e),
        None => Ok(batch),
    }
}

fn put_cast(out: &mut impl BufMut, m: &CastMsg) {
    put_uid(out, m.uid);
    match &m.data {
        CastData::User(b) => {
            out.put_u8(0);
            put_bytes(out, b);
        }
        CastData::AbRequest(ab) => {
            out.put_u8(1);
            put_ab(out, ab);
        }
        CastData::Decide { inst, batch } => {
            out.put_u8(2);
            out.put_u64_le(*inst);
            put_batch(out, batch);
        }
    }
}

fn get_cast(buf: &mut Bytes) -> DecResult<CastMsg> {
    let uid = get_uid(buf)?;
    let data = match buf.u8()? {
        0 => CastData::User(buf.bytes()?),
        1 => CastData::AbRequest(get_ab(buf)?),
        2 => CastData::Decide {
            inst: buf.u64()?,
            batch: get_batch(buf)?,
        },
        t => return Err(CodecError::BadTag(t)),
    };
    Ok(CastMsg { uid, data })
}

fn put_cons(out: &mut impl BufMut, m: &ConsMsg) {
    match m {
        ConsMsg::Kick {
            inst,
            round,
            est,
            est_round,
        } => {
            out.put_u8(0);
            out.put_u64_le(*inst);
            out.put_u64_le(*round);
            out.put_u64_le(*est_round);
            put_batch(out, est);
        }
        ConsMsg::Collect { inst, round } => {
            out.put_u8(1);
            out.put_u64_le(*inst);
            out.put_u64_le(*round);
        }
        ConsMsg::Estimate {
            inst,
            round,
            est,
            est_round,
        } => {
            out.put_u8(2);
            out.put_u64_le(*inst);
            out.put_u64_le(*round);
            out.put_u64_le(*est_round);
            put_batch(out, est);
        }
        ConsMsg::Propose {
            inst,
            round,
            value,
            stable,
        } => {
            out.put_u8(3);
            out.put_u64_le(*inst);
            out.put_u64_le(*round);
            out.put_u64_le(*stable);
            put_batch(out, value);
        }
        ConsMsg::Ack {
            inst,
            round,
            delivered,
        } => {
            out.put_u8(4);
            out.put_u64_le(*inst);
            out.put_u64_le(*round);
            out.put_u64_le(*delivered);
        }
        ConsMsg::Decide { inst, round, value } => {
            out.put_u8(5);
            out.put_u64_le(*inst);
            out.put_u64_le(*round);
            out.put_u8(u8::from(value.is_some()));
            if let Some(value) = value {
                put_batch(out, value);
            }
        }
    }
}

fn get_cons(buf: &mut Bytes) -> DecResult<ConsMsg> {
    let (tag, inst, round) = (buf.u8()?, buf.u64()?, buf.u64()?);
    Ok(match tag {
        0 => {
            let est_round = buf.u64()?;
            ConsMsg::Kick {
                inst,
                round,
                est: get_batch(buf)?,
                est_round,
            }
        }
        1 => ConsMsg::Collect { inst, round },
        2 => {
            let est_round = buf.u64()?;
            ConsMsg::Estimate {
                inst,
                round,
                est: get_batch(buf)?,
                est_round,
            }
        }
        3 => {
            let stable = buf.u64()?;
            ConsMsg::Propose {
                inst,
                round,
                value: get_batch(buf)?,
                stable,
            }
        }
        4 => ConsMsg::Ack {
            inst,
            round,
            delivered: buf.u64()?,
        },
        5 => ConsMsg::Decide {
            inst,
            round,
            value: match buf.u8()? {
                0 => None,
                1 => Some(get_batch(buf)?),
                t => return Err(CodecError::BadTag(t)),
            },
        },
        t => return Err(CodecError::BadTag(t)),
    })
}

fn put_sync(out: &mut impl BufMut, s: &SyncMsg) {
    out.put_u64_le(s.next_inst);
    out.put_u64_le(s.view_id);
    out.put_u32_le(s.members.len() as u32);
    for m in &s.members {
        out.put_u16_le(m.0);
    }
    out.put_u32_le(s.delivered.len() as u32);
    for &(origin, lo, hi) in &s.delivered {
        out.put_u16_le(origin.0);
        out.put_u64_le(lo);
        out.put_u64_le(hi);
    }
    put_batch(out, &s.pending);
}

fn get_sync(buf: &mut Bytes) -> DecResult<SyncMsg> {
    let (next_inst, view_id) = (buf.u64()?, buf.u64()?);
    let members = (0..buf.count(2)?)
        .map(|_| Ok(SiteId(buf.u16()?)))
        .collect::<DecResult<Vec<_>>>()?;
    let n_ranges = buf.count(18)?;
    let mut delivered: Vec<(SiteId, u64, u64)> = Vec::with_capacity(n_ranges);
    for _ in 0..n_ranges {
        let (origin, lo, hi) = (SiteId(buf.u16()?), buf.u64()?, buf.u64()?);
        let after_last = delivered
            .last()
            .is_none_or(|&(o, _, last_hi)| (o, last_hi) < (origin, lo));
        if lo > hi || !after_last {
            return Err(CodecError::BadRange);
        }
        delivered.push((origin, lo, hi));
    }
    Ok(SyncMsg {
        next_inst,
        delivered,
        pending: get_batch(buf)?,
        view_id,
        members,
    })
}

impl Wire {
    /// Serialise one frame to bytes (a one-frame datagram).
    pub fn encode(&self) -> Bytes {
        let mut out = BytesMut::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out.freeze()
    }

    /// How many bytes [`encode_into`](Wire::encode_into) appends for this
    /// frame: the writer run against a counting sink.
    pub fn encoded_len(&self) -> usize {
        counted(|out| self.encode_into(out))
    }

    /// The length of a [`Wire::Ack`] frame.
    pub(crate) const ACK_LEN: usize = 9;

    /// Append this frame to `out`. Frames are self-delimiting, so a
    /// datagram is simply their concatenation; RelComm uses this to put the
    /// acks it owes a peer behind the data frame it is sending there anyway
    /// ([`decode_all`](Wire::decode_all) is the inverse).
    pub fn encode_into(&self, out: &mut impl BufMut) {
        match self {
            Wire::Data { seq, ctx, payload } => Wire::encode_data_into(*seq, *ctx, payload, out),
            Wire::Ack { seq } => {
                out.put_u8(1);
                out.put_u64_le(*seq);
            }
            Wire::Heartbeat => {
                out.put_u8(2);
            }
        }
    }

    /// Append a [`Wire::Data`] frame to `out` from its parts, the payload by
    /// reference: RelComm holds the payload it sends (in its ARQ buffer, or
    /// as the event's data) and need not clone it into a `Wire` to encode.
    pub(crate) fn encode_data_into(
        seq: u64,
        ctx: Option<TraceCtx>,
        payload: &Payload,
        out: &mut impl BufMut,
    ) {
        out.put_u8(0);
        out.put_u64_le(seq);
        match ctx {
            Some(c) => {
                out.put_u8(1);
                out.put_u16_le(c.origin.0);
                out.put_u64_le(c.op);
                out.put_u8(c.hop);
            }
            None => out.put_u8(0),
        }
        payload.put(out);
    }

    /// Deserialise the first frame of a datagram; whatever follows it is
    /// ignored.
    pub fn decode(mut buf: Bytes) -> DecResult<Wire> {
        Wire::decode_frame(&mut buf)
    }

    /// Deserialise every frame of a datagram, in order: what [`Frames`]
    /// yields, collected. Fails if any frame is malformed, out of place or
    /// cut short. Nothing is allocated beyond what the input's length could
    /// hold: a count prefix is believed only up to that.
    pub fn decode_all(buf: Bytes) -> DecResult<Vec<Wire>> {
        Frames::new(buf).collect()
    }

    /// Deserialise one frame off the front of `buf`.
    fn decode_frame(buf: &mut Bytes) -> DecResult<Wire> {
        match buf.u8()? {
            0 => {
                let seq = buf.u64()?;
                let ctx = match buf.u8()? {
                    0 => None,
                    1 => Some(get_ctx(buf)?),
                    t => return Err(CodecError::BadTag(t)),
                };
                let payload = match buf.u8()? {
                    0 => Payload::Cast(get_cast(buf)?),
                    1 => Payload::Cons(get_cons(buf)?),
                    2 => Payload::Sync(get_sync(buf)?),
                    3 => match get_batch(buf)? {
                        batch if batch.is_empty() => return Err(CodecError::EmptyRequest),
                        batch => Payload::Request(batch),
                    },
                    t => return Err(CodecError::BadTag(t)),
                };
                Ok(Wire::Data { seq, ctx, payload })
            }
            1 => Ok(Wire::Ack { seq: buf.u64()? }),
            2 => Ok(Wire::Heartbeat),
            t => Err(CodecError::BadTag(t)),
        }
    }

    /// Header-only read of the causal context on a datagram's first frame:
    /// inspects at most the first 21 bytes, no payload decode. `None` for
    /// non-data frames, frames without a context, or anything malformed (full
    /// [`decode`](Wire::decode) is the arbiter of validity).
    pub fn peek_ctx(buf: &Bytes) -> Option<TraceCtx> {
        let mut b = buf.clone();
        match (b.u8(), b.u64(), b.u8()) {
            (Ok(0), Ok(_), Ok(1)) => get_ctx(&mut b).ok(),
            _ => None,
        }
    }
}

/// One datagram, decoded frame by frame under the rule of what a datagram
/// may hold: a lone heartbeat, a data frame followed by acks, or acks alone
/// (an empty datagram yields nothing). Each frame is decoded only when it
/// is asked for. A frame that is malformed, cut short or out of place is
/// yielded as an `Err`, and nothing follows it.
#[derive(Debug)]
pub struct Frames {
    buf: Bytes,
    /// No frame has been decoded yet.
    first: bool,
}

impl Frames {
    /// The frames of the datagram `buf`.
    pub fn new(buf: Bytes) -> Frames {
        Frames { buf, first: true }
    }

    /// How many acks the rest of the datagram holds if it is well formed:
    /// after the first frame the rule allows only acks, and they have a
    /// fixed length. A reader sizes the list it collects them into by this.
    pub fn acks_left(&self) -> usize {
        self.buf.len() / Wire::ACK_LEN
    }
}

impl Iterator for Frames {
    type Item = DecResult<Wire>;

    fn next(&mut self) -> Option<DecResult<Wire>> {
        if self.buf.is_empty() {
            return None;
        }
        let first = std::mem::replace(&mut self.first, false);
        let frame = Wire::decode_frame(&mut self.buf).and_then(|frame| {
            let in_place = match frame {
                Wire::Ack { .. } => true,
                Wire::Data { .. } => first,
                Wire::Heartbeat => first && self.buf.is_empty(),
            };
            if in_place {
                Ok(frame)
            } else {
                Err(CodecError::Misplaced)
            }
        });
        if frame.is_err() {
            self.buf = Bytes::new();
        }
        Some(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uid(o: u16, s: u64) -> MsgUid {
        MsgUid {
            origin: SiteId(o),
            seq: s,
        }
    }

    fn roundtrip(w: Wire) {
        let enc = w.encode();
        let dec = Wire::decode(enc).expect("decode");
        assert_eq!(dec, w);
    }

    #[test]
    fn roundtrip_ack_and_heartbeat() {
        roundtrip(Wire::Ack { seq: 0 });
        roundtrip(Wire::Ack { seq: u64::MAX });
        roundtrip(Wire::Heartbeat);
    }

    #[test]
    fn roundtrip_user_cast() {
        roundtrip(Wire::Data {
            seq: 7,
            ctx: None,
            payload: Payload::Cast(CastMsg {
                uid: uid(3, 9),
                data: CastData::User(Bytes::from_static(b"payload")),
            }),
        });
    }

    #[test]
    fn roundtrip_empty_user_payload() {
        roundtrip(Wire::Data {
            seq: 0,
            ctx: None,
            payload: Payload::Cast(CastMsg {
                uid: uid(0, 0),
                data: CastData::User(Bytes::new()),
            }),
        });
    }

    /// `n` requests from origin 1, a view operation among them.
    fn requests(n: u64) -> Batch {
        let requests = (1..=n).map(|seq| AbMsg {
            uid: uid(1, seq),
            payload: if seq == 2 {
                AbPayload::ViewOp(ViewOp::Leave, SiteId(4))
            } else {
                AbPayload::User(Bytes::from(vec![b'x'; seq as usize]))
            },
        });
        Batch::from(requests.collect::<Vec<_>>())
    }

    #[test]
    fn roundtrip_ab_request_and_view_op() {
        for n in [1, 8] {
            let w = Wire::Data {
                seq: 1,
                ctx: None,
                payload: Payload::Request(requests(n)),
            };
            // Exactly as long as `encoded_len` says.
            assert_eq!(w.encode().len(), w.encoded_len(), "{n} requests");
            roundtrip(w);
        }
        // The retired flooded form still decodes as itself.
        roundtrip(Wire::Data {
            seq: 1,
            ctx: None,
            payload: Payload::Cast(CastMsg {
                uid: uid(1, 3),
                data: CastData::AbRequest(AbMsg {
                    uid: uid(1, 6),
                    payload: AbPayload::User(Bytes::from_static(b"x")),
                }),
            }),
        });
    }

    #[test]
    fn decode_refuses_an_empty_request() {
        let w = Wire::Data {
            seq: 1,
            ctx: None,
            payload: Payload::Request(Batch::default()),
        };
        assert_eq!(Wire::decode(w.encode()), Err(CodecError::EmptyRequest));
    }

    #[test]
    fn roundtrip_retired_cast_decide_with_batch() {
        let batch = Batch::from(vec![
            AbMsg {
                uid: uid(0, 1),
                payload: AbPayload::User(Bytes::from_static(b"a")),
            },
            AbMsg {
                uid: uid(2, 1),
                payload: AbPayload::ViewOp(ViewOp::Join, SiteId(9)),
            },
        ]);
        roundtrip(Wire::Data {
            seq: 2,
            ctx: None,
            payload: Payload::Cast(CastMsg {
                uid: uid(0, 4),
                data: CastData::Decide { inst: 11, batch },
            }),
        });
    }

    #[test]
    fn roundtrip_all_consensus_messages() {
        let batch = Batch::from(vec![AbMsg {
            uid: uid(1, 1),
            payload: AbPayload::User(Bytes::from_static(b"v")),
        }]);
        for m in [
            ConsMsg::Kick {
                inst: 1,
                round: 2,
                est: batch.clone(),
                est_round: 0,
            },
            ConsMsg::Collect { inst: 1, round: 2 },
            ConsMsg::Estimate {
                inst: 1,
                round: 2,
                est: batch.clone(),
                est_round: 1,
            },
            ConsMsg::Propose {
                inst: 6,
                round: 2,
                value: batch.clone(),
                stable: 5,
            },
            ConsMsg::Ack {
                inst: 8,
                round: 4,
                delivered: 7,
            },
            ConsMsg::Decide {
                inst: 3,
                round: 4,
                value: Some(batch.clone()),
            },
            ConsMsg::Decide {
                inst: 3,
                round: 4,
                value: None,
            },
        ] {
            roundtrip(Wire::Data {
                seq: 5,
                ctx: None,
                payload: Payload::Cons(m),
            });
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(Wire::decode(Bytes::new()), Err(CodecError::Truncated));
        assert_eq!(
            Wire::decode(Bytes::from_static(&[9])),
            Err(CodecError::BadTag(9))
        );
        assert_eq!(
            Wire::decode(Bytes::from_static(&[0, 1, 2])),
            Err(CodecError::Truncated)
        );
    }

    #[test]
    fn decode_rejects_oversized_batch_count() {
        // Data frame claiming a huge batch but providing no bytes.
        let mut out = BytesMut::new();
        out.put_u8(0); // Wire::Data
        out.put_u64_le(1); // seq
        out.put_u8(0); // no TraceCtx
        out.put_u8(0); // Payload::Cast
        out.put_u16_le(0); // uid.origin
        out.put_u64_le(0); // uid.seq
        out.put_u8(2); // CastData::Decide
        out.put_u64_le(0); // inst
        out.put_u32_le(u32::MAX); // absurd batch length
        assert_eq!(Wire::decode(out.freeze()), Err(CodecError::Truncated));
    }

    fn sync(delivered: Vec<(SiteId, u64, u64)>) -> Wire {
        Wire::Data {
            seq: 3,
            ctx: None,
            payload: Payload::Sync(SyncMsg {
                next_inst: 17,
                delivered,
                pending: Batch::from(vec![AbMsg {
                    uid: uid(2, 41),
                    payload: AbPayload::User(Bytes::from_static(b"p")),
                }]),
                view_id: 4,
                members: vec![SiteId(0), SiteId(2), SiteId(5)],
            }),
        }
    }

    #[test]
    fn roundtrip_sync_with_no_one_and_several_ranges_per_origin() {
        roundtrip(sync(Vec::new()));
        roundtrip(sync(vec![(SiteId(2), 1, 40)]));
        // Origin 1 absent, origin 2 with holes, adjacent ranges accepted,
        // the whole domain.
        roundtrip(sync(vec![
            (SiteId(0), 1, 1_000_000),
            (SiteId(2), 1, 40),
            (SiteId(2), 42, 42),
            (SiteId(2), 43, 50),
            (SiteId(5), 0, u64::MAX),
        ]));
    }

    #[test]
    fn uid_set_ships_its_ranges_and_takes_them_back() {
        let mut set = UidSet::default();
        for (o, s) in [(2, 1), (0, 7), (2, 2), (2, 4), (0, 8), (2, 2)] {
            set.insert(uid(o, s));
        }
        assert_eq!(set.len(), 5);
        let ranges = set.ranges();
        assert_eq!(
            ranges,
            [(SiteId(0), 7, 8), (SiteId(2), 1, 2), (SiteId(2), 4, 4)]
        );
        // What a joiner that first saw origin 2 at 1000 builds from them is
        // the union, and what it sends on is as small.
        let mut joiner = UidSet::default();
        joiner.insert(uid(2, 1000));
        joiner.extend(&ranges);
        assert!(joiner.contains(&uid(2, 4)) && !joiner.contains(&uid(2, 3)));
        assert_eq!(joiner.len(), 6);
        roundtrip(sync(joiner.ranges()));
    }

    #[test]
    fn decode_rejects_ranges_that_are_not_a_set() {
        let bad = [
            vec![(SiteId(1), 5, 4)],                    // lo > hi
            vec![(SiteId(1), 1, 5), (SiteId(1), 5, 9)], // overlapping
            vec![(SiteId(1), 1, 5), (SiteId(1), 3, 3)], // contained
            vec![(SiteId(1), 7, 9), (SiteId(1), 1, 2)], // out of order
            vec![(SiteId(2), 1, 2), (SiteId(1), 1, 2)], // origins out of order
        ];
        for delivered in bad {
            let enc = sync(delivered.clone()).encode();
            assert_eq!(
                Wire::decode(enc),
                Err(CodecError::BadRange),
                "{delivered:?}"
            );
        }
    }

    #[test]
    fn decode_rejects_oversized_range_count() {
        // A sync frame claiming 2^32 - 1 delivered ranges and providing the
        // bytes of one: refused on the count, before anything is reserved.
        let mut out = BytesMut::new();
        out.put_u8(0); // Wire::Data
        out.put_u64_le(1); // seq
        out.put_u8(0); // no TraceCtx
        out.put_u8(2); // Payload::Sync
        out.put_u64_le(0); // next_inst
        out.put_u64_le(0); // view_id
        out.put_u32_le(0); // no members
        out.put_u32_le(u32::MAX); // absurd range count
        out.put_slice(&[0; 18]);
        assert_eq!(Wire::decode(out.freeze()), Err(CodecError::Truncated));
    }

    #[test]
    fn roundtrip_trace_ctx() {
        let ctx = TraceCtx {
            origin: SiteId(2),
            op: 0x0123_4567_89ab,
            hop: 3,
        };
        let w = Wire::Data {
            seq: 42,
            ctx: Some(ctx),
            payload: Payload::Cast(CastMsg {
                uid: uid(2, 9),
                data: CastData::User(Bytes::from_static(b"traced")),
            }),
        };
        roundtrip(w.clone());
        // Header-only peek agrees with the full decode.
        assert_eq!(Wire::peek_ctx(&w.encode()), Some(ctx));
    }

    #[test]
    fn peek_ctx_none_cases() {
        // No context on the frame.
        let plain = Wire::Data {
            seq: 1,
            ctx: None,
            payload: Payload::Cast(CastMsg {
                uid: uid(0, 1),
                data: CastData::User(Bytes::new()),
            }),
        };
        assert_eq!(Wire::peek_ctx(&plain.encode()), None);
        // Non-data frames.
        assert_eq!(Wire::peek_ctx(&Wire::Ack { seq: 5 }.encode()), None);
        assert_eq!(Wire::peek_ctx(&Wire::Heartbeat.encode()), None);
        // Garbage too short to hold a context.
        assert_eq!(Wire::peek_ctx(&Bytes::from_static(&[0, 1, 2])), None);
    }

    #[test]
    fn root_uid_follows_the_operation() {
        let ab = AbMsg {
            uid: uid(1, 7),
            payload: AbPayload::User(Bytes::from_static(b"x")),
        };
        let cast = |data| {
            Payload::Cast(CastMsg {
                uid: uid(3, 2),
                data,
            })
        };
        assert_eq!(
            Payload::Request(Batch::from(vec![ab.clone()])).root_uid(),
            Some(uid(1, 7))
        );
        // A packed request's operation is its first.
        assert_eq!(Payload::Request(requests(8)).root_uid(), Some(uid(1, 1)));
        assert_eq!(
            cast(CastData::User(Bytes::new())).root_uid(),
            Some(uid(3, 2))
        );
        assert_eq!(
            cast(CastData::Decide {
                inst: 1,
                batch: Batch::from(vec![ab.clone()]),
            })
            .root_uid(),
            Some(uid(1, 7))
        );
        assert_eq!(
            Payload::Cons(ConsMsg::Propose {
                inst: 0,
                round: 1,
                value: Batch::from(vec![ab.clone()]),
                stable: 0,
            })
            .root_uid(),
            Some(uid(1, 7))
        );
        // A decision with its body serves the body's first operation; one
        // without serves none.
        let decide = |value| {
            Payload::Cons(ConsMsg::Decide {
                inst: 0,
                round: 1,
                value,
            })
        };
        assert_eq!(
            decide(Some(Batch::from(vec![ab]))).root_uid(),
            Some(uid(1, 7))
        );
        assert_eq!(decide(None).root_uid(), None);
        assert_eq!(
            Payload::Cons(ConsMsg::Collect { inst: 0, round: 1 }).root_uid(),
            None
        );
    }

    #[test]
    fn uid_ordering_is_origin_then_seq() {
        assert!(uid(0, 5) < uid(1, 0));
        assert!(uid(1, 1) < uid(1, 2));
    }
}
