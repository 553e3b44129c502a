//! Property-based tests for the protocol substrate: wire-codec round-trips
//! over arbitrary messages, group-view algebra, and consensus agreement and
//! termination over random schedules of the pure state machine.

use bytes::{Bytes, BytesMut};
use proptest::prelude::*;
use samoa_net::SiteId;
use samoa_proto::consensus::{Actions, ConsensusState};
use samoa_proto::{
    AbMsg, AbPayload, Batch, CastData, CastMsg, ConsMsg, Frames, GroupView, KvCmd, MsgUid, Payload,
    SyncMsg, TraceCtx, ViewOp, Wire,
};

fn arb_uid() -> impl Strategy<Value = MsgUid> {
    (any::<u16>(), any::<u64>()).prop_map(|(o, s)| MsgUid {
        origin: SiteId(o),
        seq: s,
    })
}

fn arb_ab_payload() -> impl Strategy<Value = AbPayload> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(|v| AbPayload::User(Bytes::from(v))),
        (any::<bool>(), any::<u16>()).prop_map(|(j, s)| AbPayload::ViewOp(
            if j { ViewOp::Join } else { ViewOp::Leave },
            SiteId(s)
        )),
    ]
}

fn arb_ab() -> impl Strategy<Value = AbMsg> {
    (arb_uid(), arb_ab_payload()).prop_map(|(uid, payload)| AbMsg { uid, payload })
}

fn arb_batch() -> impl Strategy<Value = Batch> {
    proptest::collection::vec(arb_ab(), 0..8).prop_map(Batch::from)
}

fn arb_cast() -> impl Strategy<Value = CastMsg> {
    (
        arb_uid(),
        prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..64)
                .prop_map(|v| CastData::User(Bytes::from(v))),
            arb_ab().prop_map(CastData::AbRequest),
            (any::<u64>(), arb_batch()).prop_map(|(inst, batch)| CastData::Decide { inst, batch }),
        ],
    )
        .prop_map(|(uid, data)| CastMsg { uid, data })
}

fn arb_cons() -> impl Strategy<Value = ConsMsg> {
    prop_oneof![
        (any::<u64>(), any::<u64>(), arb_batch(), any::<u64>()).prop_map(
            |(inst, round, est, est_round)| ConsMsg::Kick {
                inst,
                round,
                est,
                est_round
            }
        ),
        (any::<u64>(), any::<u64>()).prop_map(|(inst, round)| ConsMsg::Collect { inst, round }),
        (any::<u64>(), any::<u64>(), arb_batch(), any::<u64>()).prop_map(
            |(inst, round, est, est_round)| ConsMsg::Estimate {
                inst,
                round,
                est,
                est_round
            }
        ),
        (
            any::<u64>(),
            any::<u64>(),
            arb_batch(),
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(|(inst, round, value, stable, quorum)| ConsMsg::Propose {
                inst,
                round,
                value,
                stable,
                quorum,
            }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(inst, round, delivered)| {
            ConsMsg::Ack {
                inst,
                round,
                delivered,
            }
        }),
        (any::<u64>(), any::<u64>(), arb_batch())
            .prop_map(|(inst, round, value)| ConsMsg::Decide { inst, round, value }),
    ]
}

/// Delivered ranges as a `SyncMsg` ships them: by origin, ascending and
/// disjoint within one; no origin, one range and several all occur.
fn arb_delivered() -> impl Strategy<Value = Vec<(SiteId, u64, u64)>> {
    let steps = proptest::collection::vec((1..1000u64, 0..1000u64), 0..4);
    proptest::collection::vec((any::<u16>(), any::<u32>(), steps), 0..5).prop_map(|origins| {
        let by_origin: std::collections::BTreeMap<u16, _> = origins
            .into_iter()
            .map(|(origin, start, steps)| (origin, (start, steps)))
            .collect();
        let mut out = Vec::new();
        for (origin, (start, steps)) in by_origin {
            let mut next = u64::from(start);
            for (gap, span) in steps {
                let lo = next + gap;
                out.push((SiteId(origin), lo, lo + span));
                next = lo + span + 1;
            }
        }
        out
    })
}

fn arb_sync() -> impl Strategy<Value = SyncMsg> {
    (
        any::<u64>(),
        any::<u64>(),
        proptest::collection::vec(any::<u16>(), 0..6),
        arb_delivered(),
        arb_batch(),
    )
        .prop_map(
            |(next_inst, view_id, members, delivered, pending)| SyncMsg {
                next_inst,
                view_id,
                members: members.into_iter().map(SiteId).collect(),
                delivered,
                pending,
            },
        )
}

fn arb_ctx() -> impl Strategy<Value = Option<TraceCtx>> {
    prop_oneof![
        Just(None),
        (any::<u16>(), any::<u64>(), any::<u8>()).prop_map(|(origin, op, hop)| Some(TraceCtx {
            origin: SiteId(origin),
            op,
            hop,
        })),
    ]
}

fn arb_data() -> impl Strategy<Value = Wire> {
    prop_oneof![
        (any::<u64>(), arb_ctx(), arb_cast()).prop_map(|(seq, ctx, c)| Wire::Data {
            seq,
            ctx,
            payload: Payload::Cast(c)
        }),
        (
            any::<u64>(),
            arb_ctx(),
            proptest::collection::vec(arb_ab(), 1..9)
        )
            .prop_map(|(seq, ctx, batch)| Wire::Data {
                seq,
                ctx,
                payload: Payload::Request(batch.into())
            }),
        (any::<u64>(), arb_ctx(), arb_cons()).prop_map(|(seq, ctx, c)| Wire::Data {
            seq,
            ctx,
            payload: Payload::Cons(c)
        }),
        (any::<u64>(), arb_ctx(), arb_sync()).prop_map(|(seq, ctx, s)| Wire::Data {
            seq,
            ctx,
            payload: Payload::Sync(s)
        }),
    ]
}

/// A frame that may follow the first one in a datagram.
fn arb_tail_frame() -> impl Strategy<Value = Wire> {
    prop_oneof![
        any::<u64>().prop_map(|seq| Wire::Ack { seq }),
        Just(Wire::Heartbeat),
    ]
}

/// The view frame that leads a data frame.
fn arb_view() -> impl Strategy<Value = Wire> {
    any::<u64>().prop_map(|id| Wire::View { id })
}

fn arb_wire() -> impl Strategy<Value = Wire> {
    prop_oneof![arb_data(), arb_tail_frame(), arb_view()]
}

/// A datagram's frame list under the rule of what one may hold: a lone
/// heartbeat, `View Data Ack*` or `Ack+` (or nothing at all). RelComm emits
/// the second and third, the failure detector the first.
fn arb_datagram() -> impl Strategy<Value = Vec<Wire>> {
    let acks = |n| proptest::collection::vec(any::<u64>().prop_map(|seq| Wire::Ack { seq }), n);
    prop_oneof![
        Just(vec![Wire::Heartbeat]),
        (arb_view(), arb_data(), acks(0..80)).prop_map(|(view, data, acks)| {
            let mut frames = vec![view, data];
            frames.extend(acks);
            frames
        }),
        acks(0..80),
    ]
}

/// Does the frame list keep the rule of what a datagram may hold? A view
/// frame is legal only first and only right before a data frame, and a
/// data frame only right behind one.
fn in_rule(frames: &[Wire]) -> bool {
    let acks = |rest: &[Wire]| rest.iter().all(|f| matches!(f, Wire::Ack { .. }));
    match frames {
        [Wire::Heartbeat] | [] => true,
        [Wire::View { .. }, Wire::Data { .. }, rest @ ..] | [Wire::Ack { .. }, rest @ ..] => {
            acks(rest)
        }
        _ => false,
    }
}

fn encode_all(frames: &[Wire]) -> Bytes {
    let mut out = BytesMut::new();
    for f in frames {
        f.encode_into(&mut out);
    }
    out.freeze()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode ∘ decode = identity for every wire message, and every frame is
    /// as long as its `encoded_len` says.
    #[test]
    fn codec_roundtrip(w in arb_wire()) {
        let encoded = w.encode();
        prop_assert_eq!(encoded.len(), w.encoded_len());
        let decoded = Wire::decode(encoded).expect("decode failed");
        prop_assert_eq!(decoded, w);
    }

    /// The decoder never panics on arbitrary bytes — it returns an error or
    /// a message, and any successfully decoded message re-encodes.
    #[test]
    fn decoder_total_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        if let Ok(w) = Wire::decode(Bytes::from(bytes)) {
            let _ = w.encode();
        }
    }

    /// Truncating a valid encoding never panics and (except for zero-length
    /// suffix removal on variable payloads) fails cleanly.
    #[test]
    fn decoder_total_on_truncations(w in arb_wire(), cut in 0usize..64) {
        let enc = w.encode();
        if cut < enc.len() {
            let truncated = enc.slice(0..enc.len() - 1 - cut % enc.len().max(1));
            let _ = Wire::decode(truncated);
        }
    }
}

/// Byte strings for KV keys and values, the empty one included.
fn arb_kv_bytes() -> impl Strategy<Value = Bytes> {
    proptest::collection::vec(any::<u8>(), 0..24).prop_map(Bytes::from)
}

fn arb_kv_cmd() -> impl Strategy<Value = KvCmd> {
    prop_oneof![
        (any::<u64>(), arb_kv_bytes(), arb_kv_bytes()).prop_map(|(req, key, value)| KvCmd::Put {
            req,
            key,
            value
        }),
        (any::<u64>(), arb_kv_bytes()).prop_map(|(req, key)| KvCmd::Get { req, key }),
        (
            any::<u64>(),
            arb_kv_bytes(),
            any::<bool>(),
            arb_kv_bytes(),
            arb_kv_bytes()
        )
            .prop_map(|(req, key, has_expect, expect, value)| KvCmd::Cas {
                req,
                key,
                expect: has_expect.then_some(expect),
                value
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// decode ∘ encode = identity for every KV command, and the encoding is
    /// as long as the length derived from its writer.
    #[test]
    fn kv_codec_roundtrip(c in arb_kv_cmd()) {
        let encoded = c.encode();
        prop_assert_eq!(encoded.len(), c.encoded_len());
        prop_assert_eq!(KvCmd::decode(&encoded), Some(c));
    }

    /// The KV decoder never panics on arbitrary bytes, with or without the
    /// KV magic in front, and what it accepts re-encodes to those bytes.
    #[test]
    fn kv_decoder_total_on_garbage(
        magic in any::<bool>(),
        tail in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut bytes = if magic { vec![0xB5, 0x4B] } else { Vec::new() };
        bytes.extend(tail);
        let bytes = Bytes::from(bytes);
        if let Some(c) = KvCmd::decode(&bytes) {
            prop_assert_eq!(c.encode(), bytes);
        }
    }

    /// Every strict prefix of a valid encoding is refused, without a panic.
    #[test]
    fn kv_decoder_refuses_every_truncation(c in arb_kv_cmd()) {
        let encoded = c.encode();
        for len in 0..encoded.len() {
            prop_assert_eq!(KvCmd::decode(&encoded.slice(..len)), None);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// decode_all ∘ encode = identity on frame lists.
    #[test]
    fn datagram_roundtrip(frames in arb_datagram()) {
        let encoded = encode_all(&frames);
        prop_assert_eq!(encoded.len(), frames.iter().map(Wire::encoded_len).sum::<usize>());
        let decoded = Wire::decode_all(encoded).expect("decode_all failed");
        prop_assert_eq!(decoded, frames);
    }

    /// Readers that only want the data frame — `decode` and the header-only
    /// `peek_ctx` — see on a coalesced datagram exactly what they see on
    /// the bare data frame; `peek_ctx` also behind a leading view frame,
    /// where `decode` reads the view frame.
    #[test]
    fn first_frame_readers_ignore_what_follows(
        view in proptest::collection::vec(arb_view(), 0..2),
        data in arb_data(),
        tail in proptest::collection::vec(arb_tail_frame(), 0..80),
    ) {
        let bare = data.encode();
        let mut frames = view.clone();
        frames.push(data);
        frames.extend(tail);
        let coalesced = encode_all(&frames);
        let lead = encode_all(&view);
        prop_assert_eq!(&coalesced[..lead.len()], &lead[..]);
        let after = coalesced.slice(lead.len()..);
        prop_assert_eq!(&after[..bare.len()], &bare[..], "data frame must stay byte-compatible");
        prop_assert_eq!(Wire::decode(after), Wire::decode(bare.clone()));
        prop_assert_eq!(Wire::decode(coalesced.clone()), Ok(frames[0].clone()));
        prop_assert_eq!(Wire::peek_ctx(&coalesced), Wire::peek_ctx(&bare));
    }

    /// `decode_all` is total on arbitrary bytes, and whatever it accepts it
    /// accounted for byte by byte: the frames re-encode to exactly the
    /// input, so nothing decoded — no batch, no member list, no frame count
    /// — can be larger than the bytes that arrived.
    #[test]
    fn decode_all_total_and_bounded_by_input(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let input = Bytes::from(bytes);
        if let Ok(frames) = Wire::decode_all(input.clone()) {
            prop_assert!(frames.len() <= input.len());
            prop_assert_eq!(encode_all(&frames), input);
        }
    }

    /// A datagram decodes if and only if it keeps the rule: any list of
    /// well-formed frames is refused when a heartbeat has company, a view
    /// frame is not first or not right before a data frame, a data frame is
    /// not right behind one, or a frame other than an ack follows the data
    /// frame or the first ack.
    #[test]
    fn decode_all_accepts_exactly_the_rule(
        frames in proptest::collection::vec(arb_wire(), 0..5),
    ) {
        let decoded = Wire::decode_all(encode_all(&frames));
        prop_assert_eq!(decoded.is_ok(), in_rule(&frames), "{:?}", frames);
        if let Ok(decoded) = decoded {
            prop_assert_eq!(decoded, frames);
        }
    }

    /// The frame decoder itself, read as the Network Module reads it, is
    /// total on arbitrary bytes: it yields at most one frame per input
    /// byte, nothing after its first error, a data frame only right behind
    /// a leading view frame, and, for every frame after the data frame or
    /// the first ack, an ack that `acks_left` counted in advance.
    #[test]
    fn frames_are_total_and_stop_at_the_first_error(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let input = Bytes::from(bytes);
        let mut frames = Frames::new(input.clone());
        let mut yielded = 0;
        let mut led = false;
        let mut acks_left = None;
        while let Some(frame) = frames.next() {
            yielded += 1;
            let failed = frame.is_err();
            match (yielded, led) {
                (1, _) => led = matches!(frame, Ok(Wire::View { .. })),
                (2, true) => prop_assert!(failed || matches!(frame, Ok(Wire::Data { .. }))),
                _ => prop_assert!(failed || matches!(frame, Ok(Wire::Ack { .. }))),
            }
            if failed {
                prop_assert!(frames.next().is_none(), "a frame after an error");
                break;
            }
            if yielded == 1 + usize::from(led) {
                acks_left = Some(frames.acks_left());
            }
        }
        prop_assert!(yielded <= input.len());
        if let (Ok(all), Some(n)) = (Wire::decode_all(input), acks_left) {
            prop_assert_eq!(all.len() - 1 - usize::from(led), n);
        }
    }

    /// The same on near-valid input, where the decoder gets past the first
    /// tag: a valid datagram with one byte overwritten, then cut short.
    #[test]
    fn decode_all_total_on_corrupted_datagrams(
        frames in arb_datagram(),
        at in any::<usize>(),
        byte in any::<u8>(),
        keep in any::<usize>(),
    ) {
        let mut raw = encode_all(&frames).to_vec();
        if !raw.is_empty() {
            let at = at % raw.len();
            raw[at] = byte;
            raw.truncate(keep % (raw.len() + 1));
        }
        let input = Bytes::from(raw);
        if let Ok(frames) = Wire::decode_all(input.clone()) {
            prop_assert!(frames.len() <= input.len());
            prop_assert_eq!(encode_all(&frames), input);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// View algebra: applying any op sequence keeps members sorted and
    /// deduplicated, and the view id equals the number of ops applied.
    #[test]
    fn view_ops_preserve_invariants(
        n in 1usize..6,
        ops in proptest::collection::vec((any::<bool>(), 0u16..12), 0..20),
    ) {
        let mut v = GroupView::of_first(n);
        for (i, &(join, site)) in ops.iter().enumerate() {
            let op = if join { ViewOp::Join } else { ViewOp::Leave };
            v = v.apply(op, SiteId(site));
            prop_assert_eq!(v.id, (i + 1) as u64);
            let members = v.members();
            for w in members.windows(2) {
                prop_assert!(w[0] < w[1], "members must stay sorted+deduped");
            }
            if join {
                prop_assert!(v.contains(SiteId(site)));
            } else {
                prop_assert!(!v.contains(SiteId(site)));
            }
        }
        // Majority is always more than half.
        if !v.is_empty() {
            prop_assert!(2 * v.majority() > v.len());
        }
    }

    /// View application is deterministic and order-sensitive in exactly the
    /// right way: the same op sequence yields identical views (total-order
    /// delivery is what makes membership consistent).
    #[test]
    fn same_op_sequence_same_view(
        ops in proptest::collection::vec((any::<bool>(), 0u16..8), 0..12),
    ) {
        let run = || {
            let mut v = GroupView::of_first(3);
            for &(join, site) in &ops {
                let op = if join { ViewOp::Join } else { ViewOp::Leave };
                v = v.apply(op, SiteId(site));
            }
            v
        };
        prop_assert_eq!(run(), run());
    }
}

/// `n` consensus state machines working on instance 0 over a network the
/// test schedules by hand: the stand-in for RelComm (point-to-point, the
/// `Decide`s among it) and the failure detector (`suspect`).
struct ConsWorld {
    sites: Vec<ConsensusState>,
    crashed: Vec<bool>,
    proposed: Vec<bool>,
    /// The decision each site reached, from a `Decide` or by itself.
    learned: Vec<Option<Batch>>,
    /// Every decision any site ever reached.
    decisions: Vec<Batch>,
    net: Vec<(usize, usize, ConsMsg)>,
    /// What happened, for the failure message (the shim does not shrink).
    trace: Vec<String>,
}

impl ConsWorld {
    fn new(n: usize) -> ConsWorld {
        let view = GroupView::of_first(n);
        ConsWorld {
            sites: (0..n)
                .map(|i| ConsensusState::new(SiteId(i as u16), view.clone()))
                .collect(),
            crashed: vec![false; n],
            proposed: vec![false; n],
            learned: vec![None; n],
            decisions: Vec::new(),
            net: Vec::new(),
            trace: Vec::new(),
        }
    }

    fn estimate(site: usize) -> Batch {
        Batch::from(vec![AbMsg {
            uid: MsgUid {
                origin: SiteId(site as u16),
                seq: 1,
            },
            payload: AbPayload::User(Bytes::from_static(b"v")),
        }])
    }

    fn apply(&mut self, site: usize, acts: Actions) {
        self.trace.push(format!("  s{site} -> {acts:?}"));
        for (to, m) in acts.out {
            self.net.push((site, to.index(), m));
        }
        for (inst, value) in acts.decide {
            assert_eq!(inst, 0);
            assert!(self.learned[site].is_none(), "s{site} decided twice");
            self.decisions.push(value.clone());
            self.learned[site] = Some(value);
            // What abcast does on delivery: `cons_gc(next_inst)`.
            self.sites[site].gc(1);
        }
    }

    fn propose(&mut self, site: usize) {
        if !self.crashed[site] && self.learned[site].is_none() && !self.proposed[site] {
            self.proposed[site] = true;
            self.trace.push(format!("s{site} proposes"));
            let acts = self.sites[site].propose(0, ConsWorld::estimate(site));
            self.apply(site, acts);
        }
    }

    fn suspect(&mut self, site: usize, whom: usize) {
        if !self.crashed[site] {
            self.trace.push(format!("s{site} suspects s{whom}"));
            let acts = self.sites[site].on_suspect(SiteId(whom as u16));
            self.apply(site, acts);
        }
    }

    /// Hand one in-flight message to its destination (lost on a dead one).
    fn receive(&mut self, (from, to, m): (usize, usize, ConsMsg)) {
        if self.crashed[to] {
            return;
        }
        self.trace.push(format!("s{from} => s{to}: {m:?}"));
        let acts = self.sites[to].on_msg(SiteId(from as u16), m);
        self.apply(to, acts);
    }

    /// A crash takes what the site had not yet got onto the wire with it.
    fn crash(&mut self, site: usize) {
        self.crashed[site] = true;
        self.trace.push(format!("s{site} crashes"));
        self.net.retain(|&(from, _, _)| from != site);
    }

    fn live(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.sites.len()).filter(|&i| !self.crashed[i])
    }
}

/// Agreement under anything: whatever is delivered, lost, duplicated,
/// suspected (rightly or not) or crashed, no two decisions for one
/// instance differ — in particular not the one round 0's coordinator
/// reaches without a read phase and the one a later round reaches with
/// it. Termination under what consensus assumes: channels between live
/// sites lose nothing (RelComm), every live site gets to propose
/// (the origin sends each the request), fewer than half crash and every
/// crashed site is eventually suspected by every live one.
fn consensus_agrees_and_terminates(
    n: usize,
    lossy: bool,
    ops: Vec<(u8, u16, u16)>,
) -> Result<(), String> {
    let mut w = ConsWorld::new(n);
    let max_crashes = (n - 1) / 2;
    for (kind, a, b) in ops {
        let (a, b) = (a as usize, b as usize);
        // A `Decide` ends a run, so it is picked less often than the
        // consensus traffic whose interleavings are the point.
        let pick = |w: &ConsWorld, decide: bool| {
            let of_kind: Vec<usize> = (0..w.net.len())
                .filter(|&i| matches!(w.net[i].2, ConsMsg::Decide { .. }) == decide)
                .collect();
            (!of_kind.is_empty()).then(|| of_kind[a % of_kind.len()])
        };
        match kind {
            0..=6 => {
                if let Some(i) = pick(&w, false) {
                    let m = w.net.remove(i);
                    w.receive(m);
                }
            }
            7 => {
                if let Some(i) = pick(&w, true) {
                    let m = w.net.remove(i);
                    w.receive(m);
                }
            }
            8 if !w.net.is_empty() => {
                let m = w.net.remove(a % w.net.len());
                if !lossy {
                    w.receive(m);
                }
            }
            9 if !w.net.is_empty() => {
                let m = w.net[a % w.net.len()].clone();
                w.receive(m);
            }
            10..=12 => w.propose(a % n),
            // The detector never suspects its own site.
            13..=17 if a % n != b % n => w.suspect(a % n, b % n),
            18 if w.crashed.iter().filter(|c| **c).count() < max_crashes => w.crash(a % n),
            _ => {}
        }
        prop_assert!(
            w.decisions.windows(2).all(|d| d[0] == d[1]),
            "two decisions differ:\n{}",
            w.trace.join("\n")
        );
    }
    if lossy {
        return Ok(());
    }
    // The fair suffix: everyone proposes, everything in flight arrives,
    // and the failure detector keeps announcing the crashed sites.
    for _ in 0..4 * n {
        for site in 0..n {
            w.propose(site);
        }
        while let Some(m) = w.net.pop() {
            w.receive(m);
        }
        if w.live().all(|i| w.learned[i].is_some()) {
            break;
        }
        for site in 0..n {
            for dead in 0..n {
                if w.crashed[dead] {
                    w.suspect(site, dead);
                }
            }
        }
    }
    prop_assert!(w.decisions.windows(2).all(|d| d[0] == d[1]));
    let decided = w.decisions.first().cloned();
    prop_assert!(
        decided.as_ref().is_some_and(|v| !v.is_empty()),
        "nobody decided"
    );
    for i in w.live() {
        prop_assert_eq!(
            &w.learned[i],
            &decided,
            "live site {} never learned the decision:\n{}",
            i,
            w.trace.join("\n")
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// [`consensus_agrees_and_terminates`] on 4096 pinned cases.
    #[test]
    fn consensus_agrees_always_and_terminates_on_reliable_channels(
        n in 2usize..6,
        lossy in any::<bool>(),
        ops in proptest::collection::vec((0u8..19, any::<u16>(), any::<u16>()), 0..120),
    ) {
        consensus_agrees_and_terminates(n, lossy, ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100_000))]

    /// The same property, deeper and on a seed of its own: 4096 cases
    /// missed a liveness hole that case 82395 of a longer run found. Run it
    /// in release: `cargo test --release -p samoa-proto --test proptests
    /// -- --ignored`.
    #[test]
    #[ignore = "100k cases; run in release via --ignored"]
    fn consensus_agrees_always_and_terminates_deep(
        n in 2usize..6,
        lossy in any::<bool>(),
        ops in proptest::collection::vec((0u8..19, any::<u16>(), any::<u16>()), 0..120),
    ) {
        consensus_agrees_and_terminates(n, lossy, ops)?;
    }
}
