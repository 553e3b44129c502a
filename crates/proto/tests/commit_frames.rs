//! What one atomic broadcast puts on the wire, counted frame by frame.
//!
//! A commit in a healthy `n`-site cluster is the request's way to round 0's
//! coordinator and round 0 of consensus without its read phase. A
//! follower's request leaves its origin once per peer, and every other site
//! that is not the coordinator forwards its first copy to the coordinator:
//! `(n−1) + (n−2) = 2n−3` frames. The coordinator's own request is in its
//! next `Propose` and nothing else: no frame of its own. The coordinator
//! sends each follower one `Propose`, each follower one `Ack`: `2(n−1)`
//! frames. Each `Propose` carries the coordinator's quorum; at 2 (`n ≤ 3`)
//! a follower's vote and the coordinator's make it, so a follower decides
//! as it accepts and no `Decide` is sent. Above 2 (`n ≥ 4`) the decision
//! goes point to point, one `Decide` per follower: `3(n−1)` frames. For
//! `n = 3` that is 3 + 2 + 2 = 7 data frames when a follower casts and
//! 0 + 2 + 2 = 4 when the coordinator does; for `n = 4`, 5 + 3 + 3 + 3 =
//! 14 and 9. The forward stays: an origin that crashes mid-broadcast still
//! gets its request ordered, and so does one whose forward went to a
//! coordinator that then left — every site hands what is pending to the
//! next one. A follower takes what a `Propose` carries into its pending
//! requests, and at `n = 3` decides it, so a coordinator that crashes after
//! its `Propose` reached one follower still gets its request ordered too.
//! And a decided site answers for its decision, so a coordinator that
//! crashes after the first `Ack` decided it leaves no survivor behind.
//!
//! A [`Payload::Request`] costs those frames however many requests it
//! packs. An origin holds what it casts while one of its own requests is in
//! flight and sends it packed when the next decision is delivered there,
//! so eight casts back to back are two `Request`s and two consensus
//! instances: 3 + 3 request frames from a follower (24 one at a time), and
//! none from the coordinator, whose two proposals carry all eight.
//!
//! On the virtual-time rig and recording [`Transport`](samoa_net::Transport)
//! of `common`, timers off: no tick fires, so no ack travels alone and every
//! datagram is a data frame; the structure is asserted, never the wall clock.
//! The crash tests alone drive the failure detector, by hand. The join tests
//! are the exception: they end by ringing RelComm's timer
//! ([`settle_ringing`]), because a frame a joiner sends a site that has not
//! installed its view yet is held there unacknowledged, and arrives by
//! RelComm's resend once that site has.

mod common;

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use bytes::Bytes;
use samoa_net::SiteId;
use samoa_proto::{ConsMsg, MsgUid, Node, Payload};

use common::{Rig, Sent};

/// Is `s` a copy of a request sent on by a site other than its origin?
fn is_forward(s: &Sent) -> bool {
    match &s.payload {
        Some(Payload::Request(batch)) => batch.iter().any(|m| m.uid.origin != s.from),
        _ => false,
    }
}

/// Deliver one datagram at a time, the frames `last` picks out after all
/// others (oldest first within each class), until none is in flight.
fn settle_with_last(rig: &Rig, last: fn(&Sent) -> bool) {
    let h = rig.net.handle();
    loop {
        rig.quiesce();
        let log = rig.rec.log();
        let next = h
            .pending_datagrams()
            .into_iter()
            .map(|dg| (last(&log[dg.seq as usize - 1]), dg.seq))
            .min();
        match next {
            Some((_, seq)) => assert!(h.pump_seq(seq)),
            None => return,
        }
    }
}

/// Every broadcaster's own frames before any forwarded copy.
fn settle_origin_first(rig: &Rig) {
    settle_with_last(rig, is_forward)
}

/// What the frame carries: `"request"`, `"user"` (a RelCast cast), or the
/// consensus message name.
fn kind(s: &Sent) -> &'static str {
    match s
        .payload
        .as_ref()
        .expect("no tick fired: every frame is data")
    {
        Payload::Request(_) => "request",
        Payload::Cast(c) if c.data.is_user() => "user",
        Payload::Cast(_) => "retired cast",
        Payload::Cons(ConsMsg::Kick { .. }) => "kick",
        Payload::Cons(ConsMsg::Collect { .. }) => "collect",
        Payload::Cons(ConsMsg::Estimate { .. }) => "estimate",
        Payload::Cons(ConsMsg::Propose { .. }) => "propose",
        Payload::Cons(ConsMsg::Ack { .. }) => "ack",
        Payload::Cons(ConsMsg::Decide { .. }) => "decide",
        Payload::Sync(_) => "sync",
    }
}

/// Frames per [`kind`].
fn census(log: &[Sent]) -> BTreeMap<&'static str, usize> {
    let mut kinds = BTreeMap::new();
    for s in log {
        *kinds.entry(kind(s)).or_default() += 1;
    }
    kinds
}

/// Frames per request (by the request's uid), and the sender and receiver
/// of each `Decide` per decided instance.
type Decides = BTreeMap<u64, Vec<(SiteId, SiteId)>>;
fn frames_per_message(log: &[Sent]) -> (BTreeMap<MsgUid, usize>, Decides) {
    let (mut requests, mut decisions) = (BTreeMap::new(), Decides::new());
    for s in log {
        match &s.payload {
            Some(Payload::Request(batch)) => {
                for m in batch {
                    *requests.entry(m.uid).or_default() += 1;
                }
            }
            Some(Payload::Cons(ConsMsg::Decide { inst, .. })) => {
                decisions.entry(*inst).or_default().push((s.from, s.to))
            }
            _ => {}
        }
    }
    (requests, decisions)
}

#[test]
fn a_healthy_three_site_commit_is_seven_frames_from_a_follower_and_four_from_the_coordinator() {
    // Site 0 coordinates round 0; the origin is a follower, then the
    // coordinator itself.
    for (origin, requests, frames) in [(1, 3, 7), (0, 0, 4)] {
        let rig = Rig::new(3, 41);
        rig.nodes[origin].abcast("m");
        settle_origin_first(&rig);
        rig.assert_total_order(1);

        // Each follower decides as it accepts the `Propose`, and the first
        // `Ack` decides the coordinator: no `Decide` is sent.
        let log = rig.rec.log();
        let mut expected = BTreeMap::from([("propose", 2), ("ack", 2)]);
        if requests > 0 {
            expected.insert("request", requests);
        }
        assert_eq!(census(&log), expected, "origin {origin}: {log:#?}");
        assert_eq!(log.len(), frames);

        // A follower sends two request frames, one to each peer, and the
        // other follower forwards its copy to the coordinator; the
        // coordinator sends and forwards none — its `Propose` carries the
        // request — and nothing goes back to the origin.
        let origin = SiteId(origin as u16);
        let sent: Vec<(SiteId, SiteId)> = log
            .iter()
            .filter(|s| kind(s) == "request")
            .map(|s| (s.from, s.to))
            .collect();
        let from_origin = sent.iter().filter(|(from, _)| *from == origin).count();
        assert_eq!(from_origin, if origin == SiteId(0) { 0 } else { 2 });
        for &(from, to) in sent.iter().filter(|(from, _)| *from != origin) {
            assert_eq!(to, SiteId(0), "{from} forwarded past the coordinator");
            assert_ne!(from, SiteId(0), "the coordinator forwarded");
        }
        assert_eq!(rig.retransmissions(), 0);
    }
}

#[test]
fn a_healthy_four_site_commit_still_sends_its_decides() {
    // A quorum of 3: a follower's vote and the coordinator's are not
    // enough, so the followers wait for the coordinator's `Decide`s. The
    // decision fires on the second ack, and each follower's `Decide`
    // carries the value its `Propose` did.
    for (origin, requests, frames) in [(1, 5, 14), (0, 0, 9)] {
        let rig = Rig::new(4, 41);
        rig.nodes[origin].abcast("m");
        settle_origin_first(&rig);
        rig.assert_total_order(1);

        let log = rig.rec.log();
        let mut expected = BTreeMap::from([("propose", 3), ("ack", 3), ("decide", 3)]);
        if requests > 0 {
            expected.insert("request", requests);
        }
        assert_eq!(census(&log), expected, "origin {origin}: {log:#?}");
        assert_eq!(log.len(), frames);
        let values = |of_kind: &str| -> Vec<_> {
            log.iter()
                .filter(|s| kind(s) == of_kind)
                .filter_map(|s| match &s.payload {
                    Some(Payload::Cons(
                        ConsMsg::Propose { value, .. } | ConsMsg::Decide { value, .. },
                    )) => Some(value.clone()),
                    _ => None,
                })
                .collect()
        };
        let proposed = values("propose");
        assert!(!proposed[0].is_empty());
        assert_eq!(values("decide"), proposed, "origin {origin}: {log:#?}");
        assert_eq!(rig.retransmissions(), 0);
    }
}

/// The request frames of `log`: sender, receiver and how many requests
/// each packs.
fn request_frames(log: &[Sent]) -> Vec<(SiteId, SiteId, usize)> {
    log.iter()
        .filter_map(|s| match &s.payload {
            Some(Payload::Request(batch)) => Some((s.from, s.to, batch.len())),
            _ => None,
        })
        .collect()
}

/// The consensus instances proposed.
fn proposed(log: &[Sent]) -> BTreeSet<u64> {
    log.iter()
        .filter_map(|s| match &s.payload {
            Some(Payload::Cons(ConsMsg::Propose { inst, .. })) => Some(*inst),
            _ => None,
        })
        .collect()
}

#[test]
fn a_burst_of_eight_costs_two_requests_and_two_instances() {
    // Eight casts back to back: the first leaves at once, the other seven
    // are held behind it and leave packed when its decision is delivered at
    // the origin. From a follower each of the two `Request`s is two frames
    // from the origin and one forward (3 + 3; 24 frames one request at a
    // time). The coordinator sends none: its first proposal carries the
    // first cast, its second the seven it made meanwhile.
    for (origin, frames, packs) in [(1u16, 6, &[1, 1, 7, 7][..]), (0, 0, &[])] {
        let rig = Rig::new(3, 43);
        for i in 0..8 {
            rig.nodes[origin as usize].abcast(format!("m{i}"));
        }
        settle_origin_first(&rig);
        rig.assert_total_order(8);
        let order: Vec<_> = rig.nodes[0].ab_delivered();
        let casts: Vec<_> = (0..8)
            .map(|i| (SiteId(origin), format!("m{i}").into()))
            .collect();
        assert_eq!(order, casts, "origin {origin}: delivered in origin order");

        let log = rig.rec.log();
        let sent = request_frames(&log);
        assert_eq!(sent.len(), frames, "origin {origin}: {sent:?}");
        let from_origin: Vec<usize> = sent
            .iter()
            .filter(|(from, ..)| *from == SiteId(origin))
            .map(|&(.., n)| n)
            .collect();
        assert_eq!(from_origin, packs, "origin {origin}: {sent:?}");
        assert_eq!(proposed(&log).len(), 2, "origin {origin}: {log:#?}");
        assert_eq!(rig.retransmissions(), 0);
    }
}

#[test]
fn requests_held_behind_one_stuck_at_a_coordinator_that_left_are_delivered() {
    // Site 2 casts four times: the first leaves at once, three are held.
    // Only site 3 gets the first, and its forward to round 0's coordinator,
    // site 0, is lost; then site 0 leaves. Site 1 coordinates round 0 of
    // the next view; the decision of the Leave sends what site 2 holds, and
    // every site hands site 1 what it has pending. Delivered in the order
    // they were sent, the four keep their origin's order. Under the
    // network's own orders the held ones can overtake the first — it was
    // still in flight when they were made — but each is delivered once, in
    // one order at every survivor.
    for (seed, in_send_order) in [(91, true), (91, false), (92, false), (93, false)] {
        let rig = Rig::new(4, seed);
        let h = rig.net.handle();
        for i in 0..4 {
            rig.nodes[2].abcast(format!("m{i}"));
        }
        rig.quiesce();
        let sent = request_frames(&rig.rec.log());
        assert_eq!(
            sent,
            [SiteId(0), SiteId(1), SiteId(3)].map(|to| (SiteId(2), to, 1)),
            "one request out, three held"
        );
        for dg in h.pending_datagrams() {
            if dg.to == SiteId(3) {
                assert!(h.pump_seq(dg.seq));
            } else {
                assert!(h.drop_seq(dg.seq));
            }
        }
        rig.quiesce();
        for dg in h.pending_datagrams() {
            if dg.to == SiteId(0) {
                assert!(h.drop_seq(dg.seq));
            }
        }
        rig.nodes[1].request_leave(SiteId(0));
        if in_send_order {
            settle_with_last(&rig, |_| false);
        } else {
            rig.settle();
        }

        let at = |i: usize| format!("seed {seed}, in send order {in_send_order}, site {i}");
        let order = rig.nodes[1].ab_delivered();
        let casts: Vec<_> = (0..4)
            .map(|i| (SiteId(2), format!("m{i}").into()))
            .collect();
        if in_send_order {
            assert_eq!(order, casts, "{}", at(1));
        } else {
            let mut once = order.clone();
            once.sort();
            assert_eq!(once, casts, "{}", at(1));
        }
        for i in [1, 2, 3] {
            let node = &rig.nodes[i];
            assert!(!node.current_view().contains(SiteId(0)), "{}", at(i));
            assert_eq!(node.ab_delivered(), order, "{}", at(i));
            assert_eq!(node.ab_pending(), 0, "{}", at(i));
            assert_eq!(node.external_errors(), 0, "{}", at(i));
        }
    }
}

#[test]
fn a_request_and_a_decision_never_cost_more_than_their_bounds_and_reach_every_site() {
    for sites in [3, 4, 5] {
        let request_bound = 2 * sites - 3;
        // At a quorum of 2 every follower decides as it accepts: no
        // `Decide` at all.
        let decision_frames = if sites > 3 { sites - 1 } else { 0 };
        // Different seeds, different delivery orders (`pump_one` follows the
        // network's seeded delays): a site that has delivered a request
        // forwards nothing, so other orders only cost less; a decision goes
        // from the coordinator to each other member once. A `Decide` may
        // overtake the coordinator's `Propose` to a follower, which then
        // answers that late `Propose` with its decision: at most one frame
        // per follower, back to the coordinator.
        for seed in 50..58 {
            let rig = Rig::new(sites, seed);
            rig.abcasts(sites);
            rig.settle();
            rig.assert_total_order(sites);
            let log = rig.rec.log();
            let (requests, decisions) = frames_per_message(&log);
            // Site 0 coordinates round 0: its request is in no `Request`.
            let followers: BTreeSet<SiteId> = requests.keys().map(|uid| uid.origin).collect();
            assert_eq!(followers.len(), sites - 1, "seed {seed}: {requests:?}");
            assert!(!followers.contains(&SiteId(0)), "seed {seed}: {requests:?}");
            let at = format!("{sites} sites, seed {seed}");
            assert_eq!(decisions.is_empty(), decision_frames == 0, "{at}");
            for (uid, frames) in requests {
                assert!(
                    (sites - 1..=request_bound).contains(&frames),
                    "{at}: request {uid:?} cost {frames} frames, bound {request_bound}"
                );
            }
            for (inst, sends) in decisions {
                let (told, answers): (Vec<_>, Vec<_>) =
                    sends.iter().partition(|(from, _)| *from == SiteId(0));
                assert_eq!(told.len(), decision_frames, "{at}: decision {inst}");
                let answerers: BTreeSet<SiteId> = answers.iter().map(|(from, _)| *from).collect();
                assert!(
                    answers.iter().all(|(_, to)| *to == SiteId(0))
                        && answerers.len() == answers.len(),
                    "{at}: decision {inst} sent {sends:?}"
                );
            }
            let kinds = census(&log);
            for absent in ["collect", "estimate", "kick"] {
                assert_eq!(
                    kinds.get(absent),
                    None,
                    "{sites} sites, seed {seed}: {kinds:?}"
                );
            }
        }
        // Origin-first from a follower is the order that costs both bounds
        // exactly.
        let rig = Rig::new(sites, 58);
        rig.nodes[1].abcast("m");
        settle_origin_first(&rig);
        rig.assert_total_order(1);
        let (requests, decisions) = frames_per_message(&rig.rec.log());
        let requests: Vec<usize> = requests.into_values().collect();
        let decisions: usize = decisions.into_values().map(|d| d.len()).sum();
        assert_eq!(requests, [request_bound], "one request");
        assert_eq!(decisions, decision_frames, "one decision");
    }
}

#[test]
fn a_request_whose_origin_crashed_mid_broadcast_is_still_ordered() {
    // Site 1 reaches exactly one of the others and dies; that site's relay
    // is all that is left of the request.
    for reached in [0u16, 2] {
        let rig = Rig::new(3, 61);
        let h = rig.net.handle();
        rig.nodes[1].abcast("orphan");
        rig.quiesce();
        let pending = h.pending_datagrams();
        assert_eq!(pending.len(), 2, "{pending:?}");
        for dg in pending {
            if dg.to == SiteId(reached) {
                assert!(h.pump_seq(dg.seq));
            } else {
                assert!(h.drop_seq(dg.seq));
            }
        }
        h.crash(SiteId(1));
        rig.settle();

        let survivors: Vec<_> = [0usize, 2]
            .iter()
            .map(|&i| rig.nodes[i].ab_delivered())
            .collect();
        assert_eq!(survivors[0].len(), 1, "reached {reached}: {survivors:?}");
        assert_eq!(survivors[0][0].0, SiteId(1));
        assert_eq!(survivors[0], survivors[1]);
    }
}

#[test]
fn a_request_whose_coordinator_origin_crashed_after_one_propose_is_still_ordered() {
    // Site 0 coordinates round 0 and casts: its `Propose` is the one copy
    // of the request that leaves it. It reaches exactly one follower, which
    // takes the request into its pending set and, its vote and site 0's
    // making the quorum, decides and delivers it; then site 0 dies. The
    // failure detector, driven by hand on virtual time, lets the survivors
    // exclude it; the other follower casts meanwhile.
    for reached in [1u16, 2] {
        let rig = Rig::new(3, 62);
        let h = rig.net.handle();
        for node in &rig.nodes {
            node.inject_fd_tick();
        }
        rig.settle();
        rig.nodes[0].abcast("orphan");
        rig.quiesce();
        let pending = h.pending_datagrams();
        let log = rig.rec.log();
        assert_eq!(pending.len(), 2, "{pending:?}");
        for dg in pending {
            assert_eq!(kind(&log[dg.seq as usize - 1]), "propose");
            if dg.to == SiteId(reached) {
                assert!(h.pump_seq(dg.seq));
            } else {
                assert!(h.drop_seq(dg.seq));
            }
        }
        rig.quiesce();
        let other = 3 - reached as usize;
        let orphan = vec![(SiteId(0), "orphan".into())];
        assert_eq!(rig.nodes[reached as usize].ab_delivered(), orphan);
        assert_eq!(rig.nodes[reached as usize].ab_pending(), 0);
        assert_eq!(rig.nodes[other].ab_delivered(), []);
        assert_eq!(rig.nodes[other].ab_pending(), 0);
        h.crash(SiteId(0));
        rig.nodes[other].abcast("after");

        let survivors = || [1usize, 2].map(|i| rig.nodes[i].ab_delivered());
        let done = || {
            survivors().iter().all(|d| d.len() == 2)
                && [1usize, 2]
                    .iter()
                    .all(|&i| !rig.nodes[i].current_view().contains(SiteId(0)))
        };
        for _ in 0..200 {
            if done() {
                break;
            }
            rig.clock.advance(std::time::Duration::from_millis(60));
            for i in [1, 2] {
                rig.nodes[i].inject_fd_tick();
                rig.nodes[i].inject_retransmit_tick();
            }
            rig.settle();
        }
        let [a, b] = survivors();
        assert!(done(), "reached {reached}: stalled at {a:?} and {b:?}");
        assert_eq!(a, b, "reached {reached}");
        assert!(
            a.contains(&(SiteId(0), "orphan".into())),
            "reached {reached}: {a:?}"
        );
        for i in [1, 2] {
            assert_eq!(rig.nodes[i].ab_pending(), 0, "reached {reached}, site {i}");
            assert_eq!(
                rig.nodes[i].external_errors(),
                0,
                "reached {reached}, site {i}"
            );
        }
    }
}

/// Site 0 coordinates round 0 and submits `first` through `cast`. Its
/// `Propose` reaches site 1, which decides as it accepts, and site 1's `Ack`
/// decides site 0, which delivers its decision at once. Its `Propose` to
/// site 2 is delivered too when `second_propose` says so, and lost
/// otherwise; `before_crash` runs, and site 0 crashes. The failure
/// detector, driven by hand on virtual time, lets the survivors exclude it;
/// site 2 submits `second` meanwhile. Returns the rig once both survivors
/// have delivered two operations and left site 0 out of their views.
fn decide_then_crash(
    second_propose: bool,
    cast: impl Fn(&Node, &'static str),
    before_crash: impl FnOnce(),
) -> Rig {
    let rig = Rig::new(3, 64);
    let h = rig.net.handle();
    for node in &rig.nodes {
        node.inject_fd_tick();
    }
    rig.settle();
    cast(&rig.nodes[0], "first");
    // Everything between sites 0 and 1 goes through.
    loop {
        rig.quiesce();
        let pending = h.pending_datagrams();
        match pending.iter().find(|dg| dg.to != SiteId(2)) {
            Some(dg) => assert!(h.pump_seq(dg.seq)),
            None => break,
        }
    }
    for i in [0, 1] {
        assert_eq!(rig.nodes[i].ab_delivered().len(), 1, "site {i} decided");
    }
    let log = rig.rec.log();
    let pending = h.pending_datagrams();
    let [dg] = pending.as_slice() else {
        panic!("one frame left in flight: {pending:?}");
    };
    assert_eq!(kind(&log[dg.seq as usize - 1]), "propose");
    if second_propose {
        assert!(h.pump_seq(dg.seq));
    } else {
        assert!(h.drop_seq(dg.seq));
    }
    rig.quiesce();
    before_crash();
    h.crash(SiteId(0));
    cast(&rig.nodes[2], "second");

    let done = || {
        [1usize, 2].iter().all(|&i| {
            rig.nodes[i].ab_delivered().len() == 2
                && !rig.nodes[i].current_view().contains(SiteId(0))
        })
    };
    for _ in 0..200 {
        if done() {
            break;
        }
        rig.clock.advance(std::time::Duration::from_millis(60));
        for i in [1, 2] {
            rig.nodes[i].inject_fd_tick();
            rig.nodes[i].inject_retransmit_tick();
        }
        rig.settle();
    }
    let [a, b] = [1usize, 2].map(|i| rig.nodes[i].ab_delivered());
    assert!(
        done(),
        "second propose {second_propose}: stalled at {a:?} and {b:?}"
    );
    rig
}

#[test]
fn a_decision_whose_coordinator_crashed_after_its_first_ack_is_delivered_by_both_survivors() {
    // A decided site answers for its decision: site 1 decided as it
    // accepted, and answers site 2's kick, or its collect as round 1's
    // coordinator. Site 2 decided too if the second `Propose` reached it.
    for second_propose in [true, false] {
        let rig = decide_then_crash(second_propose, |node, m| node.abcast(m), || {});
        let at = |i: usize| format!("second propose {second_propose}, site {i}");
        let order = rig.nodes[1].ab_delivered();
        assert_eq!(order[0], (SiteId(0), "first".into()), "{}", at(1));
        for i in [1, 2] {
            let node = &rig.nodes[i];
            assert_eq!(node.ab_delivered(), order, "{}", at(i));
            assert_eq!(node.ab_pending(), 0, "{}", at(i));
            assert_eq!(node.external_errors(), 0, "{}", at(i));
        }
    }
}

#[test]
fn a_reply_the_crashed_coordinator_sent_is_in_both_survivors_logs() {
    // The same schedule with KV clients: site 0 applied its put and its
    // client got the reply before site 0 crashed.
    for second_propose in [true, false] {
        let clients = std::sync::Mutex::new(Vec::new());
        let mut replied = Vec::new();
        let cast = |node: &Node, m| {
            let pending = node.kv_put(m, m);
            if node.site == SiteId(0) {
                clients
                    .lock()
                    .expect("clients")
                    .push((Bytes::from(m), pending));
            }
        };
        let before_crash = || {
            for (key, pending) in clients.lock().expect("clients").drain(..) {
                if pending.wait(std::time::Duration::ZERO).is_some() {
                    replied.push(key);
                }
            }
        };
        let rig = decide_then_crash(second_propose, cast, before_crash);
        assert_eq!(
            replied.len(),
            1,
            "second propose {second_propose}: no reply before the crash"
        );
        for i in [1, 2] {
            let log = rig.nodes[i].kv_log();
            for key in &replied {
                assert!(
                    log.iter()
                        .any(|a| a.uid.origin == SiteId(0) && a.cmd.key() == key),
                    "second propose {second_propose}, site {i}: {key:?} replied but not in {log:?}"
                );
            }
            assert_eq!(
                log,
                rig.nodes[1].kv_log(),
                "second propose {second_propose}, site {i}"
            );
        }
    }
}

#[test]
fn a_request_whose_forward_went_to_a_coordinator_that_left_is_handed_to_the_next() {
    // Site 2 reaches only site 3 and dies; site 3's forward to round 0's
    // coordinator, site 0, is lost, and site 0 leaves. Site 1 coordinates
    // round 0 of the next view, and all it learns of `m` is what site 3
    // hands it at the view change.
    let rig = Rig::new(4, 91);
    let h = rig.net.handle();
    rig.nodes[2].abcast("m");
    rig.quiesce();
    let pending = h.pending_datagrams();
    assert_eq!(pending.len(), 3, "{pending:?}");
    for dg in pending {
        if dg.to == SiteId(3) {
            assert!(h.pump_seq(dg.seq));
        } else {
            assert!(h.drop_seq(dg.seq));
        }
    }
    h.crash(SiteId(2));
    rig.quiesce();
    for dg in h.pending_datagrams() {
        if dg.to == SiteId(0) {
            assert!(h.drop_seq(dg.seq));
        }
    }
    rig.nodes[1].request_leave(SiteId(0));
    rig.settle();

    for i in [1, 3] {
        let node = &rig.nodes[i];
        assert!(!node.current_view().contains(SiteId(0)), "{:?}", node.site);
        assert_eq!(
            node.ab_delivered(),
            vec![(SiteId(2), "m".into())],
            "{:?}",
            node.site
        );
    }
}

#[test]
fn a_joining_coordinator_orders_what_was_cast_before_it_was_a_member() {
    // Followers send nothing in round 0 because every request is sent to the
    // coordinator — except when the coordinator joined after the cast. Views are sorted, so a joining lowest site is round
    // 0's coordinator from the moment it is a member. `m` is cast under the
    // old view and is not in the Join's batch. Held back, in turn:
    // - the decisions: `m` is pending at every incumbent when it installs
    //   the view, the state transfer is its only way to site 0, and what
    //   site 0 then proposes reaches sites 2 and 3 before they know it;
    // - the state transfer: site 0 is the last to install the view.
    let held_back: [fn(&Sent) -> bool; 2] = [|s| kind(s) == "decide", |s| kind(s) == "sync"];
    for (last, rejoin) in [(0, false), (0, true), (1, false), (1, true)] {
        let rig = if rejoin {
            let rig = Rig::new(4, 71);
            rig.nodes[1].request_leave(SiteId(0));
            rig.settle();
            rig
        } else {
            Rig::with_members(4, 71, Some(vec![SiteId(1), SiteId(2), SiteId(3)]))
        };
        rig.nodes[1].request_join(SiteId(0));
        rig.quiesce(); // site 1 coordinates: the Join is proposed alone
        rig.nodes[2].abcast("m");
        settle_with_last(&rig, held_back[last]);
        settle_ringing(&rig);

        for node in &rig.nodes {
            let got = node.ab_delivered();
            let at = format!("held back {last}, rejoin {rejoin}, {:?}", node.site);
            assert!(node.current_view().contains(SiteId(0)), "{at}");
            assert_eq!(got, vec![(SiteId(2), "m".into())], "{at}");
        }
    }
}

/// Settle `rig`, ringing its alarms — RelComm's resends and the acks it
/// owes — until nothing any site sent is unacknowledged: a frame held by a
/// site that had not installed its sender's view is delivered by a resend.
/// With the failure detector off nothing can happen after that.
fn settle_ringing(rig: &Rig) {
    let quiet = || rig.pending().iter().all(|&p| p == 0);
    rig.net
        .handle()
        .run_until(&rig.nodes, Duration::from_secs(60), quiet);
}

/// The lowest site joins {1, 2, 3} — or, with `rejoin`, leaves all four and
/// joins again — under the network's own (seeded) delivery orders and
/// `loss`, with casts from every incumbent in flight around it.
fn join_mid_stream(seed: u64, rejoin: bool, loss: f64) -> Rig {
    let rig = match rejoin {
        true => Rig::new(4, seed),
        false => Rig::with_members(4, seed, Some(vec![SiteId(1), SiteId(2), SiteId(3)])),
    };
    let h = rig.net.handle();
    h.set_loss(loss);
    if rejoin {
        rig.nodes[1].request_leave(SiteId(0));
        settle_ringing(&rig);
    }
    for i in 0..3 {
        rig.nodes[1 + i % 3].abcast(format!("a{i}"));
    }
    rig.nodes[2].request_join(SiteId(0));
    for i in 0..6 {
        rig.nodes[1 + i % 3].abcast(format!("b{i}"));
        // Let the join get part of the way before the next cast.
        for _ in 0..(seed % 7) {
            rig.quiesce();
            h.pump_one();
        }
    }
    settle_ringing(&rig);
    rig
}

/// Every cast of [`join_mid_stream`] ordered at every incumbent, and the
/// joiner's deliveries a suffix of theirs.
fn assert_nothing_unordered(rig: &Rig, seed: &str) {
    let full = rig.nodes[1].ab_delivered();
    assert_eq!(full.len(), 9, "seed {seed}: {full:?}");
    for node in &rig.nodes {
        assert_eq!(node.ab_pending(), 0, "seed {seed}, {:?}", node.site);
    }
    for node in &rig.nodes[2..] {
        assert_eq!(node.ab_delivered(), full, "seed {seed}, {:?}", node.site);
    }
    let joiner = rig.nodes[0].ab_delivered();
    assert_eq!(joiner, full[full.len() - joiner.len()..], "seed {seed}");
}

#[test]
fn a_join_of_the_lowest_site_mid_stream_leaves_nothing_unordered() {
    // The same join under the network's own (seeded) delivery orders, with
    // casts from every incumbent in flight around it.
    for seed in 80..104 {
        let rig = join_mid_stream(seed, false, 0.0);
        assert_nothing_unordered(&rig, &seed.to_string());
    }
}

#[test]
fn a_join_or_rejoin_of_the_lowest_site_on_a_lossy_network_leaves_nothing_unordered() {
    // The same join, and the rejoin, with one datagram in ten lost. A frame
    // of the joiner's that reaches an incumbent before the incumbent
    // installs the view is held, not acked and dropped, so it is resent
    // like a lost one. Acked and dropped, it left an incumbent instances
    // behind with nothing left to resend on join seeds 329 and 343 and
    // rejoin seed 377.
    for rejoin in [false, true] {
        for seed in 320..384 {
            let rig = join_mid_stream(seed, rejoin, 0.1);
            assert_nothing_unordered(&rig, &format!("{seed}, rejoin {rejoin}"));
        }
    }
}

#[test]
fn a_join_mid_stream_sends_no_kick_and_no_more_datagrams() {
    // The join sweep, counted: no site kicks the joiner to hear from it, and
    // the sweep's 24 joins cost no more datagrams than the 1736 they cost
    // when followers kicked a joined coordinator until it proposed again
    // (72 `Kick`s), the acks the timer sends alone included.
    let (mut datagrams, mut kicks) = (0, 0);
    for seed in 80..104 {
        let log = join_mid_stream(seed, false, 0.0).rec.log();
        datagrams += log.len();
        let kick = |s: &&Sent| matches!(s.payload, Some(Payload::Cons(ConsMsg::Kick { .. })));
        kicks += log.iter().filter(kick).count();
    }
    assert_eq!(kicks, 0);
    assert!(datagrams <= 1736, "{datagrams} datagrams");
}

#[test]
fn two_joins_in_one_batch_leave_both_joiners_on_the_last_view() {
    // Sites 3 and 4 ask to join {0, 1, 2}. Site 0's proposal of a cast is
    // held back until both `Join`s are pending there, so the next instance
    // orders the two together: every incumbent installs {0..3}, then
    // {0..4}, in one delivery.
    let rig = Rig::with_members(5, 73, Some(vec![SiteId(0), SiteId(1), SiteId(2)]));
    rig.nodes[0].abcast("m");
    rig.quiesce();
    rig.nodes[1].request_join(SiteId(3));
    rig.nodes[2].request_join(SiteId(4));
    settle_with_last(&rig, |s| kind(s) == "propose");
    rig.nodes[3].abcast("after");
    settle_ringing(&rig);

    let last = rig.nodes[0].current_view();
    assert_eq!(last.members(), (0..5).map(SiteId).collect::<Vec<_>>());
    for node in &rig.nodes {
        assert_eq!(node.current_view(), last, "{:?}", node.site);
        assert_eq!(node.ab_pending(), 0, "{:?}", node.site);
    }
    let after = (SiteId(3), "after".into());
    for node in &rig.nodes {
        assert_eq!(node.ab_delivered().last(), Some(&after), "{:?}", node.site);
    }
}
