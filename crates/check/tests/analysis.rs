//! The static declaration analyzer run over the real group-communication
//! stack: the full abcast stack lints clean, the inferred declarations
//! validate cleanly, and `isolated route` executes under them. What a
//! `Node` declares for each kind of external event *is* what
//! [`External::new`] derives at the kind's entry event; the table below
//! pins it.

use std::time::{Duration, Instant};

use bytes::Bytes;
use samoa_check::{lint_stack, validate_decl, ConflictMatrix};
use samoa_core::analysis::{
    codes, infer_bounds, infer_m, infer_route, CallGraph, Severity, CYCLE_FALLBACK_BOUND,
};
use samoa_core::prelude::*;
use samoa_net::{NetConfig, ProtoClock, SiteId};
use samoa_proto::relcomm::RcDataIn;
use samoa_proto::{CastData, CastMsg, Cluster, Events, MsgUid, NodeConfig, Payload, StackPolicy};

fn externals(ev: &Events) -> Vec<EventType> {
    ev.entries().to_vec()
}

/// Every microprotocol of the stack, by name.
const ALL: [&str; 8] = [
    "RelComm",
    "RelCast",
    "FD",
    "Consensus",
    "ABcast",
    "Membership",
    "App",
    "Kv",
];

/// The derived `M` of every entry event, by name: a kind whose cascade is
/// cyclic reaches the whole stack; a plain user cast, in or out, never
/// reaches atomic broadcast or consensus; acks, heartbeats and the
/// retransmission tick stay in their own microprotocol, visited once.
#[test]
fn every_entry_event_declares_what_the_table_says() {
    let c = Cluster::new_manual(3, NetConfig::fast(7), NodeConfig::default());
    let node = c.node(0);
    let (stack, ev) = (node.runtime().stack(), node.events());
    let user = ["RelComm", "RelCast", "App"];
    // (entry event, M, bounds — `None` where the cascade is cyclic)
    type Row<'a> = (EventType, &'a [&'a str], Option<&'a [(&'a str, u64)]>);
    let table: [Row; 9] = [
        (ev.rc_data, &ALL, None),
        (ev.abcast, &ALL, None),
        (ev.join_leave, &ALL, None),
        (ev.fd_tick, &ALL, None),
        // RelComm's `send` is below RelCast's fan-out.
        (
            ev.rc_data_user,
            &user,
            Some(&[
                ("RelComm", CYCLE_FALLBACK_BOUND),
                ("RelCast", 1),
                ("App", 1),
            ]),
        ),
        (
            ev.bcast_user,
            &user,
            Some(&[
                ("RelComm", CYCLE_FALLBACK_BOUND),
                ("RelCast", 1),
                ("App", 1),
            ]),
        ),
        (ev.rc_ack, &["RelComm"], Some(&[("RelComm", 1)])),
        (ev.retransmit_tick, &["RelComm"], Some(&[("RelComm", 1)])),
        (ev.fd_beat, &["FD"], Some(&[("FD", 1)])),
    ];
    let mut entries: Vec<EventType> = table.iter().map(|t| t.0).collect();
    entries.sort();
    let mut listed = externals(ev);
    listed.sort();
    assert_eq!(entries, listed, "the table covers every entry event");
    for (event, m, bounds) in table {
        let name = stack.event_name(event);
        let ext = External::new(stack, event);
        let derived: Vec<&str> = ext
            .protocols
            .iter()
            .map(|&p| stack.protocol_name(p))
            .collect();
        assert_eq!(derived, m, "{name}: M");
        let derived: Vec<(&str, u64)> = ext
            .bounds
            .iter()
            .map(|&(p, b)| (stack.protocol_name(p), b))
            .collect();
        match bounds {
            Some(bounds) => assert_eq!(derived, bounds, "{name}: bounds"),
            // `Bound` ≡ `Basic` for a cyclic kind: everything saturates.
            None => assert!(
                derived.iter().all(|&(_, b)| b == CYCLE_FALLBACK_BOUND),
                "{name}: {derived:?}"
            ),
        }
    }
}

/// An inbound user cast declared without App, which only RelCast's
/// *asynchronous* delivery reaches — so the error is raised in the drain,
/// not in the root's own cascade. `external_errors` counts it whether the
/// computation ran inline (`Basic`) or detached (`Route`); the derived
/// declaration of the same entry event delivers it.
#[test]
fn an_error_raised_in_the_drain_is_counted_on_both_ingress_paths() {
    for policy in [StackPolicy::Basic, StackPolicy::Route] {
        let cfg = NodeConfig {
            clock: ProtoClock::manual(),
            ..NodeConfig::with_policy(policy)
        };
        let c = Cluster::new_manual(2, NetConfig::fast(1), cfg);
        let node = c.node(1);
        let stack = node.runtime().stack();
        let full = External::new(stack, node.events().rc_data_user);
        let mut all = stack.all_protocols().into_iter();
        let app = all.find(|&p| stack.protocol_name(p) == "App").expect("App");
        let g = CallGraph::from_stack(stack);
        let mut route = RoutePattern::new();
        for &h in stack.bound_handlers(full.event) {
            route = route.root(h);
        }
        for &h in &g.reachable_from_event(full.event) {
            for &(t, _) in g.successors(h) {
                if stack.handler_protocol(t) != app {
                    route = route.edge(h, t);
                }
            }
        }
        let under_declared = External {
            event: full.event,
            protocols: full
                .protocols
                .iter()
                .copied()
                .filter(|&p| p != app)
                .collect(),
            bounds: full
                .bounds
                .iter()
                .copied()
                .filter(|&(p, _)| p != app)
                .collect(),
            route,
        };
        let cast = |ext: &External, seq: u64| {
            let uid = MsgUid {
                origin: SiteId(0),
                seq,
            };
            let data = CastData::User(Bytes::from_static(b"on the way up"));
            node.runtime().external(
                policy,
                ext,
                EventData::new(RcDataIn {
                    sender: SiteId(0),
                    view: 0,
                    seq,
                    ctx: None,
                    payload: Payload::Cast(CastMsg { uid, data }),
                    acks: Vec::new(),
                }),
            );
        };
        cast(&under_declared, 1);
        // A detached root job counts on its way out, after Rule 3.
        let deadline = Instant::now() + Duration::from_secs(60);
        while node.external_errors() == 0 {
            assert!(Instant::now() < deadline, "{policy}: the error was lost");
            std::thread::yield_now();
        }
        assert_eq!(node.external_errors(), 1, "{policy}");
        assert!(node.rb_delivered().is_empty(), "{policy}");
        cast(&full, 2);
        node.runtime().quiesce();
        assert_eq!(node.rb_delivered().len(), 1, "{policy}");
        assert_eq!(node.external_errors(), 1, "{policy}");
    }
}

/// The shipped stack, under every bundled policy: full trigger metadata, a
/// clean lint from its entry events, and no Error-level finding from the
/// whole-stack pass (`lint_stack` and `ConflictMatrix::analyze`, what
/// `samoa-lint` runs) with every event treated as external.
#[test]
fn stack_has_full_metadata_and_lints_clean() {
    for policy in StackPolicy::ALL {
        let c = Cluster::new(3, NetConfig::fast(7), NodeConfig::with_policy(policy));
        let node = c.node(0);
        let stack = node.runtime().stack();
        assert!(stack.has_full_trigger_metadata(), "{policy:?}");
        let report = lint_stack(stack, &externals(node.events()));
        assert!(
            report.is_clean(),
            "{policy:?}: expected clean stack:\n{report}"
        );

        let all = stack.all_events();
        let mut report = lint_stack(stack, &all);
        report.merge(ConflictMatrix::analyze(stack, &all).1);
        assert!(
            !report.has_errors(),
            "{policy:?}: whole-stack report has errors:\n{report}"
        );
    }
}

#[test]
fn inferred_m_for_ack_is_relcomm_only() {
    let c = Cluster::new(3, NetConfig::fast(7), NodeConfig::default());
    let node = c.node(0);
    let stack = node.runtime().stack();
    let ev = node.events();

    let m = infer_m(stack, ev.rc_ack);
    let recv_ack = stack.handler_by_name("relcomm.recv_ack").unwrap();
    assert_eq!(m, vec![stack.handler_protocol(recv_ack)]);

    // Acyclic fragment: bounds are exact, with no cycle warning.
    let (bounds, rep) = infer_bounds(stack, ev.rc_ack);
    assert!(rep.is_clean(), "{rep}");
    assert_eq!(bounds, vec![(stack.handler_protocol(recv_ack), 1)]);
    assert!(validate_decl(stack, &Decl::Bound(&bounds), Some(ev.rc_ack)).is_clean());
}

#[test]
fn inferred_m_for_abcast_reaches_whole_stack_and_validates() {
    let c = Cluster::new(3, NetConfig::fast(7), NodeConfig::default());
    let node = c.node(0);
    let stack = node.runtime().stack();
    let ev = node.events();

    // An abcast request can cascade through every microprotocol.
    let m = infer_m(stack, ev.abcast);
    assert_eq!(m, stack.all_protocols());
    assert!(validate_decl(stack, &Decl::Basic(&m), Some(ev.abcast)).is_clean());

    // Dropping any one protocol from the inferred set is an SA010 error.
    let partial: Vec<ProtocolId> = m[1..].to_vec();
    let report = validate_decl(stack, &Decl::Basic(&partial), Some(ev.abcast));
    assert!(report.has_errors());
    assert!(report.render().contains(codes::UNDECLARED_PROTOCOL));
}

#[test]
fn abcast_bounds_fall_back_on_the_consensus_cycle() {
    // abcast.on_deliver -> consensus.propose -> ConsDecide ->
    // abcast.on_deliver is a static cycle, so path counting cannot bound
    // visits: inference warns (SA030) and falls back to a safe bound.
    let c = Cluster::new(3, NetConfig::fast(7), NodeConfig::default());
    let node = c.node(0);
    let stack = node.runtime().stack();
    let ev = node.events();

    let (bounds, rep) = infer_bounds(stack, ev.abcast);
    assert_eq!(rep.count(Severity::Error), 0, "{rep}");
    assert!(rep.render().contains(codes::CYCLE_BOUND_UNKNOWN));
    assert_eq!(bounds.len(), stack.all_protocols().len());
    assert!(bounds.iter().all(|&(_, b)| b == CYCLE_FALLBACK_BOUND));

    // The fallback declaration is error-free (the same cycle warning).
    let report = validate_decl(stack, &Decl::Bound(&bounds), Some(ev.abcast));
    assert!(!report.has_errors(), "{report}");
}

/// The conflict matrix of the shipped stack: an abcast cascade can reach
/// every microprotocol, so every protocol is reachable and the abcast
/// footprint couples the full stack — and the SA05x pass reports no
/// provably-unreachable conflicts.
#[test]
fn shipped_stack_conflict_matrix_is_total_and_reachable() {
    let c = Cluster::new(3, NetConfig::fast(7), NodeConfig::default());
    let node = c.node(0);
    let stack = node.runtime().stack();

    let (matrix, report) = ConflictMatrix::analyze(stack, &externals(node.events()));
    assert!(
        report.is_clean(),
        "SA05x noise on the real stack:\n{report}"
    );
    assert_eq!(matrix.protocol_count(), stack.all_protocols().len());
    for &p in &stack.all_protocols() {
        assert!(matrix.contended(p), "protocol {p:?} unreachable");
    }
    let abcast_fp = matrix
        .footprint(node.events().abcast)
        .expect("abcast is an analyzed root");
    assert_eq!(
        abcast_fp.len(),
        stack.all_protocols().len(),
        "abcast should statically reach the whole stack"
    );
}

#[test]
fn inferred_route_validates_and_executes_abcast() {
    let c = Cluster::new(
        3,
        NetConfig::fast(7),
        NodeConfig::with_policy(StackPolicy::Route),
    );
    let node = c.node(0);
    let stack = node.runtime().stack();
    let ev = node.events();

    let pat = infer_route(stack, ev.abcast);
    assert!(validate_decl(stack, &Decl::Route(&pat), Some(ev.abcast)).is_clean());

    // The node's own Route policy uses exactly this inference; an abcast
    // must still reach every site in the same total order.
    c.node(0).abcast("alpha");
    c.node(1).abcast("beta");
    c.settle();
    let order = c.node(0).ab_delivered();
    assert_eq!(order.len(), 2);
    for i in 1..3 {
        assert_eq!(c.node(i).ab_delivered(), order, "site {i} diverged");
    }
}
