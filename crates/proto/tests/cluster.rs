//! End-to-end tests of the group-communication stack over the simulated
//! network: reliable broadcast, atomic-broadcast total order, membership
//! changes, crashes, and message loss — under every isolation policy.

#![allow(clippy::field_reassign_with_default)]
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use bytes::Bytes;
use samoa_net::{NetConfig, SiteId};
use samoa_proto::{Cluster, NodeConfig, StackPolicy};

fn msg(i: usize) -> Bytes {
    Bytes::from(format!("m{i}"))
}

/// Deliveries as a set (RelCast guarantees reliability, not order).
fn rb_set(c: &Cluster, node: usize) -> BTreeSet<(SiteId, Bytes)> {
    c.node(node).rb_delivered().into_iter().collect()
}

/// Nobody joins an external computation; the node counts the ones that
/// ended in an error (`BoundExhausted`, `NoRoute`, a handler panic).
fn assert_no_external_errors(c: &Cluster, what: &str) {
    for n in c.nodes() {
        assert_eq!(n.external_errors(), 0, "{what}: site {}", n.site);
    }
}

#[test]
fn rbcast_reaches_every_site() {
    let c = Cluster::new(4, NetConfig::fast(1), NodeConfig::default());
    for i in 0..5 {
        c.node(i % 4).rbcast(msg(i));
    }
    c.settle();
    let expected = rb_set(&c, 0);
    assert_eq!(expected.len(), 5);
    for i in 1..4 {
        assert_eq!(rb_set(&c, i), expected, "site {i} diverged");
    }
}

#[test]
fn abcast_total_order_is_identical_everywhere() {
    let c = Cluster::new(3, NetConfig::lan(2), NodeConfig::default());
    for i in 0..10 {
        c.node(i % 3).abcast(msg(i));
    }
    c.settle();
    let order0 = c.node(0).ab_delivered();
    assert_eq!(order0.len(), 10, "not all messages ordered");
    for i in 1..3 {
        assert_eq!(c.node(i).ab_delivered(), order0, "site {i} diverged");
    }
    // Per-origin uniqueness: each (origin, payload) delivered exactly once.
    let set: BTreeSet<_> = order0.iter().cloned().collect();
    assert_eq!(set.len(), 10);
}

#[test]
fn abcast_agrees_under_every_policy() {
    for policy in [
        StackPolicy::Serial,
        StackPolicy::Basic,
        StackPolicy::Bound,
        StackPolicy::Route,
        StackPolicy::TwoPhase,
    ] {
        let c = Cluster::new(3, NetConfig::fast(7), NodeConfig::with_policy(policy));
        for i in 0..6 {
            c.node(i % 3).abcast(msg(i));
        }
        c.settle();
        let order0 = c.node(0).ab_delivered();
        assert_eq!(order0.len(), 6, "{policy:?}: lost messages");
        for i in 1..3 {
            assert_eq!(
                c.node(i).ab_delivered(),
                order0,
                "{policy:?}: site {i} diverged"
            );
        }
        assert_no_external_errors(&c, &format!("{policy:?}"));
    }
}

#[test]
fn basic_policy_history_is_serializable() {
    let mut cfg = NodeConfig::default();
    cfg.record_history = true;
    let c = Cluster::new(3, NetConfig::fast(3), cfg);
    for i in 0..6 {
        c.node(i % 3).abcast(msg(i));
        c.node((i + 1) % 3).rbcast(msg(100 + i));
    }
    c.settle();
    for i in 0..3 {
        c.node(i)
            .runtime()
            .check_isolation()
            .unwrap_or_else(|v| panic!("site {i}: {v}"));
    }
}

#[test]
fn voluntary_leave_installs_consistent_views() {
    let c = Cluster::new(4, NetConfig::fast(4), NodeConfig::default());
    c.node(0).request_leave(SiteId(3));
    c.settle();
    for i in 0..3 {
        let v = c.node(i).current_view();
        assert_eq!(v.members(), &[SiteId(0), SiteId(1), SiteId(2)], "site {i}");
        assert_eq!(v.id, 1);
    }
}

#[test]
fn join_after_leave_round_trips() {
    let c = Cluster::new(3, NetConfig::fast(5), NodeConfig::default());
    c.node(0).request_leave(SiteId(2));
    c.settle();
    assert_eq!(c.node(0).current_view().len(), 2);
    c.node(1).request_join(SiteId(2));
    c.settle();
    for i in 0..2 {
        let v = c.node(i).current_view();
        assert_eq!(v.len(), 3, "site {i}");
        assert_eq!(v.id, 2);
        assert!(v.contains(SiteId(2)));
    }
}

#[test]
fn broadcast_during_view_change_loses_nothing_with_isolation() {
    // The §3 "Problem" scenario (experiment E5): a join is in flight while
    // broadcasts stream. Under an isolating policy, every message must
    // reach every member of the final view.
    for policy in [StackPolicy::Basic, StackPolicy::Serial, StackPolicy::Route] {
        let mut cfg = NodeConfig::with_policy(policy);
        // Site 3 exists but starts outside the group.
        cfg.initial_members = Some(vec![SiteId(0), SiteId(1), SiteId(2)]);
        let c = Cluster::new(4, NetConfig::fast(6), cfg);
        // Stream broadcasts while the join churns through.
        for i in 0..3 {
            c.node(i).rbcast(msg(i));
        }
        c.node(0).request_join(SiteId(3));
        for i in 3..8 {
            c.node(i % 3).rbcast(msg(i));
        }
        c.settle();
        for i in 0..3 {
            assert_eq!(
                c.node(i).current_view().members(),
                &[SiteId(0), SiteId(1), SiteId(2), SiteId(3)],
                "{policy:?}: site {i} view"
            );
        }
        // Messages broadcast after the join was installed everywhere must
        // reach site 3; messages from before may legitimately miss it. The
        // strong assertion: the three original members agree pairwise, and
        // nothing was lost among them.
        let expected = rb_set(&c, 0);
        assert_eq!(expected.len(), 8, "{policy:?}: lost messages");
        for i in 1..3 {
            assert_eq!(rb_set(&c, i), expected, "{policy:?}: site {i}");
        }
        assert_no_external_errors(&c, &format!("{policy:?} during a join"));
    }
}

#[test]
fn message_loss_is_masked_by_retransmission() {
    let mut net_cfg = NetConfig::fast(8);
    net_cfg.loss_probability = 0.10;
    let c = Cluster::new(3, net_cfg, NodeConfig::default());
    for i in 0..6 {
        c.node(i % 3).abcast(msg(i));
    }
    // With loss, settle() alone can race a pending retransmission; poll.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        c.settle();
        if (0..3).all(|i| c.node(i).ab_delivered().len() == 6) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "retransmission did not recover all messages: {:?}",
            (0..3)
                .map(|i| c.node(i).ab_delivered().len())
                .collect::<Vec<_>>()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let order0 = c.node(0).ab_delivered();
    for i in 1..3 {
        assert_eq!(c.node(i).ab_delivered(), order0, "site {i} diverged");
    }
    // Loss actually happened...
    let dropped = c.net().total_stats().dropped_loss;
    assert!(dropped > 0, "no loss injected — test vacuous");
    // ...and the channels fully repair: every unacknowledged message is
    // eventually retransmitted and acked, so pending drains everywhere.
    // (Deliveries alone can succeed via RelCast's flooding before any RTO
    // fires, so `retransmissions > 0` is not guaranteed — drained pending
    // is the correct liveness assertion.)
    let deadline = Instant::now() + Duration::from_secs(30);
    while (0..3).any(|i| c.node(i).relcomm_pending() > 0) {
        assert!(
            Instant::now() < deadline,
            "pending never drained: {:?}",
            (0..3)
                .map(|i| c.node(i).relcomm_pending())
                .collect::<Vec<_>>()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn crashed_site_is_suspected_and_excluded() {
    let mut cfg = NodeConfig::default();
    cfg.enable_fd = true;
    cfg.fd_timeout = Duration::from_millis(120);
    let c = Cluster::new(3, NetConfig::fast(9), cfg);
    // Let heartbeats flow so nobody is falsely suspected.
    std::thread::sleep(Duration::from_millis(150));
    c.net().crash(SiteId(2));
    // Wait for suspicion -> leave -> consensus among the survivors.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let done = (0..2).all(|i| {
            let v = c.node(i).current_view();
            !v.contains(SiteId(2))
        });
        if done {
            break;
        }
        assert!(Instant::now() < deadline, "crashed site never excluded");
        std::thread::sleep(Duration::from_millis(30));
    }
    // The surviving majority still orders messages.
    c.node(0).abcast(msg(1));
    c.node(1).abcast(msg(2));
    let deadline = Instant::now() + Duration::from_secs(20);
    while c.node(0).ab_delivered().len() < 2 || c.node(1).ab_delivered().len() < 2 {
        assert!(Instant::now() < deadline, "survivors stopped ordering");
        std::thread::sleep(Duration::from_millis(30));
    }
    assert_eq!(c.node(0).ab_delivered(), c.node(1).ab_delivered());
}

#[test]
fn unsync_policy_still_functions_in_light_traffic() {
    // Unsync is unsafe under contention, but a sequential trickle works —
    // this pins down that the baseline is runnable for the benches.
    let c = Cluster::new(
        3,
        NetConfig::fast(10),
        NodeConfig::with_policy(StackPolicy::Unsync),
    );
    c.node(0).abcast(msg(0));
    c.settle();
    c.node(1).abcast(msg(1));
    c.settle();
    let order0 = c.node(0).ab_delivered();
    assert_eq!(order0.len(), 2);
    assert_eq!(c.node(2).ab_delivered(), order0);
    assert_no_external_errors(&c, "unsync trickle");
}

#[test]
fn stack_diagnostics_expose_progress() {
    let c = Cluster::new(3, NetConfig::fast(11), NodeConfig::default());
    c.node(0).abcast(msg(0));
    c.node(1).rbcast(msg(1));
    c.settle();
    assert_eq!(c.node(0).ab_pending(), 0, "request left pending");
    assert_eq!(c.node(0).cast_seen(), 1);
    assert!(c.node(0).suspects().is_empty());
    // A decision is kept until every member has reported delivering past
    // it: the acks that would report that ride the next instance.
    assert_eq!(c.node(0).consensus_instances(), 1);
    c.node(0).abcast(msg(2));
    c.settle();
    assert_eq!(c.node(0).consensus_instances(), 1, "the first is collected");
    assert_eq!(c.node(0).observed_views().len(), 0, "no view ops occurred");
    assert_no_external_errors(&c, "one abcast");
}

/// `Bound` and `Route` run under the declarations derived at each entry
/// event, and those are sound: every kind of external event — a user cast,
/// an atomic broadcast, a KV put, a join with its state transfer — runs to
/// the end on every site, at two group sizes. A user cast fans out once per
/// peer, so without the fan-out mark on RelCast its RelComm bound would be
/// 1 and `Bound` would fail here.
#[test]
fn bound_and_route_run_every_kind_of_external_event_without_an_error() {
    for n in [3u16, 5] {
        for policy in [StackPolicy::Bound, StackPolicy::Route] {
            let mut cfg = NodeConfig::with_policy(policy);
            cfg.initial_members = Some((0..n - 1).map(SiteId).collect());
            let c = Cluster::new(n as usize, NetConfig::fast(u64::from(n)), cfg);
            let what = format!("{policy} at n = {n}");
            c.node(0).rbcast(msg(0));
            c.node(1).abcast(msg(1));
            let put = c.node(1).kv_put("k", "v");
            c.node(0).request_join(SiteId(n - 1));
            c.settle();
            assert!(
                put.wait(Duration::from_secs(60)).is_some(),
                "{what}: no reply"
            );
            assert!(
                c.nodes()
                    .iter()
                    .all(|s| s.current_view().contains(SiteId(n - 1))),
                "{what}: the join was not installed everywhere"
            );
            for i in 0..n as usize - 1 {
                assert_eq!(c.node(i).rb_delivered().len(), 1, "{what}: site {i}");
            }
            assert_no_external_errors(&c, &what);
        }
    }
}
