//! End-to-end tests of the group-communication stack over the simulated
//! network: reliable broadcast, atomic-broadcast total order, membership
//! changes, crashes, and message loss — under every isolation policy.
//!
//! Every cluster runs on a manual network and a shared manual clock: a
//! lossless run settles, and what waits for a timeout (a resend, a
//! suspicion) is driven on virtual time by
//! [`NetHandle::run_until`](samoa_net::NetHandle::run_until). No test
//! sleeps or reads the wall clock.

#![allow(clippy::field_reassign_with_default)]
mod common;

use std::collections::BTreeSet;
use std::time::Duration;

use bytes::Bytes;
use samoa_net::{NetConfig, SiteId};
use samoa_proto::{Cluster, NodeConfig, ProtoClock, StackPolicy};

use common::manual_cluster;

/// The virtual time a driven run may take before it counts as stalled.
const WITHIN: Duration = Duration::from_secs(30);

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
    let c = manual_cluster(4, NetConfig::fast(1), NodeConfig::default());
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
    let c = manual_cluster(3, NetConfig::lan(2), NodeConfig::default());
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
        let c = manual_cluster(3, NetConfig::fast(7), NodeConfig::with_policy(policy));
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
    let c = manual_cluster(3, NetConfig::fast(3), cfg);
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
    let c = manual_cluster(4, NetConfig::fast(4), NodeConfig::default());
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
    let c = manual_cluster(3, NetConfig::fast(5), NodeConfig::default());
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
        let c = manual_cluster(4, NetConfig::fast(6), cfg);
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
    let c = manual_cluster(3, net_cfg, NodeConfig::default());
    for i in 0..6 {
        c.node(i % 3).abcast(msg(i));
    }
    // What a lost datagram held comes back when a resend falls due.
    c.net().run_until(c.nodes(), WITHIN, || {
        (0..3).all(|i| c.node(i).ab_delivered().len() == 6)
    });
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
    c.net().run_until(c.nodes(), WITHIN, || {
        (0..3).all(|i| c.node(i).relcomm_pending() == 0)
    });
}

/// The failure detector on its own alarm: nobody injects a tick, the
/// driver rings each node's heartbeat as it falls due.
#[test]
fn crashed_site_is_suspected_and_excluded() {
    let clock = ProtoClock::manual();
    let mut cfg = NodeConfig::default();
    cfg.enable_fd = true;
    cfg.fd_timeout = Duration::from_millis(120);
    cfg.clock = clock.clone();
    let c = Cluster::new_manual(3, NetConfig::fast(9), cfg);
    // Let heartbeats flow past the timeout: nobody is falsely suspected.
    let t0 = clock.now();
    c.net().run_until(c.nodes(), WITHIN, || {
        clock.now() - t0 >= Duration::from_millis(150)
    });
    assert!(c.nodes().iter().all(|n| n.suspects().is_empty()));
    c.net().crash(SiteId(2));
    // Suspicion -> leave -> consensus among the survivors.
    let excluded = c.net().run_until(c.nodes(), WITHIN, || {
        (0..2).all(|i| !c.node(i).current_view().contains(SiteId(2)))
    });
    assert!(excluded > Duration::from_millis(120), "{excluded:?}");
    // The surviving majority still orders messages.
    c.node(0).abcast(msg(1));
    c.node(1).abcast(msg(2));
    c.net().run_until(c.nodes(), WITHIN, || {
        (0..2).all(|i| c.node(i).ab_delivered().len() == 2)
    });
    assert_eq!(c.node(0).ab_delivered(), c.node(1).ab_delivered());
}

/// A seed replays a run: the same lossy workload, driven twice on virtual
/// time, delivers the same messages in the same order at every site, puts
/// the same number of datagrams on the wire and ends at the same virtual
/// time. Under `Basic` every computation runs inline on the driving thread.
#[test]
fn the_driver_replays_a_seed() {
    let run = || {
        let mut net_cfg = NetConfig::fast(13);
        net_cfg.loss_probability = 0.2;
        let c = manual_cluster(3, net_cfg, NodeConfig::default());
        for i in 0..6 {
            c.node(i % 3).abcast(msg(i));
            c.node((i + 1) % 3).rbcast(msg(100 + i));
        }
        let took = c.net().run_until(c.nodes(), WITHIN, || {
            c.nodes()
                .iter()
                .all(|n| n.ab_delivered().len() == 6 && n.rb_delivered().len() == 6)
        });
        let logs: Vec<_> = c
            .nodes()
            .iter()
            .map(|n| (n.ab_delivered(), n.rb_delivered()))
            .collect();
        (logs, c.net().total_stats(), took)
    };
    let first = run();
    assert!(first.1.dropped_loss > 0, "nothing lost — test vacuous");
    assert!(first.2 > Duration::ZERO, "nothing resent — test vacuous");
    for _ in 0..3 {
        assert_eq!(run(), first);
    }
}

/// A run that cannot finish names the seed and the virtual time that
/// replay it: here nothing is in flight and no alarm is armed.
#[test]
#[should_panic(expected = "seed 12: not done at virtual time 0ns")]
fn a_stalled_run_names_its_seed() {
    let c = manual_cluster(2, NetConfig::fast(12), NodeConfig::default());
    c.net().run_until(c.nodes(), WITHIN, || false);
}

#[test]
fn unsync_policy_still_functions_in_light_traffic() {
    // Unsync is unsafe under contention, but a sequential trickle works —
    // this pins down that the baseline is runnable for the benches.
    let c = manual_cluster(
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
    let c = manual_cluster(3, NetConfig::fast(11), NodeConfig::default());
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
    // Whether every member's report of delivering the first decision has
    // reached site 0 by the time it delivers the second depends on the
    // order the network delivers in. Under seed 11 one has not, so the first
    // decision is kept for one more instance. The run is a function of the
    // seed (`the_driver_replays_a_seed`), so the count is exact.
    assert_eq!(c.node(0).consensus_instances(), 2, "the first is kept");
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
            let c = manual_cluster(n as usize, NetConfig::fast(u64::from(n)), cfg);
            let what = format!("{policy} at n = {n}");
            c.node(0).rbcast(msg(0));
            c.node(1).abcast(msg(1));
            let put = c.node(1).kv_put("k", "v");
            c.node(0).request_join(SiteId(n - 1));
            c.settle();
            assert!(put.wait(Duration::ZERO).is_some(), "{what}: no reply");
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
