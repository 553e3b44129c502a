//! Join-time state transfer: a site joining mid-stream adopts the group's
//! ordering state (next consensus instance, delivered set, current view)
//! and participates in atomic broadcast from then on. Without the transfer,
//! a fresh joiner would buffer every future decision behind instances it
//! can never receive.
//!
//! Every cluster runs on a manual network and a shared manual clock, driven
//! on virtual time by [`NetHandle::run_until`](samoa_net::NetHandle::run_until)
//! where a resend is waited for.

mod common;

use std::collections::BTreeSet;
use std::time::Duration;

use bytes::Bytes;
use samoa_net::{NetConfig, SiteId};
use samoa_proto::{Cluster, NodeConfig, StackPolicy};

use common::manual_cluster;

fn msg(i: usize) -> Bytes {
    Bytes::from(format!("m{i}"))
}

fn cluster_with_outsider(seed: u64, policy: StackPolicy) -> Cluster {
    let mut cfg = NodeConfig::with_policy(policy);
    cfg.initial_members = Some(vec![SiteId(0), SiteId(1), SiteId(2)]);
    manual_cluster(4, NetConfig::fast(seed), cfg)
}

#[test]
fn fresh_joiner_adopts_ordering_state() {
    let c = cluster_with_outsider(41, StackPolicy::Basic);
    // Advance the group several instances before the join.
    for i in 0..6 {
        c.node(i % 3).abcast(msg(i));
    }
    c.settle();
    assert_eq!(c.node(0).ab_delivered().len(), 6);
    assert!(c.node(3).ab_delivered().is_empty(), "outsider saw traffic");

    // Join mid-life, then keep broadcasting.
    c.node(0).request_join(SiteId(3));
    c.settle();
    assert!(
        c.node(3).current_view().contains(SiteId(3)),
        "joiner did not install the view via state transfer"
    );
    for i in 6..12 {
        c.node(i % 4).abcast(msg(i));
    }
    c.settle();

    // The incumbents have everything.
    let full = c.node(0).ab_delivered();
    assert_eq!(full.len(), 12);
    for i in 1..3 {
        assert_eq!(c.node(i).ab_delivered(), full, "site {i} diverged");
    }
    // The joiner has exactly the post-join suffix, in the same order.
    let joiner = c.node(3).ab_delivered();
    assert_eq!(
        joiner,
        full[full.len() - joiner.len()..].to_vec(),
        "joiner's sequence is not a suffix of the group order"
    );
    assert!(
        joiner.len() >= 6,
        "joiner missed post-join messages: {}",
        joiner.len()
    );
}

#[test]
fn joiner_can_originate_abcasts() {
    let c = cluster_with_outsider(42, StackPolicy::Basic);
    for i in 0..4 {
        c.node(i % 3).abcast(msg(i));
    }
    c.settle();
    c.node(1).request_join(SiteId(3));
    c.settle();
    // The joiner itself broadcasts; everyone (including it) must order it.
    c.node(3).abcast(Bytes::from_static(b"from-joiner"));
    c.settle();
    let full = c.node(0).ab_delivered();
    assert!(full
        .iter()
        .any(|(o, b)| *o == SiteId(3) && b == &Bytes::from_static(b"from-joiner")));
    let joiner = c.node(3).ab_delivered();
    assert!(
        joiner.iter().any(|(o, _)| *o == SiteId(3)),
        "joiner never saw its own message ordered"
    );
    // Suffix property still holds.
    assert_eq!(joiner, full[full.len() - joiner.len()..].to_vec());
}

#[test]
fn state_transfer_works_under_route_policy() {
    let c = cluster_with_outsider(43, StackPolicy::Route);
    for i in 0..3 {
        c.node(i % 3).abcast(msg(i));
    }
    c.settle();
    c.node(0).request_join(SiteId(3));
    c.settle();
    c.node(2).abcast(msg(99));
    c.settle();
    assert!(c.node(3).current_view().contains(SiteId(3)));
    let joiner = c.node(3).ab_delivered();
    assert!(
        joiner.iter().any(|(_, b)| b == &msg(99)),
        "joiner missed the post-join broadcast under Route"
    );
}

#[test]
fn rejoin_after_leave_resyncs() {
    // A member leaves, the group moves on, then it rejoins: its stale
    // next_inst must be fast-forwarded by the transfer.
    let c = manual_cluster(3, NetConfig::fast(44), NodeConfig::default());
    c.node(0).abcast(msg(0));
    c.settle();
    c.node(0).request_leave(SiteId(2));
    c.settle();
    assert!(!c.node(0).current_view().contains(SiteId(2)));
    // Group of {0,1} orders more messages; site 2 is deaf to them.
    for i in 1..4 {
        c.node(i % 2).abcast(msg(i));
    }
    c.settle();
    c.node(1).request_join(SiteId(2));
    c.settle();
    c.node(0).abcast(msg(9));
    c.net().run_until(c.nodes(), Duration::from_secs(30), || {
        c.node(2).ab_delivered().iter().any(|(_, b)| b == &msg(9))
    });
    // No duplicate deliveries at the rejoined site.
    let back = c.node(2).ab_delivered();
    let set: BTreeSet<_> = back.iter().collect();
    assert_eq!(set.len(), back.len(), "duplicate deliveries after rejoin");
}
