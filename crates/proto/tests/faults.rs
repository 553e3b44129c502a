//! Fault-injection tests: partitions, duplication, churn, and coordinator
//! crash in the middle of an atomic-broadcast stream.
//!
//! All tests run on the manual-pump substrate ([`Cluster::new_manual`]) with
//! a shared [`ProtoClock::manual`]: no delivery threads, no timer threads,
//! no wall-clock deadlines. Timeout-driven behaviour (retransmission,
//! failure detection) is driven on virtual time by
//! [`NetHandle::run_until`](samoa_net::NetHandle::run_until), which rings
//! each node's alarm when the clock reaches it, so every run is
//! deterministic and a "wait" is bounded in virtual time rather than a
//! polling sleep.

#![allow(clippy::field_reassign_with_default)]
mod common;

use std::collections::BTreeSet;
use std::time::Duration;

use bytes::Bytes;
use samoa_net::{NetConfig, SiteId};
use samoa_proto::NodeConfig;

use common::manual_cluster;

/// The virtual time a driven run may take before it counts as stalled.
const WITHIN: Duration = Duration::from_secs(30);

fn msg(i: usize) -> Bytes {
    Bytes::from(format!("m{i}"))
}

#[test]
fn partition_stalls_minority_and_heals() {
    let c = manual_cluster(3, NetConfig::fast(21), NodeConfig::default());
    // Partition site 2 away; the majority {0, 1} keeps ordering.
    c.net().partition(&[&[SiteId(0), SiteId(1)], &[SiteId(2)]]);
    c.node(0).abcast(msg(0));
    c.node(1).abcast(msg(1));
    c.net().run_until(c.nodes(), WITHIN, || {
        c.node(0).ab_delivered().len() == 2 && c.node(1).ab_delivered().len() == 2
    });
    assert_eq!(c.node(0).ab_delivered(), c.node(1).ab_delivered());
    // The minority saw nothing.
    assert!(c.node(2).ab_delivered().is_empty());
    // Heal: retransmissions (and the coordinator's `Decide`s) catch site 2 up.
    c.net().heal();
    c.net()
        .run_until(c.nodes(), WITHIN, || c.node(2).ab_delivered().len() == 2);
    assert_eq!(c.node(2).ab_delivered(), c.node(0).ab_delivered());
}

#[test]
fn duplication_is_masked_by_relcomm_dedup() {
    let c = manual_cluster(
        3,
        NetConfig::fast(22).with_duplicates(0.5),
        NodeConfig::default(),
    );
    for i in 0..8 {
        c.node(i % 3).abcast(msg(i));
    }
    c.settle();
    assert!(
        c.net().total_stats().duplicated > 0,
        "no duplicates injected — test vacuous"
    );
    let order0 = c.node(0).ab_delivered();
    assert_eq!(
        order0.len(),
        8,
        "duplicates must not create extra deliveries"
    );
    for i in 1..3 {
        assert_eq!(c.node(i).ab_delivered(), order0, "site {i} diverged");
    }
    // Exactly-once: no payload delivered twice.
    let set: BTreeSet<_> = order0.iter().collect();
    assert_eq!(set.len(), 8);
}

#[test]
fn membership_churn_keeps_views_consistent() {
    let c = manual_cluster(5, NetConfig::fast(23), NodeConfig::default());
    // Interleaved joins/leaves from different sites, racing each other.
    c.node(0).request_leave(SiteId(4));
    c.node(1).request_leave(SiteId(3));
    c.node(2).request_join(SiteId(3));
    c.settle();
    // All remaining members agree on the exact same view history.
    let v0 = c.node(0).current_view();
    assert_eq!(v0.id, 3, "three view ops must have been installed");
    for i in 1..3 {
        assert_eq!(c.node(i).current_view(), v0, "site {i} view diverged");
    }
    // Site 3's membership depends on the total order of the leave/join pair,
    // but whatever it is, it is the same everywhere; site 4 is gone for sure.
    assert!(!v0.contains(SiteId(4)));
    // The observed view sequences (from the App sink) also match.
    let views0 = c.node(0).observed_views();
    assert_eq!(views0.len(), 3);
    for i in 1..3 {
        assert_eq!(c.node(i).observed_views(), views0, "site {i} history");
    }
}

#[test]
fn coordinator_crash_mid_stream_recovers() {
    // Site 0 coordinates instance 0/round 0. Crash it while a stream of
    // abcasts is in flight; the failure detector excludes it and the
    // survivors re-coordinate and keep ordering.
    let cfg = NodeConfig {
        enable_fd: true,
        fd_timeout: Duration::from_millis(150),
        ..NodeConfig::default()
    };
    let c = manual_cluster(3, NetConfig::fast(24), cfg);

    for i in 0..4 {
        c.node(1).abcast(msg(i));
    }
    c.settle();
    c.net().crash(SiteId(0));
    for i in 4..8 {
        c.node(2).abcast(msg(i));
    }

    // On virtual time the survivors heartbeat each other as their alarms
    // fall due (staying fresh) while site 0 goes stale, gets suspected, and
    // is voted out; resends re-deliver anything that raced the crash.
    c.net().run_until(c.nodes(), WITHIN, || {
        !c.node(1).current_view().contains(SiteId(0))
            && !c.node(2).current_view().contains(SiteId(0))
            && c.node(1).ab_delivered().len() >= 8
            && c.node(2).ab_delivered().len() >= 8
    });
    assert_eq!(c.node(1).ab_delivered(), c.node(2).ab_delivered());
    // Exactly the 8 messages, no duplicates.
    let set: BTreeSet<_> = c.node(1).ab_delivered().into_iter().collect();
    assert_eq!(set.len(), 8);
}

#[test]
fn loss_duplication_and_churn_combined() {
    // The kitchen sink: loss + duplication + a leave, under VCAbasic.
    let mut net_cfg = NetConfig::fast(25).with_duplicates(0.2);
    net_cfg.loss_probability = 0.05;
    let c = manual_cluster(4, net_cfg, NodeConfig::default());
    for i in 0..6 {
        c.node(i % 4).abcast(msg(i));
    }
    c.node(0).request_leave(SiteId(3));
    c.net().run_until(c.nodes(), WITHIN, || {
        (0..3).all(|i| {
            c.node(i).ab_delivered().len() == 6 && !c.node(i).current_view().contains(SiteId(3))
        })
    });
    let order0 = c.node(0).ab_delivered();
    for i in 1..3 {
        assert_eq!(c.node(i).ab_delivered(), order0, "site {i} diverged");
    }
}
