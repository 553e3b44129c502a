//! End-to-end transport tests: integrity and ordering under loss,
//! duplication, corruption, and their combination.
//!
//! Almost every endpoint runs on a manual network and a manual clock,
//! driven on virtual time by
//! [`NetHandle::run_until`](samoa_net::NetHandle::run_until): a resend
//! happens when the driver rings the sender's alarm. One test pins the wall
//! clock instead, and waits for what it checks with a deadline: the timer
//! thread.

#![allow(clippy::field_reassign_with_default, clippy::needless_range_loop)]
use std::time::{Duration, Instant};

use bytes::Bytes;
use samoa_core::analysis::CYCLE_FALLBACK_BOUND;
use samoa_core::{External, Policy};
use samoa_net::{NetConfig, ProtoClock, SiteId};
use samoa_transport::{TransportConfig, TransportNet};

fn big_message(seed: u8, len: usize) -> Bytes {
    Bytes::from(
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect::<Vec<u8>>(),
    )
}

/// `n` endpoints configured by `cfg` on a manual network and a manual
/// clock.
fn transport_net(n: usize, net_cfg: NetConfig, cfg: TransportConfig) -> TransportNet {
    let cfg = TransportConfig {
        clock: ProtoClock::manual(),
        ..cfg
    };
    TransportNet::new_manual(n, net_cfg, cfg)
}

/// Drive `net` on virtual time until `endpoint` has delivered `count`
/// messages.
fn wait_delivered(net: &TransportNet, endpoint: usize, count: usize) {
    let done = || net.endpoint(endpoint).delivered().len() >= count;
    net.net()
        .run_until(net.endpoints(), Duration::from_secs(60), done);
}

#[test]
fn single_message_roundtrip() {
    let net = transport_net(2, NetConfig::fast(1), TransportConfig::default());
    net.endpoint(0).send(SiteId(1), "hello transport");
    wait_delivered(&net, 1, 1);
    let got = net.endpoint(1).delivered();
    assert_eq!(got[0], (SiteId(0), Bytes::from_static(b"hello transport")));
}

#[test]
fn large_message_is_fragmented_and_reassembled() {
    let mut cfg = TransportConfig::default();
    cfg.mtu = 16;
    // The network loses nothing but reorders what is in flight together,
    // and the clock never advances — every datagram is delivered before an
    // alarm is due — so nothing can time out: every resend is one three
    // later acks asked for, of a frame that had arrived, and the receiver
    // suppresses it.
    let net = transport_net(2, NetConfig::fast(2), cfg);
    let msg = big_message(7, 10_000); // 625 fragments
    net.endpoint(0).send(SiteId(1), msg.clone());
    wait_delivered(&net, 1, 1);
    assert_eq!(net.endpoint(1).delivered()[0].1, msg);
    assert_eq!(net.endpoint(1).reassembled(), 1);
    net.settle();
    let resent = net.endpoint(0).retransmissions();
    assert_eq!(resent, net.endpoint(0).fast_retransmissions(), "timed out");
    assert_eq!(net.endpoint(1).duplicates_suppressed(), resent);
    assert_eq!(net.endpoint(0).in_flight(SiteId(1)), 0);
}

#[test]
fn messages_arrive_in_order_per_peer() {
    let mut cfg = TransportConfig::default();
    cfg.mtu = 8;
    let net = transport_net(2, NetConfig::lan(3), cfg);
    let msgs: Vec<Bytes> = (0..20).map(|i| big_message(i as u8, 50 + i * 13)).collect();
    for m in &msgs {
        net.endpoint(0).send(SiteId(1), m.clone());
    }
    wait_delivered(&net, 1, msgs.len());
    let got: Vec<Bytes> = net
        .endpoint(1)
        .delivered()
        .into_iter()
        .map(|(_, b)| b)
        .collect();
    assert_eq!(got, msgs, "delivery order differs from send order");
}

#[test]
fn loss_is_recovered_by_retransmission() {
    let mut cfg = TransportConfig::default();
    cfg.mtu = 32;
    cfg.rto = Duration::from_millis(15);
    let net = transport_net(2, NetConfig::fast(4).with_loss(0.15), cfg);
    let msg = big_message(9, 4_000);
    net.endpoint(0).send(SiteId(1), msg.clone());
    wait_delivered(&net, 1, 1);
    assert_eq!(net.endpoint(1).delivered()[0].1, msg);
    assert!(
        net.endpoint(0).retransmissions() > 0,
        "loss never triggered retransmission — vacuous"
    );
}

#[test]
fn duplicates_are_suppressed() {
    let mut cfg = TransportConfig::default();
    cfg.mtu = 32;
    let net = transport_net(2, NetConfig::fast(5).with_duplicates(0.5), cfg);
    let msg = big_message(3, 2_000);
    net.endpoint(0).send(SiteId(1), msg.clone());
    wait_delivered(&net, 1, 1);
    let got = net.endpoint(1).delivered();
    assert_eq!(got.len(), 1, "duplicate delivery");
    assert_eq!(got[0].1, msg);
    assert!(
        net.endpoint(1).duplicates_suppressed() > 0 || net.net().total_stats().duplicated == 0,
        "duplicates existed but none were suppressed"
    );
}

#[test]
fn corruption_is_detected_and_recovered() {
    let mut cfg = TransportConfig::default();
    cfg.mtu = 32;
    cfg.rto = Duration::from_millis(15);
    let net = transport_net(2, NetConfig::fast(6).with_corruption(0.10), cfg);
    let msg = big_message(5, 4_000);
    net.endpoint(0).send(SiteId(1), msg.clone());
    wait_delivered(&net, 1, 1);
    assert_eq!(
        net.endpoint(1).delivered()[0].1,
        msg,
        "payload corrupted end to end — checksum failed its job"
    );
    let dropped: u64 = (0..2).map(|i| net.endpoint(i).corrupt_dropped()).sum();
    assert!(dropped > 0, "no corruption seen — vacuous");
}

#[test]
fn kitchen_sink_loss_dup_corruption_bidirectional() {
    let mut cfg = TransportConfig::default();
    cfg.mtu = 24;
    cfg.rto = Duration::from_millis(12);
    let net_cfg = NetConfig::fast(7)
        .with_loss(0.08)
        .with_duplicates(0.08)
        .with_corruption(0.05);
    let net = transport_net(3, net_cfg, cfg);
    let a = big_message(1, 3_000);
    let b = big_message(2, 2_000);
    let c = big_message(3, 1_000);
    net.endpoint(0).send(SiteId(1), a.clone());
    net.endpoint(1).send(SiteId(2), b.clone());
    net.endpoint(2).send(SiteId(0), c.clone());
    wait_delivered(&net, 1, 1);
    wait_delivered(&net, 2, 1);
    wait_delivered(&net, 0, 1);
    assert_eq!(net.endpoint(1).delivered()[0].1, a);
    assert_eq!(net.endpoint(2).delivered()[0].1, b);
    assert_eq!(net.endpoint(0).delivered()[0].1, c);
    // A corrupt frame is dropped and counted, not an error of its computation.
    assert!((0..3).all(|i| net.endpoint(i).external_errors() == 0));
}

#[test]
fn every_isolating_policy_delivers_byte_identically_over_a_lossy_net() {
    for policy in Policy::ALL.into_iter().filter(|p| p.isolating()) {
        let mut cfg = TransportConfig::default();
        cfg.policy = policy;
        cfg.mtu = 16;
        cfg.rto = Duration::from_millis(12);
        let net = transport_net(2, NetConfig::fast(8).with_loss(0.1), cfg);
        let msg = big_message(4, 2_000);
        net.endpoint(0).send(SiteId(1), msg.clone());
        wait_delivered(&net, 1, 1);
        assert_eq!(net.endpoint(1).delivered()[0].1, msg, "{policy}");
        let lost = net.net().total_stats().dropped_loss;
        assert!(lost > 0, "{policy}: no loss seen — vacuous");
        assert!(
            (0..2).all(|i| net.endpoint(i).external_errors() == 0),
            "{policy}"
        );
        // Reading acks as loss evidence must not become a storm: were the
        // ack of a resent frame evidence too, every fragment would go out
        // twice over (measured: 1.28 resends per fragment).
        let (resent, frags) = (net.endpoint(0).retransmissions(), msg.len() as u64 / 16);
        assert!(2 * resent <= frags, "{policy}: {resent} resends of {frags}");
    }
}

#[test]
fn concurrent_streams_between_many_peers() {
    let mut cfg = TransportConfig::default();
    cfg.mtu = 32;
    let net = transport_net(4, NetConfig::lan(9), cfg);
    let mut expected = vec![Vec::new(); 4];
    for i in 0..4usize {
        for j in 0..4usize {
            if i != j {
                let m = big_message((i * 4 + j) as u8, 300);
                net.endpoint(i).send(SiteId(j as u16), m.clone());
                expected[j].push(m);
            }
        }
    }
    for j in 0..4 {
        wait_delivered(&net, j, 3);
        let got: std::collections::BTreeSet<Bytes> = net
            .endpoint(j)
            .delivered()
            .into_iter()
            .map(|(_, b)| b)
            .collect();
        let want: std::collections::BTreeSet<Bytes> = expected[j].iter().cloned().collect();
        assert_eq!(got, want, "endpoint {j}");
        assert_eq!(net.endpoint(j).external_errors(), 0, "endpoint {j}");
    }
}

/// `Bound` runs under the bounds derived at each entry event, and they are
/// sound: messages of many fragments cross a lossy net with no external
/// error. A send visits Window once per fragment, so without the fan-out
/// mark on `chunker.send` its Window bound would be 1 and this would fail.
/// Where a bound is exact — an ack visits Window once, a send the Chunker
/// once — the microprotocol is released before the computation ends; with
/// the fallback bound everywhere nothing ever was.
#[test]
fn bound_is_sound_for_many_fragments_and_releases_an_ack_early() {
    let mut cfg = TransportConfig::default();
    cfg.policy = Policy::Bound;
    cfg.mtu = 16;
    cfg.rto = Duration::from_millis(12);
    let net = transport_net(2, NetConfig::fast(11).with_loss(0.1), cfg);
    let msgs: Vec<Bytes> = (0..4).map(|i| big_message(i, 500)).collect();
    for m in &msgs {
        net.endpoint(0).send(SiteId(1), m.clone());
    }
    wait_delivered(&net, 1, msgs.len());
    let got: Vec<Bytes> = net
        .endpoint(1)
        .delivered()
        .into_iter()
        .map(|d| d.1)
        .collect();
    assert_eq!(got, msgs);
    assert!(
        net.net().total_stats().dropped_loss > 0,
        "no loss seen — vacuous"
    );
    for i in 0..2 {
        assert_eq!(net.endpoint(i).external_errors(), 0, "endpoint {i}");
    }
    let stats = net.endpoint(0).runtime().stats();
    assert!(stats.bound_releases > 0, "{stats}");
}

/// The timer alone: the last fragment of a message is lost, nobody ticks
/// by hand, and the sender's alarm resends it once it falls due — inline
/// (`Basic`) and detached (`Route`), where the tick's computation arms the
/// next instant after the ring has returned. On a manual clock the driver
/// rings the alarm; on the wall clock the timer thread does, while the test
/// delivers what is in flight one datagram at a time. The receiver, which
/// only acks, never ticks: it runs one computation per datagram it is
/// handed.
fn the_timer_alone_resends_a_lost_tail(clock: ProtoClock) {
    for policy in [Policy::Basic, Policy::Route] {
        let cfg = TransportConfig {
            policy,
            mtu: 16,
            clock: clock.clone(),
            ..TransportConfig::default()
        };
        let net = TransportNet::new_manual(2, NetConfig::fast(12), cfg);
        let (tx, rx) = (net.endpoint(0), net.endpoint(1));
        let msg = big_message(6, 32);
        tx.send(SiteId(1), msg.clone());
        tx.runtime().quiesce();
        let h = net.net();
        let data: Vec<u64> = h.pending_datagrams().iter().map(|d| d.seq).collect();
        assert_eq!(data.len(), 2, "{policy}");
        assert!(h.drop_seq(data[1]));
        if clock.is_manual() {
            let delivered = || !rx.delivered().is_empty();
            let took = h.run_until(net.endpoints(), Duration::from_secs(60), delivered);
            assert!(
                took > Duration::ZERO,
                "{policy}: delivered before any resend"
            );
        } else {
            let deadline = Instant::now() + Duration::from_secs(60);
            while rx.delivered().is_empty() {
                assert!(
                    Instant::now() < deadline,
                    "{policy}: the tail was never resent"
                );
                if !h.pump_one() {
                    std::thread::yield_now();
                }
                tx.runtime().quiesce();
                rx.runtime().quiesce();
            }
        }
        assert_eq!(rx.delivered()[0].1, msg, "{policy}");
        assert!(tx.retransmissions() >= 1, "{policy}");
        assert_eq!(tx.fast_retransmissions(), 0, "{policy}: no ack showed it");
        let to_rx = h.stats(SiteId(1)).delivered;
        assert_eq!(rx.runtime().stats().computations_spawned, to_rx, "{policy}");
        assert_eq!(rx.next_due(), None, "{policy}");
    }
}

#[test]
fn the_timer_alone_resends_a_lost_tail_and_the_receiver_never_ticks() {
    the_timer_alone_resends_a_lost_tail(ProtoClock::manual());
}

#[test]
fn the_timer_thread_alone_resends_a_lost_tail_on_the_wall_clock() {
    the_timer_alone_resends_a_lost_tail(ProtoClock::wall());
}

/// What an endpoint declares for each kind of external event is derived at
/// its entry event: an ack reaches Checksum and Window only and visits
/// Window once; whatever a loop sends or releases is below a fan-out.
#[test]
fn every_entry_event_declares_what_the_table_says() {
    const MANY: u64 = CYCLE_FALLBACK_BOUND;
    let net = transport_net(2, NetConfig::fast(1), TransportConfig::default());
    let stack = net.endpoint(0).runtime().stack();
    let event = |name: &str| {
        let mut all = stack.all_events().into_iter();
        all.find(|&e| stack.event_name(e) == name).expect(name)
    };
    let table: [(&str, &[(&str, u64)]); 4] = [
        ("CsumAckIn", &[("Window", 1), ("Checksum", MANY)]),
        (
            "CsumIn",
            &[
                ("Chunker", MANY),
                ("Window", 1),
                ("Checksum", 2),
                ("TApp", MANY),
            ],
        ),
        (
            "TSend",
            &[("Chunker", 1), ("Window", MANY), ("Checksum", MANY)],
        ),
        ("TTick", &[("Window", 1), ("Checksum", MANY)]),
    ];
    for (name, bounds) in table {
        let ext = External::new(stack, event(name));
        let derived: Vec<(&str, u64)> = ext
            .bounds
            .iter()
            .map(|&(p, b)| (stack.protocol_name(p), b))
            .collect();
        assert_eq!(derived, bounds, "{name}");
        let m: Vec<&str> = bounds.iter().map(|b| b.0).collect();
        let derived: Vec<&str> = ext
            .protocols
            .iter()
            .map(|&p| stack.protocol_name(p))
            .collect();
        assert_eq!(derived, m, "{name}");
    }
}
