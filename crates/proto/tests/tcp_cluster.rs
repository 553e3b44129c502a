//! The full stack over real localhost sockets: KV convergence under
//! concurrent load, and leader failover with the failure detector.

use std::time::{Duration, Instant};

use samoa_net::SiteId;
use samoa_proto::{NodeConfig, StackPolicy, TcpCluster};

fn wait_until(deadline_ms: u64, mut pred: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_millis(deadline_ms);
    while Instant::now() < deadline {
        if pred() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    pred()
}

#[test]
fn concurrent_kv_load_converges_over_tcp() {
    let tcp = TcpCluster::new(3, NodeConfig::with_policy(StackPolicy::Basic)).unwrap();
    let total = 45usize;
    for i in 0..total as u64 {
        let site = (i % 3) as usize;
        match i % 3 {
            0 => drop(
                tcp.node(site)
                    .kv_put(format!("k{}", i % 8), format!("v{i}")),
            ),
            1 => drop(tcp.node(site).kv_get(format!("k{}", i % 8))),
            _ => drop(
                tcp.node(site)
                    .kv_cas(format!("k{}", i % 8), None, format!("c{i}")),
            ),
        }
    }
    assert!(
        wait_until(30_000, || (0..3).all(|i| tcp.node(i).kv_applied() == total)),
        "applied: {:?}",
        (0..3).map(|i| tcp.node(i).kv_applied()).collect::<Vec<_>>()
    );
    let d0 = tcp.node(0).kv_digest();
    assert!((1..3).all(|i| tcp.node(i).kv_digest() == d0));
    // Prefix agreement on the real-socket backend too.
    let logs: Vec<_> = (0..3).map(|i| tcp.node(i).kv_log()).collect();
    for a in &logs {
        for b in &logs {
            let common = a.len().min(b.len());
            assert_eq!(&a[..common], &b[..common]);
        }
    }
    assert!((0..3).all(|i| tcp.node(i).external_errors() == 0));
}

#[test]
fn leader_failover_mid_load_recovers() {
    let mut cfg = NodeConfig::with_policy(StackPolicy::Basic);
    cfg.enable_fd = true;
    cfg.fd_timeout = Duration::from_millis(300);
    let mut tcp = TcpCluster::new(3, cfg).unwrap();

    // Warm up: traffic flows with the round-0 coordinator (site 0) alive.
    assert!(tcp
        .node(1)
        .kv_put("warm", "up")
        .wait(Duration::from_secs(20))
        .is_some());

    // Kill the coordinator mid-system. Survivors' failure detectors must
    // suspect it and membership must exclude it from the view.
    tcp.crash(0);
    // (The FD clears its suspicion once the view excludes the site, so the
    // durable signal is the view itself.)
    assert!(
        wait_until(20_000, || {
            (1..3).all(|i| !tcp.node(i).current_view().contains(SiteId(0)))
        }),
        "survivors never excluded the crashed coordinator: suspects={:?} views={:?}",
        (1..3).map(|i| tcp.node(i).suspects()).collect::<Vec<_>>(),
        (1..3)
            .map(|i| tcp.node(i).current_view())
            .collect::<Vec<_>>()
    );

    // Recovery probe: a fresh command must commit on the survivor quorum.
    let r = tcp
        .node(1)
        .kv_put("after", "failover")
        .wait(Duration::from_secs(30));
    assert!(r.is_some(), "post-failover command never committed");
    assert!(wait_until(20_000, || tcp.node(2).kv_applied()
        == tcp.node(1).kv_applied()));
    assert_eq!(tcp.node(1).kv_digest(), tcp.node(2).kv_digest());

    // The fault window is visible in transport stats.
    let s = tcp.mesh().total_stats();
    assert!(s.retried + s.reconnects + s.dropped() > 0);
}
