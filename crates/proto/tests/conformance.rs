//! Cross-backend conformance: the same abcast scenario over `SimNet` and
//! over `TcpNet` produces identical delivered sequences on every site —
//! pinning the `Transport` seam contract (the stack cannot tell the
//! backends apart).
//!
//! The `SimNet` side runs on a manual network and a manual clock, driven on
//! virtual time ([`NetHandle::run_until`](samoa_net::NetHandle::run_until));
//! real sockets have no quiescence oracle, so the `TcpNet` side polls what
//! it waits for with a deadline.

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use samoa_net::NetConfig;
use samoa_proto::{Node, NodeConfig, StackPolicy, TcpCluster};

use common::manual_cluster;

const SITES: usize = 3;
const MSGS: usize = 12;

fn wait_until(deadline_ms: u64, mut pred: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_millis(deadline_ms);
    while Instant::now() < deadline {
        if pred() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    pred()
}

/// Drive the scenario: `MSGS` abcasts submitted round-robin across sites,
/// each submitted only after every site delivered the previous one — the
/// total order is then forced to equal submission order, making the
/// delivered sequence comparable across backends. `wait` returns once the
/// condition it is handed holds, and panics if it never does.
fn drive(nodes: &[Arc<Node>], wait: impl Fn(&dyn Fn() -> bool)) -> Vec<Vec<(u16, Bytes)>> {
    for i in 0..MSGS {
        nodes[i % nodes.len()].abcast(format!("msg-{i}"));
        wait(&|| nodes.iter().all(|n| n.ab_delivered().len() > i));
    }
    nodes
        .iter()
        .map(|n| {
            n.ab_delivered()
                .into_iter()
                .map(|(o, b)| (o.0, b))
                .collect()
        })
        .collect()
}

fn expected() -> Vec<(u16, Bytes)> {
    (0..MSGS)
        .map(|i| ((i % SITES) as u16, Bytes::from(format!("msg-{i}"))))
        .collect()
}

#[test]
fn simnet_and_tcpnet_deliver_identical_sequences() {
    let cfg = NodeConfig::with_policy(StackPolicy::Basic);

    let sim = manual_cluster(SITES, NetConfig::fast(42), cfg.clone());
    let sim_seqs = drive(sim.nodes(), |done| {
        sim.net()
            .run_until(sim.nodes(), Duration::from_secs(20), done);
    });

    let tcp = TcpCluster::new(SITES, cfg).expect("bind localhost mesh");
    let tcp_nodes: Vec<Arc<Node>> = (0..SITES).map(|i| Arc::clone(tcp.node(i))).collect();
    let tcp_seqs = drive(&tcp_nodes, |done| {
        assert!(
            wait_until(20_000, done),
            "a message did not reach every site"
        );
    });

    let want = expected();
    for (i, s) in sim_seqs.iter().enumerate() {
        assert_eq!(s, &want, "SimNet site {i} deviated from the forced order");
    }
    for (i, s) in tcp_seqs.iter().enumerate() {
        assert_eq!(s, &want, "TcpNet site {i} deviated from the forced order");
    }
    assert_eq!(
        sim_seqs, tcp_seqs,
        "backends must be indistinguishable through the Transport seam"
    );
}

#[test]
fn kv_state_machines_agree_across_backends() {
    let cfg = NodeConfig::with_policy(StackPolicy::Basic);
    let t = Duration::from_secs(20);

    // The same KV script, applied over each backend in forced order.
    let script: Vec<(usize, &str, &str)> = vec![
        (0, "a", "1"),
        (1, "b", "2"),
        (2, "a", "3"),
        (0, "c", "4"),
        (1, "a", "5"),
    ];

    let sim = manual_cluster(SITES, NetConfig::fast(7), cfg.clone());
    for (site, k, v) in &script {
        let put = sim.node(*site).kv_put(*k, *v);
        sim.settle();
        assert!(put.wait(Duration::ZERO).is_some());
    }

    let tcp = TcpCluster::new(SITES, cfg).expect("bind localhost mesh");
    for (site, k, v) in &script {
        assert!(tcp.node(*site).kv_put(*k, *v).wait(t).is_some());
    }
    assert!(wait_until(20_000, || (0..SITES)
        .all(|i| tcp.node(i).kv_applied() == script.len())));

    let sim_digest = sim.node(0).kv_digest();
    assert!(sim.nodes().iter().all(|n| n.kv_digest() == sim_digest));
    for i in 0..SITES {
        assert_eq!(
            tcp.node(i).kv_digest(),
            sim_digest,
            "TcpNet site {i} state differs from the SimNet replica"
        );
        assert_eq!(tcp.node(i).kv_snapshot(), sim.node(0).kv_snapshot());
    }
}
