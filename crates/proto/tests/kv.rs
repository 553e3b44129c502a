//! Replicated-KV safety: after randomized concurrent workloads every site's
//! state machine is byte-identical, and the applied command log is a legal
//! total order (prefix agreement, per-origin FIFO, no duplicates).

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use bytes::Bytes;
use proptest::prelude::*;
use samoa_core::{HandlerId, TraceEvent, TraceKind, TraceSink};
use samoa_net::{NetConfig, ProtoClock, SimNet, SiteId};
use samoa_proto::{Cluster, KvApplied, Node, NodeConfig, Observe, StackPolicy};

fn kv_cluster(n: usize, seed: u64, policy: StackPolicy) -> Cluster {
    Cluster::new(n, NetConfig::fast(seed), NodeConfig::with_policy(policy))
}

fn key(i: u64) -> Bytes {
    Bytes::from(format!("key-{}", i % 8))
}

/// A log is a legal total order iff per-origin seqs are strictly increasing
/// (FIFO from each origin) and no (origin, seq) appears twice.
fn assert_legal_total_order(log: &[KvApplied]) {
    let mut last_seq = std::collections::HashMap::new();
    let mut seen = HashSet::new();
    for a in log {
        assert!(
            seen.insert((a.uid.origin, a.uid.seq)),
            "duplicate uid {:?} in applied log",
            a.uid
        );
        if let Some(prev) = last_seq.insert(a.uid.origin, a.uid.seq) {
            assert!(
                a.uid.seq > prev,
                "origin {:?} seqs out of order: {} after {}",
                a.uid.origin,
                a.uid.seq,
                prev
            );
        }
    }
}

fn assert_prefix_agreement(logs: &[Vec<KvApplied>]) {
    for (i, a) in logs.iter().enumerate() {
        for (j, b) in logs.iter().enumerate().skip(i + 1) {
            let common = a.len().min(b.len());
            assert_eq!(
                &a[..common],
                &b[..common],
                "sites {i} and {j} disagree within their common log prefix"
            );
        }
    }
}

#[test]
fn put_get_cas_roundtrip_on_one_cluster() {
    let c = kv_cluster(3, 1, StackPolicy::Basic);
    let t = Duration::from_secs(10);

    let r = c.node(0).kv_put("a", "1").wait(t).expect("put applied");
    assert!(r.ok);
    assert_eq!(r.value, None, "fresh key has no previous value");

    let r = c.node(1).kv_get("a").wait(t).expect("get applied");
    assert_eq!(r.value, Some(Bytes::from_static(b"1")));

    // CAS with a stale expectation fails; with the right one, succeeds.
    let r = c
        .node(2)
        .kv_cas("a", Some(Bytes::from_static(b"0")), "2")
        .wait(t)
        .expect("cas applied");
    assert!(!r.ok);
    assert_eq!(r.value, Some(Bytes::from_static(b"1")));
    let r = c
        .node(2)
        .kv_cas("a", Some(Bytes::from_static(b"1")), "2")
        .wait(t)
        .expect("cas applied");
    assert!(r.ok);
    assert_eq!(r.value, Some(Bytes::from_static(b"2")));

    c.settle();
    let d0 = c.node(0).kv_digest();
    assert!(c.nodes().iter().all(|n| n.kv_digest() == d0));
    assert!(c.nodes().iter().all(|n| n.external_errors() == 0));
}

#[test]
fn concurrent_writers_converge_to_identical_state() {
    for policy in [StackPolicy::Basic, StackPolicy::Route, StackPolicy::Serial] {
        let c = kv_cluster(3, 7, policy);
        // Interleave submissions from every site without waiting: genuine
        // concurrent writers contending on 8 keys.
        for i in 0..30u64 {
            let site = (i % 3) as usize;
            match i % 5 {
                0 | 1 => drop(c.node(site).kv_put(key(i), format!("v{i}"))),
                2 => drop(c.node(site).kv_get(key(i))),
                _ => drop(c.node(site).kv_cas(key(i), None, format!("c{i}"))),
            }
        }
        c.settle();
        let n_applied = c.node(0).kv_applied();
        assert_eq!(n_applied, 30, "all 30 commands apply, policy {policy:?}");
        let d0 = c.node(0).kv_digest();
        let logs: Vec<_> = c.nodes().iter().map(|n| n.kv_log()).collect();
        for (i, n) in c.nodes().iter().enumerate() {
            assert_eq!(n.kv_digest(), d0, "site {i} diverged under {policy:?}");
            assert_eq!(n.kv_applied(), n_applied);
        }
        assert_prefix_agreement(&logs);
        for log in &logs {
            assert_legal_total_order(log);
        }
        for n in c.nodes() {
            assert_eq!(n.external_errors(), 0, "{policy:?}: site {}", n.site);
        }
    }
}

#[test]
fn kv_and_plain_abcast_traffic_coexist() {
    let c = kv_cluster(3, 11, StackPolicy::Basic);
    // Plain abcast user payloads are ignored by the store but still
    // totally ordered for the App sink; KV frames are invisible neither
    // to App (raw bytes) nor to KV (decoded commands).
    c.node(0).abcast("plain-1");
    drop(c.node(1).kv_put("k", "v"));
    c.node(2).abcast("plain-2");
    c.settle();
    assert_eq!(c.node(0).kv_applied(), 1, "only the KV frame applies");
    assert_eq!(c.node(0).ab_delivered().len(), 3, "App saw all three");
    let d0 = c.node(0).kv_digest();
    assert!(c.nodes().iter().all(|n| n.kv_digest() == d0));
}

/// Counts one site's calls of two handlers, found by name once the node
/// exists.
#[derive(Default)]
struct Calls {
    handlers: OnceLock<[HandlerId; 2]>,
    counts: [AtomicUsize; 2],
}

impl Calls {
    const NAMES: [&'static str; 2] = ["abcast.on_deliver", "kv.on_adeliver"];

    fn watch(&self, node: &Node) {
        let id = |name| node.runtime().stack().handler_by_name(name).expect(name);
        self.handlers
            .set(Self::NAMES.map(id))
            .expect("watched once");
    }

    fn counts(&self) -> [usize; 2] {
        [0, 1].map(|i| self.counts[i].load(Ordering::SeqCst))
    }
}

impl TraceSink for Calls {
    fn event(&self, ev: TraceEvent) {
        if let TraceKind::HandlerEnter { handler, .. } = ev.kind {
            let watched = self.handlers.get();
            if let Some(i) = watched.and_then(|hs| hs.iter().position(|&h| h == handler)) {
                self.counts[i].fetch_add(1, Ordering::SeqCst);
            }
        }
    }
}

#[test]
fn a_decided_batch_is_applied_in_one_kv_call_at_every_site() {
    const K: usize = 5;
    for policy in [StackPolicy::Basic, StackPolicy::Route] {
        // A manual network: nothing moves until the test pumps it.
        let net = SimNet::new_manual(3, NetConfig::fast(21));
        let cfg = NodeConfig {
            policy,
            clock: ProtoClock::manual(),
            ..NodeConfig::default()
        };
        let sites: Vec<(Arc<Node>, Arc<Calls>)> = net
            .sites()
            .into_iter()
            .map(|site| {
                let calls = Arc::new(Calls::default());
                let sink = Arc::clone(&calls) as Arc<dyn TraceSink>;
                let node = Node::new_observed_on(
                    Arc::new(net.handle()),
                    site,
                    cfg.clone(),
                    None,
                    Observe::traced(sink),
                );
                calls.watch(&node);
                (node, calls)
            })
            .collect();
        let coordinator = &sites[0].0;
        assert_eq!(coordinator.site, SiteId(0));
        // The first put has instance 0 to itself; the next K wait in the
        // coordinator's `pending` for instance 1, which orders all of them.
        let mut handles = vec![coordinator.kv_put("k0", "v0")];
        handles.extend((1..=K).map(|i| coordinator.kv_put(format!("k{i}"), format!("v{i}"))));
        net.handle().settle(|| {
            for (node, _) in &sites {
                node.runtime().quiesce();
            }
        });

        for (i, h) in handles.into_iter().enumerate() {
            let reply = h.wait(Duration::ZERO).expect("settled, so replied");
            assert!(reply.ok && reply.value.is_none(), "{policy}: put {i}");
        }
        let (log, delivered) = (coordinator.kv_log(), coordinator.ab_delivered());
        assert_eq!(log.len(), 1 + K, "{policy}");
        for (node, calls) in &sites {
            // Two decisions reached the site, and KV ran once per run they
            // released — once each, or once for both where the second
            // overtook the first (a worker may take them out of order) —
            // never once per command.
            let [decisions, kv_calls] = calls.counts();
            assert_eq!(decisions, 2, "{policy}: {:?}", node.site);
            assert!(
                (1..=2).contains(&kv_calls),
                "{policy}: {:?} {kv_calls}",
                node.site
            );
            assert_eq!(node.kv_log(), log, "{policy}: {:?}", node.site);
            assert_eq!(node.ab_delivered(), delivered, "{policy}: {:?}", node.site);
            assert_eq!(node.kv_digest(), coordinator.kv_digest(), "{policy}");
            assert_eq!(node.external_errors(), 0, "{policy}: {:?}", node.site);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized workloads (op mix, sites, keys drawn by proptest): the
    /// applied log is a legal total order with prefix agreement across
    /// sites, and all replicas converge byte-identically.
    #[test]
    fn randomized_workload_yields_legal_total_order(
        seed in 0u64..1000,
        ops in proptest::collection::vec((0u8..3, 0u64..8, 0u64..4), 1..40),
    ) {
        let c = kv_cluster(3, seed, StackPolicy::Basic);
        for (i, (op, k, v)) in ops.iter().enumerate() {
            let site = i % 3;
            match op {
                0 => drop(c.node(site).kv_put(key(*k), format!("v{v}"))),
                1 => drop(c.node(site).kv_get(key(*k))),
                _ => drop(c.node(site).kv_cas(key(*k), None, format!("c{v}"))),
            }
        }
        c.settle();
        let logs: Vec<_> = c.nodes().iter().map(|n| n.kv_log()).collect();
        prop_assert!(logs.iter().all(|l| l.len() == ops.len()));
        let d0 = c.node(0).kv_digest();
        prop_assert!(c.nodes().iter().all(|n| n.kv_digest() == d0));
        assert_prefix_agreement(&logs);
        for log in &logs {
            assert_legal_total_order(log);
        }
        prop_assert!(c.nodes().iter().all(|n| n.external_errors() == 0));
    }
}
