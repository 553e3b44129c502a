//! Acceptance guard for the metrics cost model across a whole cluster: with
//! no registry installed every per-node instrument (RelComm, consensus,
//! abcast, KV) is `None` and its site costs one branch.
//! `samoa_core::instruments_touched()` counts every instrument update
//! process-wide, so a zero delta across a full replicated-KV run proves the
//! unmetered path never reaches an instrument.
//!
//! The counter is process-global, so everything watching it lives in one
//! `#[test]`, and this file is a test binary of its own: a sibling metered
//! test would perturb the unmetered delta. (The runtime-level legs —
//! `trace::events_emitted` and a bare registry handle — are
//! `crates/core/tests/no_sink_guard.rs`.)

use std::sync::Arc;
use std::time::Duration;

use samoa_core::{instruments_touched, Registry};
use samoa_net::{NetConfig, SimNet};
use samoa_proto::{Cluster, ClusterMetrics, NodeConfig, Observe};

/// A 3-site cluster commits a handful of puts, gets and compare-and-swaps
/// submitted from every site; returns whether the replicas converged, and
/// the health snapshot if the cluster was metered.
fn kv_run(observe: Option<Observe>) -> (bool, Option<ClusterMetrics>) {
    let (net, cfg) = (NetConfig::fast(42), NodeConfig::default());
    let c = match observe {
        Some(o) => Cluster::new_observed_on(SimNet::new(3, net), cfg, None, o),
        None => Cluster::new(3, net, cfg),
    };
    let pending: Vec<_> = (0..9)
        .map(|i| {
            let (node, key) = (c.node(i % 3), format!("key-{}", i % 4));
            match i % 3 {
                0 => node.kv_put(key, format!("v{i}")),
                1 => node.kv_get(key),
                _ => node.kv_cas(key, None, format!("c{i}")),
            }
        })
        .collect();
    let committed = pending
        .into_iter()
        .all(|p| p.wait(Duration::from_secs(10)).is_some());
    c.settle();
    let d0 = c.node(0).kv_digest();
    let converged = committed && (1..3).all(|i| c.node(i).kv_digest() == d0);
    (converged, c.metrics())
}

#[test]
fn unmetered_cluster_touches_no_instrument_metered_cluster_does() {
    // No registry: a full replicated-KV run — client submits, abcast
    // ordering, per-site applies, transport traffic — must not update a
    // single metrics instrument. This is the branch-only proof for the
    // whole per-node instrument family (RelComm, consensus, abcast, KV).
    let before = instruments_touched();
    let (converged, _) = kv_run(None);
    assert!(converged, "uninstrumented cluster diverged");
    assert_eq!(
        instruments_touched() - before,
        0,
        "unmetered cluster updated metrics instruments: the no-registry \
         hot path must cost exactly one branch"
    );

    // Same workload with a registry: instruments move (the counter is
    // live, not a vacuous zero) and the snapshot reflects the run.
    let before = instruments_touched();
    let (converged, health) = kv_run(Some(Observe::metered(Arc::new(Registry::new()))));
    assert!(converged, "metered cluster diverged");
    assert!(
        instruments_touched() - before > 0,
        "metered cluster touched no instruments"
    );
    let health = health.expect("metered run snapshots health");
    assert!(health.metrics.counters.values().any(|&v| v > 0));
}
