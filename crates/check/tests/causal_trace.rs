//! Cross-site causal propagation under a controlled schedule: one KV `put`
//! on a hooked 3-site cluster must export as a single causally-linked tree
//! — every abcast delivery and KV apply traces back through the wire-level
//! context events (`CtxSend`/`CtxRecv`) to the originating client submit —
//! and the causal event set must be identical across two replays of the
//! same deterministic schedule.

use samoa_check::{Controller, PrefixDecider};
use samoa_core::{TraceBuffer, TraceKind};
use samoa_net::{NetConfig, ProtoClock, SimNet};
use samoa_proto::{Cluster, NodeConfig, Observe, StackPolicy};

/// Project a cluster trace event to a timing-free descriptor (wait/service
/// times and delivery lag are wall-clock and excluded; the causal structure
/// is what must replay identically).
fn descriptor(kind: &TraceKind) -> Option<String> {
    match *kind {
        TraceKind::ClientSubmit { site, op } => Some(format!("submit s{site} op{op}")),
        TraceKind::CtxSend {
            from,
            to,
            origin,
            op,
            hop,
        } => Some(format!("ctx-send {from}->{to} o{origin}/{op} h{hop}")),
        TraceKind::CtxRecv {
            site,
            origin,
            op,
            hop,
        } => Some(format!("ctx-recv @{site} o{origin}/{op} h{hop}")),
        TraceKind::AbDeliver {
            site, origin, op, ..
        } => Some(format!("deliver @{site} o{origin}/{op}")),
        TraceKind::KvApply { site, origin, op } => Some(format!("apply @{site} o{origin}/{op}")),
        TraceKind::Retransmit { site, to, .. } => Some(format!("rtx s{site}->{to}")),
        TraceKind::ClusterViewChange { site, view_id, .. } => {
            Some(format!("view @{site} v{view_id}"))
        }
        _ => None,
    }
}

/// One fully controlled traced run: first-ready schedule, manual network,
/// one `put` from site 0, pumped to quiescence. Returns the cluster-level
/// trace events.
fn traced_put_run() -> Vec<TraceKind> {
    let ctrl = Controller::new(Box::new(PrefixDecider::new(Vec::new())), 500_000);
    ctrl.register_main();
    let sink = TraceBuffer::new();
    let cfg = NodeConfig {
        clock: ProtoClock::manual(),
        ..NodeConfig::with_policy(StackPolicy::Basic)
    };
    let cluster = Cluster::new_observed_on(
        SimNet::new_manual(3, NetConfig::fast(11)),
        cfg,
        Some(ctrl.clone()),
        Observe::traced(sink.clone()),
    );
    let _pending = cluster.node(0).kv_put("k".to_string(), "v".to_string());
    let mut idle_rounds = 0;
    for round in 0.. {
        assert!(round < 10_000, "cluster never applied the put");
        for n in cluster.nodes() {
            n.runtime().quiesce();
        }
        if cluster.net().pump_all() == 0 {
            idle_rounds += 1;
        } else {
            idle_rounds = 0;
        }
        if idle_rounds >= 2 && (0..3).all(|i| cluster.node(i).kv_applied() == 1) {
            break;
        }
    }
    let d0 = cluster.node(0).kv_digest();
    assert!(
        (1..3).all(|i| cluster.node(i).kv_digest() == d0),
        "replicas diverged under the controlled schedule"
    );
    let trace = ctrl.finish();
    assert!(!trace.deadlock, "controlled cluster wedged");
    assert!(!trace.runaway, "controlled cluster ran away");
    sink.drain().iter().map(|ev| ev.kind).collect()
}

#[test]
fn one_put_propagates_causally_to_every_site_and_replays() {
    let events = traced_put_run();

    let submits: Vec<(u16, u64)> = events
        .iter()
        .filter_map(|k| match *k {
            TraceKind::ClientSubmit { site, op } => Some((site, op)),
            _ => None,
        })
        .collect();
    assert_eq!(submits, vec![(0, 1)], "exactly one client submit at site 0");

    // Every abcast delivery's parent chain reaches the originating client
    // span: the (origin, op) pair matches a recorded submit, and non-origin
    // sites first saw the causal context arrive on the wire (CtxRecv).
    let delivers: Vec<(u16, u16, u64)> = events
        .iter()
        .filter_map(|k| match *k {
            TraceKind::AbDeliver {
                site, origin, op, ..
            } => Some((site, origin, op)),
            _ => None,
        })
        .collect();
    assert_eq!(delivers.len(), 3, "the put must deliver on all 3 sites");
    for &(site, origin, op) in &delivers {
        assert!(
            submits.contains(&(origin, op)),
            "delivery @{site} of ({origin},{op}) orphaned: no client submit"
        );
        if site != origin {
            assert!(
                events.iter().any(|k| matches!(
                    *k,
                    TraceKind::CtxRecv { site: s, origin: o, op: p, .. }
                        if s == site && o == origin && p == op
                )),
                "delivery @{site} has no wire-level CtxRecv parent"
            );
        }
    }
    assert_eq!(
        delivers.iter().filter(|&&(s, o, _)| s != o).count(),
        2,
        "two cross-site delivery spans expected"
    );

    // Every KV apply hangs off its site's delivery span.
    let applies: Vec<(u16, u16, u64)> = events
        .iter()
        .filter_map(|k| match *k {
            TraceKind::KvApply { site, origin, op } => Some((site, origin, op)),
            _ => None,
        })
        .collect();
    assert_eq!(applies.len(), 3, "the put must apply on all 3 sites");
    for t in &applies {
        assert!(
            delivers.contains(t),
            "apply {t:?} without a delivery parent"
        );
    }

    // And the wire hops that carried the context are themselves recorded.
    assert!(
        events.iter().any(|k| matches!(
            *k,
            TraceKind::CtxSend {
                origin: 0,
                op: 1,
                ..
            }
        )),
        "no CtxSend recorded for the put's causal context"
    );

    // Deterministic replay: the same controlled schedule yields the same
    // causal event set (timing-free projection; buffer shard order is not
    // part of the contract, so compare as sorted multisets).
    let replay = traced_put_run();
    let project = |evs: &[TraceKind]| -> Vec<String> {
        let mut v: Vec<String> = evs.iter().filter_map(descriptor).collect();
        v.sort();
        v
    };
    assert_eq!(
        project(&events),
        project(&replay),
        "two replays of the first-ready schedule diverged causally"
    );
}
