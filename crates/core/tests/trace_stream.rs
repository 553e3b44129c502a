//! Structural properties of drained trace streams, plus the hand-computed
//! schedule and blocker identity of the paper's Fig. 1 diamond.
//!
//! With one worker thread per computation a drained stream (time-sorted)
//! must be *well nested* per computation: `Spawn` first, `Complete` last,
//! handler enter/exit bracket-matched like a call stack, every admission
//! wait a `WaitBegin`/`WaitEnd` pair with nothing from the same computation
//! in between, and timestamps monotone.

mod common;

use std::collections::HashMap;

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use samoa_core::graph::RoutePattern;
use samoa_core::prelude::*;
use samoa_core::CompId;

use common::{latch, wait_parked};

/// Per-computation well-nestedness check over a time-sorted stream.
fn check_well_nested(events: &[TraceEvent]) -> std::result::Result<(), String> {
    let mut streams: HashMap<CompId, Vec<&TraceEvent>> = HashMap::new();
    for ev in events {
        if let Some(c) = ev.kind.comp() {
            streams.entry(c).or_default().push(ev);
        }
    }
    for (comp, evs) in streams {
        let mut last_t = 0u64;
        let mut handler_stack: Vec<(HandlerId, ProtocolId)> = Vec::new();
        let mut open_wait: Option<ProtocolId> = None;
        for (i, ev) in evs.iter().enumerate() {
            if ev.t_ns < last_t {
                return Err(format!("k{comp}: timestamps not monotone at event {i}"));
            }
            last_t = ev.t_ns;
            if open_wait.is_some() && !matches!(ev.kind, TraceKind::WaitEnd { .. }) {
                return Err(format!(
                    "k{comp}: event {i} ({:?}) interleaved into an open wait",
                    ev.kind
                ));
            }
            match ev.kind {
                TraceKind::Spawn { .. } => {
                    if i != 0 {
                        return Err(format!("k{comp}: Spawn is event {i}, not first"));
                    }
                }
                TraceKind::Complete { .. } => {
                    if i != evs.len() - 1 {
                        return Err(format!("k{comp}: Complete is not the last event"));
                    }
                }
                TraceKind::WaitBegin { protocol, .. } => {
                    open_wait = Some(protocol);
                }
                TraceKind::WaitEnd { protocol, .. } => match open_wait.take() {
                    Some(p) if p == protocol => {}
                    other => {
                        return Err(format!("k{comp}: WaitEnd on {protocol:?} closes {other:?}"));
                    }
                },
                TraceKind::HandlerEnter {
                    handler, protocol, ..
                } => {
                    handler_stack.push((handler, protocol));
                }
                TraceKind::HandlerExit {
                    handler, protocol, ..
                } => match handler_stack.pop() {
                    Some(top) if top == (handler, protocol) => {}
                    top => {
                        return Err(format!(
                            "k{comp}: HandlerExit {handler:?} does not match {top:?}"
                        ));
                    }
                },
                TraceKind::EarlyRelease { .. } => {}
                // Events with `comp() == None` (cluster-level spans) can
                // never appear in a per-computation stream.
                TraceKind::ClientSubmit { .. }
                | TraceKind::CtxSend { .. }
                | TraceKind::CtxRecv { .. }
                | TraceKind::AbDeliver { .. }
                | TraceKind::KvApply { .. }
                | TraceKind::Retransmit { .. }
                | TraceKind::ClusterViewChange { .. } => {
                    return Err(format!(
                        "k{comp}: non-computation event in a versioned stream"
                    ));
                }
            }
        }
        if !handler_stack.is_empty() {
            return Err(format!("k{comp}: {} unmatched enters", handler_stack.len()));
        }
        if open_wait.is_some() {
            return Err(format!("k{comp}: wait never ended"));
        }
    }
    Ok(())
}

/// DAG stack whose handler `i` synchronously triggers every successor —
/// synchronous cascades are what make the enter/exit nesting non-trivial.
struct DagStack {
    rt: Runtime,
    sink: Arc<TraceBuffer>,
    entry: EventType,
    pattern: RoutePattern,
}

fn build_dag(n: usize, edges: &[(usize, usize)]) -> DagStack {
    let mut b = StackBuilder::new();
    let protocols: Vec<ProtocolId> = (0..n).map(|i| b.protocol(&format!("P{i}"))).collect();
    let events: Vec<EventType> = (0..n).map(|i| b.event(&format!("E{i}"))).collect();
    let mut handlers = Vec::new();
    for i in 0..n {
        let nexts: Vec<EventType> = edges
            .iter()
            .filter(|&&(a, _)| a == i)
            .map(|&(_, b2)| events[b2])
            .collect();
        handlers.push(
            b.bind(events[i], protocols[i], &format!("h{i}"), move |ctx, ev| {
                for &next in &nexts {
                    ctx.trigger(next, ev.clone())?;
                }
                Ok(())
            }),
        );
    }
    let sink = TraceBuffer::new();
    let config = RuntimeConfig {
        max_threads_per_computation: 1,
        ..RuntimeConfig::default()
    };
    let rt = Runtime::with_trace(b.build(), config, sink.clone());
    let mut pattern = RoutePattern::new().root(handlers[0]);
    for &(a, b2) in edges {
        pattern = pattern.edge(handlers[a], handlers[b2]);
    }
    DagStack {
        rt,
        sink,
        entry: events[0],
        pattern,
    }
}

proptest! {
    // Each case spawns real threads; keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn streams_are_well_nested(
        n in 2usize..6,
        raw_edges in proptest::collection::vec((0usize..6, 0usize..6), 1..10),
        n_comps in 2usize..5,
        route_mask in 0u32..8,
    ) {
        let mut edges: Vec<(usize, usize)> = raw_edges
            .iter()
            .map(|&(a, b)| (a % n, b % n))
            .filter(|&(a, b)| a < b)
            .collect();
        edges.sort_unstable();
        edges.dedup();

        let dag = build_dag(n, &edges);
        let all = dag.rt.stack().all_protocols();
        let mut handles = Vec::new();
        for j in 0..n_comps {
            let entry = dag.entry;
            let body = move |ctx: &Ctx| ctx.trigger(entry, EventData::empty());
            handles.push(if route_mask & (1 << (j % 3)) != 0 {
                dag.rt.spawn(Decl::Route(&dag.pattern), body)
            } else {
                dag.rt.spawn(Decl::Basic(&all), body)
            });
        }
        for h in handles {
            h.join().expect("traced computation failed");
        }
        dag.rt.quiesce();

        let events = dag.sink.drain();
        if let Err(msg) = check_well_nested(&events) {
            prop_assert!(false, "{}", msg);
        }

        // Spawn/Complete exactly once per computation.
        let spawns = events.iter()
            .filter(|e| matches!(e.kind, TraceKind::Spawn { .. }))
            .count();
        let completes = events.iter()
            .filter(|e| matches!(e.kind, TraceKind::Complete { .. }))
            .count();
        prop_assert_eq!(spawns, n_comps);
        prop_assert_eq!(completes, n_comps);
    }
}

/// The Fig. 1 diamond (P, Q → R → S) with the first computation gated
/// inside S: the second computation must block at R's admission with the
/// first named as its blocker, the live wait-for graph must show that edge
/// while it is blocked, and the stream must match the schedule exactly.
#[test]
fn fig1_diamond_schedule_and_blocker_identity() {
    let mut b = StackBuilder::new();
    let p = b.protocol("P");
    let q = b.protocol("Q");
    let r = b.protocol("R");
    let s = b.protocol("S");
    let a0 = b.event("a0");
    let b0 = b.event("b0");
    let to_r = b.event("to_r");
    let to_s = b.event("to_s");
    b.bind(a0, p, "P", move |ctx, ev| ctx.trigger(to_r, ev.clone()));
    b.bind(b0, q, "Q", move |ctx, ev| ctx.trigger(to_r, ev.clone()));
    let rst = ProtocolState::new(r, 0u64);
    {
        let rst = rst.clone();
        b.bind(to_r, r, "R", move |ctx, ev| {
            rst.with(ctx, |v| *v += 1);
            ctx.trigger(to_s, ev.clone())
        });
    }
    let (gate, at_gate) = (latch(), latch());
    let sst = ProtocolState::new(s, 0u64);
    {
        let (gate, at_gate) = (Arc::clone(&gate), Arc::clone(&at_gate));
        let sst = sst.clone();
        b.bind(to_s, s, "S", move |ctx, _| {
            if ctx.comp_id() == 1 {
                at_gate.open();
                assert!(gate.wait(Duration::from_secs(10)), "gate never opened");
            }
            sst.with(ctx, |v| *v += 1);
            Ok(())
        });
    }
    let sink = TraceBuffer::new();
    let rt = Runtime::with_trace(b.build(), RuntimeConfig::default(), sink.clone());

    // ka (id 1) enters S and parks on the gate holding R and S.
    let ka = rt.spawn(Decl::Basic(&[p, r, s]), move |ctx| {
        ctx.trigger(a0, EventData::empty())
    });
    assert!(at_gate.wait(Duration::from_secs(10)), "ka never reached S");
    // kb (id 2) runs Q freely, then blocks at R until ka completes.
    let kb = rt.spawn(Decl::Basic(&[q, r, s]), move |ctx| {
        ctx.trigger(b0, EventData::empty())
    });

    // The live wait-for graph names the edge while kb is blocked.
    assert!(
        wait_parked(&rt, kb.comp_id(), Duration::from_secs(10)),
        "kb never showed up in the wait-for graph"
    );
    let g = rt.waiters();
    assert!(!g.has_cycle(), "a single wait edge cannot be a cycle");
    let edge = g.edges[0];
    assert_eq!(edge.waiter, 2, "kb is the waiter");
    assert_eq!(rt.stack().protocol_name(edge.protocol), "R");
    assert_eq!(edge.blocker, Some(1), "ka holds R");
    let rendered = rt.waiters().render(rt.stack());
    assert!(
        rendered.contains('R'),
        "render names the protocol: {rendered}"
    );

    gate.open();
    ka.join().unwrap();
    kb.join().unwrap();
    rt.quiesce();
    assert!(rt.waiters().is_empty());

    let events = sink.drain();
    check_well_nested(&events).unwrap();

    // Hand-computed schedule: P, Q visited once; R, S twice; only R waited,
    // exactly once, by kb, blocked on ka.
    let on = |p: ProtocolId, name: &str| rt.stack().protocol_name(p) == name;
    for (name, calls, waits) in [("P", 1, 0), ("Q", 1, 0), ("R", 2, 1), ("S", 2, 0)] {
        let count = |wait: bool| {
            events
                .iter()
                .filter(|e| match e.kind {
                    TraceKind::HandlerExit { protocol, .. } => !wait && on(protocol, name),
                    TraceKind::WaitEnd { protocol, .. } => wait && on(protocol, name),
                    _ => false,
                })
                .count()
        };
        assert_eq!(count(false), calls, "{name} handler calls");
        assert_eq!(count(true), waits, "{name} waits");
    }
    // The recorded wait span carries the blocker identity.
    let wait_end = events
        .iter()
        .find_map(|e| match e.kind {
            TraceKind::WaitEnd {
                comp,
                protocol,
                blocker,
                wait_ns,
            } => Some((comp, protocol, blocker, wait_ns)),
            _ => None,
        })
        .expect("one WaitEnd recorded");
    assert_eq!(wait_end.0, 2);
    assert_eq!(rt.stack().protocol_name(wait_end.1), "R");
    assert_eq!(wait_end.2, Some(1));
    assert!(wait_end.3 > 0, "kb was blocked for a measurable time");
}
