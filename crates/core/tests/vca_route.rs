//! Semantics of version counting with routing patterns (paper §5.3).

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{join_within, latch};
use samoa_core::prelude::*;

/// A three-stage pipeline: handler `stage0` of protocol `P0` may call
/// `stage1` of `P1`, which may call `stage2` of `P2`. Each stage appends
/// `comp_id` to its protocol's log and optionally sleeps and forwards.
struct Pipeline {
    rt: Runtime,
    events: Vec<EventType>,
    handlers: Vec<HandlerId>,
    logs: Vec<ProtocolState<Vec<u64>>>,
}

/// Payload: (sleep ms per stage, forward up to stage index).
#[derive(Clone, Copy)]
struct Step {
    sleep_ms: u64,
    last_stage: usize,
}

fn pipeline(n: usize) -> Pipeline {
    let mut b = StackBuilder::new();
    let ps: Vec<ProtocolId> = (0..n).map(|i| b.protocol(&format!("P{i}"))).collect();
    let es: Vec<EventType> = (0..n).map(|i| b.event(&format!("Stage{i}"))).collect();
    let logs: Vec<ProtocolState<Vec<u64>>> = ps
        .iter()
        .map(|&p| ProtocolState::new(p, Vec::new()))
        .collect();
    let mut handlers = Vec::new();
    for i in 0..n {
        let log = logs[i].clone();
        let next = es.get(i + 1).copied();
        let e = es[i];
        handlers.push(b.bind(e, ps[i], &format!("stage{i}"), move |ctx, ev| {
            let step: &Step = ev.expect(e)?;
            log.with(ctx, |l| l.push(ctx.comp_id()));
            if step.sleep_ms > 0 {
                std::thread::sleep(Duration::from_millis(step.sleep_ms));
            }
            if let (Some(next), true) = (next, i < step.last_stage) {
                ctx.trigger(next, EventData::new(*step))?;
            }
            Ok(())
        }));
    }
    let rt = Runtime::with_config(b.build(), RuntimeConfig::recording());
    Pipeline {
        rt,
        events: es,
        handlers,
        logs,
    }
}

fn chain_pattern(p: &Pipeline) -> RoutePattern {
    let mut pat = RoutePattern::new().root(p.handlers[0]);
    for w in p.handlers.windows(2) {
        pat = pat.edge(w[0], w[1]);
    }
    pat
}

#[test]
fn declared_route_admits_the_chain() {
    let p = pipeline(3);
    let pat = chain_pattern(&p);
    p.rt.run(Decl::Route(&pat), |ctx| {
        ctx.trigger(
            p.events[0],
            EventData::new(Step {
                sleep_ms: 0,
                last_stage: 2,
            }),
        )
    })
    .unwrap();
    for i in 0..3 {
        assert_eq!(p.logs[i].snapshot(), vec![1], "stage {i}");
    }
}

#[test]
fn call_outside_pattern_is_rejected() {
    let p = pipeline(3);
    // Pattern only covers stages 0 and 1.
    let pat = RoutePattern::new()
        .root(p.handlers[0])
        .edge(p.handlers[0], p.handlers[1]);
    let err =
        p.rt.run(Decl::Route(&pat), |ctx| {
            ctx.trigger(
                p.events[0],
                EventData::new(Step {
                    sleep_ms: 0,
                    last_stage: 2, // stage1 will try to call stage2
                }),
            )
        })
        .unwrap_err();
    assert!(
        matches!(err, SamoaError::NotInPattern { .. }),
        "unexpected: {err}"
    );
}

#[test]
fn undeclared_edge_is_rejected() {
    let p = pipeline(3);
    // stage2 is a vertex (root) but there is no edge stage1 -> stage2.
    let pat = RoutePattern::new()
        .root(p.handlers[0])
        .root(p.handlers[2])
        .edge(p.handlers[0], p.handlers[1]);
    let err =
        p.rt.run(Decl::Route(&pat), |ctx| {
            ctx.trigger(
                p.events[0],
                EventData::new(Step {
                    sleep_ms: 0,
                    last_stage: 2,
                }),
            )
        })
        .unwrap_err();
    match err {
        SamoaError::NoRoute { from, to, .. } => {
            assert_eq!(from, Some(p.handlers[1]));
            assert_eq!(to, p.handlers[2]);
        }
        other => panic!("unexpected: {other}"),
    }
}

#[test]
fn root_may_only_call_declared_roots() {
    let p = pipeline(2);
    let pat = RoutePattern::new()
        .root(p.handlers[0])
        .edge(p.handlers[0], p.handlers[1]);
    let err =
        p.rt.run(Decl::Route(&pat), |ctx| {
            // Direct call of stage1 from the closure body: not a root.
            ctx.trigger(
                p.events[1],
                EventData::new(Step {
                    sleep_ms: 0,
                    last_stage: 1,
                }),
            )
        })
        .unwrap_err();
    assert!(matches!(err, SamoaError::NoRoute { from: None, .. }));
}

#[test]
fn root_keeps_roots_reachable_until_body_returns() {
    // While the closure body is still running it may call its declared
    // roots again, so their protocols must not be released early. A second
    // call of the chain from the body must succeed.
    let p = pipeline(2);
    let pat = chain_pattern(&p);
    p.rt.run(Decl::Route(&pat), |ctx| {
        for _ in 0..2 {
            ctx.trigger(
                p.events[0],
                EventData::new(Step {
                    sleep_ms: 0,
                    last_stage: 1,
                }),
            )?;
        }
        Ok(())
    })
    .unwrap();
    assert_eq!(p.logs[0].snapshot(), vec![1, 1]);
    assert_eq!(p.logs[1].snapshot(), vec![1, 1]);
}

#[test]
fn route_releases_head_for_concurrent_successor() {
    // The headline claim of §5.3, demonstrated deterministically: k1 runs
    // root -> a -> (async) b, where b blocks on a gate that only k2 can
    // open after being admitted to Pa. Early release of Pa (a finished,
    // unreachable from the pending/active b) is therefore *required* for
    // this test to terminate at all; VCAbasic would deadlock here.
    let mut b = StackBuilder::new();
    let pa = b.protocol("Pa");
    let pb = b.protocol("Pb");
    let ea = b.event("A");
    let eb = b.event("B");
    let a_log = ProtocolState::new(pa, Vec::<u64>::new());
    let gate = latch();
    let ha = {
        let log = a_log.clone();
        b.bind(ea, pa, "a", move |ctx, ev| {
            log.with(ctx, |l| l.push(ctx.comp_id()));
            // Forward to b (asynchronously) only when asked; `a` itself
            // returns immediately, making Pa releasable.
            if ev.get::<bool>() == Some(&true) {
                ctx.async_trigger(eb, EventData::empty())?;
            }
            Ok(())
        })
    };
    let hb = {
        let gate = Arc::clone(&gate);
        b.bind(eb, pb, "b", move |_, _| {
            assert!(gate.wait(Duration::from_secs(10)), "gate never opened");
            Ok(())
        })
    };
    let rt = Runtime::with_config(b.build(), RuntimeConfig::recording());
    let pat1 = RoutePattern::new().root(ha).edge(ha, hb);
    let h1 = rt.spawn(Decl::Route(&pat1), move |ctx| {
        ctx.trigger(ea, EventData::new(true))
    });

    // k2 only visits `a`.
    let pat2 = RoutePattern::new().root(ha);
    let gate2 = Arc::clone(&gate);
    let h2 = rt.spawn(Decl::Route(&pat2), move |ctx| {
        ctx.trigger(ea, EventData::new(false))?;
        // We got in while k1's `b` is still blocked on the gate.
        gate2.open();
        Ok(())
    });
    join_within(h2, Duration::from_secs(10)).unwrap();
    join_within(h1, Duration::from_secs(10)).unwrap();
    assert_eq!(a_log.snapshot(), vec![1, 2]);
    rt.check_isolation().unwrap();
}

#[test]
fn without_early_release_successor_would_wait() {
    // Same shape as above but under VCAbasic: k2 must NOT get in while k1 is
    // blocked; we verify by having k1 finish on a timer instead of a gate,
    // and asserting k2 observed k1's completion flag.
    let mut b = StackBuilder::new();
    let pa = b.protocol("Pa");
    let pb = b.protocol("Pb");
    let ea = b.event("A");
    let eb = b.event("B");
    b.bind(ea, pa, "a", |_, _| Ok(()));
    b.bind(eb, pb, "b", |_, _| {
        std::thread::sleep(Duration::from_millis(60));
        Ok(())
    });
    let rt = Runtime::new(b.build());
    let k1_done = latch();
    let h1 = {
        let done = Arc::clone(&k1_done);
        rt.spawn(Decl::Basic(&[pa, pb]), move |ctx| {
            ctx.trigger(ea, EventData::empty())?;
            ctx.trigger(eb, EventData::empty())?;
            done.open();
            Ok(())
        })
    };
    let h2 = {
        let done = Arc::clone(&k1_done);
        rt.spawn(Decl::Basic(&[pa]), move |ctx| {
            ctx.trigger(ea, EventData::empty())?;
            assert!(done.is_open(), "VCAbasic admitted k2 early");
            Ok(())
        })
    };
    join_within(h1, Duration::from_secs(10)).unwrap();
    join_within(h2, Duration::from_secs(10)).unwrap();
}

#[test]
fn async_route_admission_checked_at_issue() {
    let p = pipeline(2);
    // stage1 is a vertex (it has an outgoing edge) but not a root, so an
    // async issue of Stage1 from the closure body must fail at issue time.
    let pat = RoutePattern::new()
        .root(p.handlers[0])
        .edge(p.handlers[1], p.handlers[0]);
    let err =
        p.rt.run(Decl::Route(&pat), |ctx| {
            ctx.async_trigger(
                p.events[1],
                EventData::new(Step {
                    sleep_ms: 0,
                    last_stage: 1,
                }),
            )
        })
        .unwrap_err();
    assert!(matches!(err, SamoaError::NoRoute { from: None, .. }));
}

#[test]
fn pending_async_keeps_protocol_for_the_computation() {
    // Root async-triggers stage0 and returns; the pending event must keep P0
    // un-released until it executes (see DESIGN.md refinement note).
    let p = pipeline(1);
    let pat = RoutePattern::new().root(p.handlers[0]);
    p.rt.run(Decl::Route(&pat), |ctx| {
        ctx.async_trigger(
            p.events[0],
            EventData::new(Step {
                sleep_ms: 20,
                last_stage: 0,
            }),
        )
    })
    .unwrap();
    assert_eq!(p.logs[0].snapshot(), vec![1]);
    p.rt.check_isolation().unwrap();
}

#[test]
fn route_computations_isolate_on_shared_stages() {
    let p = pipeline(3);
    let pat = chain_pattern(&p);
    let mut handles = Vec::new();
    for _ in 0..6 {
        let ev = p.events[0];
        handles.push(p.rt.spawn(Decl::Route(&pat), move |ctx| {
            ctx.trigger(
                ev,
                EventData::new(Step {
                    sleep_ms: 2,
                    last_stage: 2,
                }),
            )
        }));
    }
    for h in handles {
        join_within(h, Duration::from_secs(30)).unwrap();
    }
    p.rt.check_isolation().unwrap();
    for i in 0..3 {
        assert_eq!(p.logs[i].snapshot(), vec![1, 2, 3, 4, 5, 6], "stage {i}");
    }
}
