//! Semantics of the basic version-counting algorithm (paper §5.1).

mod common;

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use common::{conflict_stack, flag, join_within, wait_flag};
use samoa_core::prelude::*;

#[test]
fn single_computation_runs_and_upgrades_versions() {
    let s = conflict_stack(2);
    s.rt.run(Decl::Basic(&[s.protocols[0]]), |ctx| {
        ctx.trigger(s.events[0], 0u64)
    })
    .unwrap();
    assert_eq!(s.visit_order(0), vec![1]);
    // Rule 3 upgraded the local version to the computation's private version.
    assert_eq!(s.rt.local_version(s.protocols[0]), 1);
    assert_eq!(s.rt.local_version(s.protocols[1]), 0);
}

#[test]
fn undeclared_protocol_is_an_error() {
    let s = conflict_stack(2);
    let err =
        s.rt.run(Decl::Basic(&[s.protocols[0]]), |ctx| {
            ctx.trigger(s.events[1], 0u64)
        })
        .unwrap_err();
    match err {
        SamoaError::UndeclaredProtocol { protocol, .. } => {
            assert_eq!(protocol, s.protocols[1]);
        }
        other => panic!("unexpected error: {other}"),
    }
}

#[test]
fn undeclared_protocol_error_does_not_wedge_later_computations() {
    let s = conflict_stack(2);
    let _ = s.rt.run(Decl::Basic(&[s.protocols[0]]), |ctx| {
        ctx.trigger(s.events[1], 0u64)
    });
    // The failed computation still released P0 at completion.
    join_within(
        s.rt.spawn(Decl::Basic(&[s.protocols[0]]), {
            let e = s.events[0];
            move |ctx| ctx.trigger(e, 0u64)
        }),
        Duration::from_secs(5),
    )
    .unwrap();
    assert_eq!(s.visit_order(0), vec![2]);
}

#[test]
fn conflicting_computations_serialize_in_spawn_order() {
    let s = conflict_stack(1);
    let e = s.events[0];
    let mut handles = Vec::new();
    for _ in 0..8 {
        handles.push(s.rt.spawn(Decl::Basic(&[s.protocols[0]]), move |ctx| {
            ctx.trigger(e, 3u64)
        }));
    }
    for h in handles {
        join_within(h, Duration::from_secs(20)).unwrap();
    }
    // Admission follows private-version order, which is spawn order.
    assert_eq!(s.visit_order(0), vec![1, 2, 3, 4, 5, 6, 7, 8]);
    assert!(s.no_lost_updates());
    let order = s.rt.check_isolation().unwrap();
    assert_eq!(order, vec![1, 2, 3, 4, 5, 6, 7, 8]);
}

#[test]
fn disjoint_computations_overlap_in_time() {
    let s = conflict_stack(2);
    let k2_ran = flag();
    // k1 occupies P0 and blocks until k2 (on P1) has demonstrably run.
    let h1 = {
        let e = s.events[0];
        let k2_ran = Arc::clone(&k2_ran);
        s.rt.spawn(Decl::Basic(&[s.protocols[0]]), move |ctx| {
            assert!(
                wait_flag(&k2_ran, Duration::from_secs(10)),
                "k2 never ran concurrently with k1"
            );
            ctx.trigger(e, 0u64)
        })
    };
    let h2 = {
        let e = s.events[1];
        let k2_ran = Arc::clone(&k2_ran);
        s.rt.spawn(Decl::Basic(&[s.protocols[1]]), move |ctx| {
            ctx.trigger(e, 0u64)?;
            k2_ran.store(true, Ordering::SeqCst);
            Ok(())
        })
    };
    join_within(h2, Duration::from_secs(10)).unwrap();
    join_within(h1, Duration::from_secs(10)).unwrap();
    assert!(s.rt.check_isolation().is_ok());
}

#[test]
fn overlapping_computation_waits_for_predecessor_completion() {
    // Even if k1 has *finished visiting* the shared protocol, VCAbasic
    // releases it only at completion — k2 must wait for all of k1.
    let s = conflict_stack(2);
    let k1_done = flag();
    let h1 = {
        let (e0, e1) = (s.events[0], s.events[1]);
        let k1_done = Arc::clone(&k1_done);
        s.rt.spawn(Decl::Basic(&[s.protocols[0], s.protocols[1]]), move |ctx| {
            ctx.trigger(e0, 0u64)?; // visit shared P0 once, quickly
            ctx.trigger(e1, 100u64)?; // then be slow elsewhere
            k1_done.store(true, Ordering::SeqCst);
            Ok(())
        })
    };
    let h2 = {
        let e0 = s.events[0];
        let k1_done = Arc::clone(&k1_done);
        s.rt.spawn(Decl::Basic(&[s.protocols[0]]), move |ctx| {
            ctx.trigger(e0, 0u64)?;
            // By the time our visit of P0 was admitted, k1 must have fully
            // completed (basic releases at completion only).
            assert!(k1_done.load(Ordering::SeqCst), "VCAbasic released early");
            Ok(())
        })
    };
    join_within(h1, Duration::from_secs(10)).unwrap();
    join_within(h2, Duration::from_secs(10)).unwrap();
    assert_eq!(s.visit_order(0), vec![1, 2]);
}

#[test]
fn async_triggers_run_within_the_computation() {
    let s = conflict_stack(3);
    let (e0, e1, e2) = (s.events[0], s.events[1], s.events[2]);
    s.rt.run(Decl::Basic(&s.protocols.clone()), |ctx| {
        ctx.async_trigger(e0, 5u64)?;
        ctx.async_trigger(e1, 5u64)?;
        ctx.trigger(e2, 0u64)
    })
    .unwrap();
    // Blocking `isolated` returns only after the async parts completed.
    assert_eq!(s.visit_order(0), vec![1]);
    assert_eq!(s.visit_order(1), vec![1]);
    assert_eq!(s.visit_order(2), vec![1]);
}

#[test]
fn async_error_reported_on_join() {
    let s = conflict_stack(2);
    let e1 = s.events[1];
    let err =
        s.rt.run(Decl::Basic(&[s.protocols[0]]), |ctx| {
            // Declared at issue time: undeclared protocol error surfaces in
            // the issuing thread.
            ctx.async_trigger(e1, 0u64)
        })
        .unwrap_err();
    assert!(matches!(err, SamoaError::UndeclaredProtocol { .. }));
}

#[test]
fn handler_panic_is_caught_and_reported() {
    let mut b = StackBuilder::new();
    let p = b.protocol("P");
    let e = b.event("E");
    b.bind(e, p, "boom", |_, _| panic!("intentional"));
    let rt = Runtime::new(b.build());
    let err = rt
        .run(Decl::Basic(&[p]), |ctx| ctx.trigger(e, EventData::empty()))
        .unwrap_err();
    match err {
        SamoaError::HandlerPanic { message, .. } => assert!(message.contains("intentional")),
        other => panic!("unexpected error: {other}"),
    }
    // The runtime is still usable; versions were released.
    let mut called = false;
    let _ = rt.run(Decl::Basic(&[p]), |_| {
        called = true;
        Ok(())
    });
    assert!(called);
}

#[test]
fn nested_sync_triggers_chain_across_protocols() {
    // P0 -> P1 -> P2 chained by handlers triggering the next event.
    let mut b = StackBuilder::new();
    let ps: Vec<ProtocolId> = (0..3).map(|i| b.protocol(&format!("P{i}"))).collect();
    let es: Vec<EventType> = (0..3).map(|i| b.event(&format!("E{i}"))).collect();
    let trace = ProtocolState::new(ps[2], Vec::<u32>::new());
    {
        let (e1, t) = (es[1], trace.clone());
        b.bind(es[0], ps[0], "h0", move |ctx, _| {
            let _ = &t;
            ctx.trigger(e1, EventData::empty())
        });
    }
    {
        let e2 = es[2];
        b.bind(es[1], ps[1], "h1", move |ctx, _| {
            ctx.trigger(e2, EventData::empty())
        });
    }
    {
        let t = trace.clone();
        b.bind(es[2], ps[2], "h2", move |ctx, _| {
            t.with(ctx, |v| v.push(2));
            Ok(())
        });
    }
    let rt = Runtime::new(b.build());
    rt.run(Decl::Basic(&ps), |ctx| {
        ctx.trigger(es[0], EventData::empty())
    })
    .unwrap();
    assert_eq!(trace.snapshot(), vec![2]);
}

#[test]
fn quiesce_waits_for_all_spawned_computations() {
    let s = conflict_stack(1);
    let e = s.events[0];
    for _ in 0..4 {
        s.rt.spawn(Decl::Basic(&[s.protocols[0]]), move |ctx| {
            ctx.trigger(e, 10u64)
        });
    }
    s.rt.quiesce();
    assert_eq!(s.visit_order(0).len(), 4);
}

#[test]
fn trigger_errors_for_unbound_and_ambiguous_events() {
    let mut b = StackBuilder::new();
    let p = b.protocol("P");
    let unbound = b.event("Unbound");
    let multi = b.event("Multi");
    b.bind(multi, p, "m1", |_, _| Ok(()));
    b.bind(multi, p, "m2", |_, _| Ok(()));
    let rt = Runtime::new(b.build());
    let err = rt
        .run(Decl::Basic(&[p]), |ctx| {
            ctx.trigger(unbound, EventData::empty())
        })
        .unwrap_err();
    assert!(matches!(err, SamoaError::NoHandler { .. }));
    let err = rt
        .run(Decl::Basic(&[p]), |ctx| {
            ctx.trigger(multi, EventData::empty())
        })
        .unwrap_err();
    assert!(matches!(err, SamoaError::MultipleHandlers { count: 2, .. }));
    // trigger_all handles both fine.
    rt.run(Decl::Basic(&[p]), |ctx| {
        ctx.trigger_all(unbound, EventData::empty())?;
        ctx.trigger_all(multi, EventData::empty())
    })
    .unwrap();
}

#[test]
fn ctx_spawn_runs_in_same_computation_and_blocks_completion() {
    let s = conflict_stack(1);
    let e = s.events[0];
    s.rt.run(Decl::Basic(&[s.protocols[0]]), |ctx| {
        ctx.spawn(move |ctx2| {
            std::thread::sleep(Duration::from_millis(30));
            ctx2.trigger(e, 0u64)
        });
        Ok(())
    })
    .unwrap();
    // isolated() returned => the spawned thread's work is done.
    assert_eq!(s.visit_order(0), vec![1]);
}

#[test]
fn run_returns_closure_value() {
    let s = conflict_stack(1);
    let v =
        s.rt.run(Decl::Basic(&[s.protocols[0]]), |_| Ok(41 + 1))
            .unwrap();
    assert_eq!(v, 42);
}

#[test]
fn mixed_declared_but_unvisited_protocols_release_cleanly() {
    let s = conflict_stack(3);
    // k1 declares everything, visits nothing; k2 then proceeds normally.
    let h1 = s.rt.spawn(Decl::Basic(&s.protocols.clone()), |_| Ok(()));
    let h2 = {
        let e = s.events[1];
        s.rt.spawn(Decl::Basic(&[s.protocols[1]]), move |ctx| {
            ctx.trigger(e, 0u64)
        })
    };
    join_within(h1, Duration::from_secs(5)).unwrap();
    join_within(h2, Duration::from_secs(5)).unwrap();
    assert_eq!(s.visit_order(1), vec![2]);
}
