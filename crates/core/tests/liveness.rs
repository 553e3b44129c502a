//! Liveness properties: the deadlock-freedom argument of paper §6 under a
//! mixed-policy torture workload, and computations *caused by* other
//! computations (paper §2), which start only once their cause has completed
//! — the code of a running computation cannot start one (§4: a computation
//! starts at an external event).

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use common::conflict_stack;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use samoa_core::prelude::*;

/// The §6 claim, operationalised: whatever mixture of basic / bound /
/// serial computations runs, everything completes (versions
/// impose a total order on call requests, so waits never cycle).
#[test]
fn mixed_policy_torture_run_completes() {
    let s = conflict_stack(5);
    let mut rng = StdRng::seed_from_u64(4242);
    let deadline = Instant::now() + Duration::from_secs(120);
    for round in 0..3 {
        let mut handles = Vec::new();
        for j in 0..40 {
            let i = rng.gen_range(0..5);
            let k = rng.gen_range(0..5);
            let (ei, ek) = (s.events[i], s.events[k]);
            let decl = [s.protocols[i], s.protocols[k]];
            let sleep = rng.gen_range(0..=1u64);
            let body = move |ctx: &Ctx| {
                ctx.trigger(ei, sleep)?;
                ctx.async_trigger(ek, 0u64)
            };
            handles.push(match j % 4 {
                0 => s.rt.spawn(Decl::Basic(&decl), body),
                1 => {
                    let bd = [(decl[0], 2), (decl[1], 2)];
                    s.rt.spawn(Decl::Bound(&bd), body)
                }
                2 => s.rt.spawn(Decl::Serial, body),
                _ => s.rt.spawn(Decl::Basic(&decl), body),
            });
        }
        for h in handles {
            assert!(
                Instant::now() < deadline,
                "torture round {round} deadlocked:\n{}",
                s.rt.debug_snapshot()
            );
            h.join().unwrap();
        }
        s.rt.check_isolation()
            .unwrap_or_else(|v| panic!("round {round}: {v}"));
        s.rt.reset_history();
    }
    assert!(s.no_lost_updates());
}

/// A computation *causes* another (the paper's causally dependent external
/// events) by starting it from [`Ctx::after_completion`]: the caused one
/// overlaps the cause's declaration, and serialises after it. Started from
/// the cause's own code — its body or a [`Ctx::spawn`] closure — it is
/// refused, and the refusal takes no computation id.
#[test]
fn caused_computations_serialize_after_their_cause() {
    let s = conflict_stack(1);
    let e = s.events[0];
    let rt = s.rt.clone();
    let p = s.protocols[0];
    let caused = Arc::new(OnceLock::new());
    let slot = Arc::clone(&caused);
    s.rt.run(Decl::Basic(&[p]), move |ctx| {
        ctx.trigger(e, 0u64)?;
        // Run blocking, this would wait for our own version of P.
        assert_eq!(
            rt.run(Decl::Basic(&[p]), |ctx2| ctx2.trigger(e, 0u64)),
            Err(SamoaError::NestedSpawn)
        );
        let inner = rt.clone();
        ctx.spawn(move |_| {
            assert_eq!(
                inner.run(Decl::Unsync, |_| Ok(())),
                Err(SamoaError::NestedSpawn)
            );
            Ok(())
        });
        let rt = rt.clone();
        ctx.after_completion(move || {
            let handle = rt.spawn(Decl::Basic(&[p]), move |ctx2| ctx2.trigger(e, 0u64));
            let _ = slot.set(handle);
        });
        Ok(())
    })
    .unwrap();
    let handle = Arc::try_unwrap(caused)
        .ok()
        .and_then(OnceLock::into_inner)
        .expect("the effect started the caused computation");
    assert_eq!(handle.comp_id(), 2, "a refused start took an id");
    handle.join().unwrap();
    assert_eq!(s.rt.stats().computations_spawned, 2);
    assert_eq!(s.visit_order(0), vec![1, 2]);
    s.rt.check_isolation().unwrap();
}

/// In a handler, [`Runtime::run`] is refused and [`Runtime::spawn`] panics
/// with the refusal, and so fails its own computation; nothing else is
/// started.
#[test]
fn a_handler_cannot_spawn_a_computation() {
    let rt_slot: Arc<OnceLock<Runtime>> = Arc::new(OnceLock::new());
    let mut b = StackBuilder::new();
    let p = b.protocol("P");
    let e = b.event("e");
    let slot = Arc::clone(&rt_slot);
    b.bind(e, p, "h", move |_, _| {
        let rt = slot.get().expect("runtime set");
        assert_eq!(
            rt.run(Decl::Unsync, |_| Ok(())),
            Err(SamoaError::NestedSpawn)
        );
        drop(rt.spawn(Decl::Basic(&[p]), |_| Ok(())));
        Ok(())
    });
    let rt = Runtime::new(b.build());
    assert!(rt_slot.set(rt.clone()).is_ok());
    let err = rt
        .run(Decl::Basic(&[p]), |ctx| ctx.trigger(e, EventData::empty()))
        .unwrap_err();
    assert!(
        matches!(&err, SamoaError::HandlerPanic { message, .. }
            if *message == SamoaError::NestedSpawn.to_string()),
        "{err:?}"
    );
    assert_eq!(rt.stats().computations_spawned, 1);
}

/// A handler that hands an event to its own runtime's external API starts
/// nothing and is counted as a failed external event, whichever thread the
/// policy would have run it on. Under `Basic` the call would run inline and
/// wait forever for the version its caller holds.
#[test]
fn an_external_event_from_a_handler_starts_nothing() {
    for policy in [Policy::Basic, Policy::Route] {
        let slot: Arc<OnceLock<(Runtime, External)>> = Arc::new(OnceLock::new());
        let mut b = StackBuilder::new();
        let p = b.protocol("P");
        let (outer, inner) = (b.event("outer"), b.event("inner"));
        let entered = Arc::new(AtomicUsize::new(0));
        let count = Arc::clone(&entered);
        b.bind_with_triggers(inner, p, "inner", &[], move |_, _| {
            count.fetch_add(1, Ordering::SeqCst);
            Ok(())
        });
        let reentry = Arc::clone(&slot);
        b.bind_with_triggers(outer, p, "outer", &[], move |_, _| {
            let (rt, ext) = reentry.get().expect("runtime set");
            rt.external(policy, ext, EventData::empty());
            Ok(())
        });
        let stack = b.build();
        let (outer_ext, inner_ext) = (External::new(&stack, outer), External::new(&stack, inner));
        let rt = Runtime::new(stack);
        assert!(slot.set((rt.clone(), inner_ext)).is_ok());
        rt.external(policy, &outer_ext, EventData::empty());
        rt.quiesce();
        let stats = rt.stats();
        assert_eq!(stats.computations_spawned, 1, "{policy}");
        assert_eq!(stats.external_errors, 1, "{policy}");
        assert_eq!(entered.load(Ordering::SeqCst), 0, "{policy}");
    }
}

/// debug_snapshot reflects held and released versions.
#[test]
fn debug_snapshot_shows_version_state() {
    let s = conflict_stack(2);
    let snap = s.rt.debug_snapshot();
    assert!(snap.contains("P0"), "{snap}");
    assert!(snap.contains("gv=0"), "{snap}");
    s.rt.run(Decl::Basic(&[s.protocols[0]]), |ctx| {
        ctx.trigger(s.events[0], 0u64)
    })
    .unwrap();
    let snap = s.rt.debug_snapshot();
    assert!(snap.contains("gv=1"), "{snap}");
    assert!(snap.contains("pending=0"), "{snap}");
    assert!(snap.contains("active computations: 0"), "{snap}");
}

/// Route + bound + basic computations interleaved on a pipeline-shaped
/// stack complete and stay serializable.
#[test]
fn route_bound_basic_mix_on_chain() {
    let mut b = StackBuilder::new();
    let ps: Vec<ProtocolId> = (0..3).map(|i| b.protocol(&format!("S{i}"))).collect();
    let es: Vec<EventType> = (0..3).map(|i| b.event(&format!("E{i}"))).collect();
    let states: Vec<ProtocolState<u64>> = ps.iter().map(|&p| ProtocolState::new(p, 0)).collect();
    let mut hs = Vec::new();
    for i in 0..3 {
        let st = states[i].clone();
        let next = es.get(i + 1).copied();
        hs.push(b.bind(es[i], ps[i], &format!("h{i}"), move |ctx, ev| {
            st.with(ctx, |v| *v += 1);
            if let Some(n) = next {
                ctx.async_trigger(n, ev.clone())?;
            }
            Ok(())
        }));
    }
    let rt = Runtime::with_config(b.build(), RuntimeConfig::recording());
    let mut pat = RoutePattern::new().root(hs[0]);
    for w in hs.windows(2) {
        pat = pat.edge(w[0], w[1]);
    }
    let bounds: Vec<(ProtocolId, u64)> = ps.iter().map(|&p| (p, 1)).collect();
    let mut handles = Vec::new();
    for j in 0..15 {
        let e0 = es[0];
        let body = move |ctx: &Ctx| ctx.trigger(e0, EventData::empty());
        handles.push(match j % 3 {
            0 => rt.spawn(Decl::Basic(&ps), body),
            1 => rt.spawn(Decl::Bound(&bounds), body),
            _ => rt.spawn(Decl::Route(&pat), body),
        });
    }
    for h in handles {
        h.join().unwrap();
    }
    for (i, st) in states.iter().enumerate() {
        assert_eq!(st.snapshot(), 15, "stage {i}");
    }
    rt.check_isolation().unwrap();
}
