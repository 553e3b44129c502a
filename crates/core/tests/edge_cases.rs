//! Edge cases of the core runtime: degenerate declarations, empty stacks,
//! intra-computation parallelism, payload handling, and re-binding.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use samoa_core::prelude::*;

#[test]
fn empty_declaration_is_a_valid_noop_computation() {
    let mut b = StackBuilder::new();
    let _p = b.protocol("P");
    let rt = Runtime::new(b.build());
    let out = rt.run(Decl::Basic(&[]), |_| Ok(7)).unwrap();
    assert_eq!(out, 7);
    rt.quiesce();
}

#[test]
fn stack_with_no_protocols_runs_serial_computations() {
    let b = StackBuilder::new();
    let rt = Runtime::new(b.build());
    assert_eq!(rt.run(Decl::Serial, |_| Ok(1)).unwrap(), 1);
    assert_eq!(rt.run(Decl::Unsync, |_| Ok(2)).unwrap(), 2);
}

#[test]
fn duplicate_protocol_declaration_is_harmless() {
    let mut b = StackBuilder::new();
    let p = b.protocol("P");
    let e = b.event("E");
    let s = ProtocolState::new(p, 0u32);
    {
        let s = s.clone();
        b.bind(e, p, "h", move |ctx, _| {
            s.with(ctx, |v| *v += 1);
            Ok(())
        });
    }
    let rt = Runtime::new(b.build());
    rt.run(Decl::Basic(&[p, p, p]), |ctx| {
        ctx.trigger(e, EventData::empty())
    })
    .unwrap();
    assert_eq!(s.snapshot(), 1);
    // gv bumped once, not three times.
    assert_eq!(rt.local_version(p), 1);
}

#[test]
fn bound_zero_is_immediately_exhausted() {
    let mut b = StackBuilder::new();
    let p = b.protocol("P");
    let e = b.event("E");
    b.bind(e, p, "h", |_, _| Ok(()));
    let rt = Runtime::new(b.build());
    let err = rt
        .run(Decl::Bound(&[(p, 0)]), |ctx| {
            ctx.trigger(e, EventData::empty())
        })
        .unwrap_err();
    assert!(matches!(err, SamoaError::BoundExhausted { bound: 0, .. }));
    // And the runtime recovers.
    rt.run(Decl::Basic(&[p]), |ctx| ctx.trigger(e, EventData::empty()))
        .unwrap();
}

#[test]
fn intra_computation_parallelism_uses_extra_workers() {
    // With max_threads_per_computation = 4, four 30 ms spawned closures
    // should overlap substantially.
    let mut b = StackBuilder::new();
    let _p = b.protocol("P");
    let rt = Runtime::with_config(
        b.build(),
        RuntimeConfig {
            record_history: false,
            max_threads_per_computation: 4,
        },
    );
    let start = Instant::now();
    rt.run(Decl::Serial, |ctx| {
        for _ in 0..4 {
            ctx.spawn(|_| {
                std::thread::sleep(Duration::from_millis(30));
                Ok(())
            });
        }
        Ok(())
    })
    .unwrap();
    let wall = start.elapsed();
    assert!(
        wall < Duration::from_millis(100),
        "no overlap: {wall:?} (serial would be 120ms)"
    );
}

#[test]
fn single_worker_config_still_completes_async_storms() {
    let mut b = StackBuilder::new();
    let p = b.protocol("P");
    let e = b.event("E");
    let count = Arc::new(AtomicUsize::new(0));
    {
        let count = Arc::clone(&count);
        b.bind(e, p, "h", move |_, _| {
            count.fetch_add(1, Ordering::SeqCst);
            Ok(())
        });
    }
    let rt = Runtime::with_config(
        b.build(),
        RuntimeConfig {
            record_history: false,
            max_threads_per_computation: 1,
        },
    );
    rt.run(Decl::Basic(&[p]), |ctx| {
        for _ in 0..50 {
            ctx.async_trigger(e, EventData::empty())?;
        }
        Ok(())
    })
    .unwrap();
    assert_eq!(count.load(Ordering::SeqCst), 50);
}

/// Regression: growing a computation's workers *reserves* the slot. With a
/// separate check and increment, issuers released together could all pass
/// the check and overshoot `max_threads_per_computation`.
#[test]
fn worker_cap_holds_under_concurrent_async_triggers() {
    const ISSUERS: usize = 8;
    let mut b = StackBuilder::new();
    let in_handler = Arc::new(AtomicUsize::new(0));
    let peak = Arc::new(AtomicUsize::new(0));
    let mut protocols = Vec::new();
    let mut events = Vec::new();
    for i in 0..ISSUERS {
        let p = b.protocol(&format!("P{i}"));
        let e = b.event(&format!("E{i}"));
        let (in_handler, peak) = (Arc::clone(&in_handler), Arc::clone(&peak));
        b.bind(e, p, &format!("h{i}"), move |_, _| {
            let now = in_handler.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            // Long enough that every worker the computation has is inside
            // a handler at the same time.
            std::thread::sleep(Duration::from_millis(1));
            in_handler.fetch_sub(1, Ordering::SeqCst);
            Ok(())
        });
        protocols.push(p);
        events.push(e);
    }
    let rt = Runtime::with_config(
        b.build(),
        RuntimeConfig {
            max_threads_per_computation: 2,
            ..RuntimeConfig::default()
        },
    );
    for _ in 0..40 {
        rt.run(Decl::Basic(&protocols), |ctx| {
            // The handlers touch disjoint microprotocols, so nothing but
            // the cap limits their overlap; the barrier lines the issuers
            // up on the reservation.
            let start = std::sync::Barrier::new(ISSUERS);
            std::thread::scope(|s| {
                let issuers: Vec<_> = events
                    .iter()
                    .map(|&e| {
                        let start = &start;
                        s.spawn(move || {
                            start.wait();
                            ctx.async_trigger(e, EventData::empty())
                        })
                    })
                    .collect();
                issuers
                    .into_iter()
                    .try_for_each(|t| t.join().expect("issuer thread"))
            })
        })
        .unwrap();
    }
    let peak = peak.load(Ordering::SeqCst);
    assert!(peak <= 2, "{peak} handlers ran at once under a cap of 2");
}

#[test]
fn payload_type_mismatch_is_reported() {
    let mut b = StackBuilder::new();
    let p = b.protocol("P");
    let e = b.event("E");
    b.bind(e, p, "h", move |_, ev| {
        let _: &u64 = ev.expect(e)?;
        Ok(())
    });
    let rt = Runtime::new(b.build());
    let err = rt
        .run(Decl::Basic(&[p]), |ctx| ctx.trigger(e, "not a u64"))
        .unwrap_err();
    assert!(matches!(err, SamoaError::WrongPayloadType { .. }));
}

#[test]
fn handler_bound_to_two_events_sees_both() {
    let mut b = StackBuilder::new();
    let p = b.protocol("P");
    let e1 = b.event("E1");
    let e2 = b.event("E2");
    let hits = ProtocolState::new(p, Vec::<u32>::new());
    let h = {
        let hits = hits.clone();
        b.bind(e1, p, "h", move |ctx, ev| {
            let v: &u32 = ev.expect(e1)?;
            let v = *v;
            hits.with(ctx, |l| l.push(v));
            Ok(())
        })
    };
    b.bind_existing(e2, h);
    let rt = Runtime::new(b.build());
    rt.run(Decl::Basic(&[p]), |ctx| {
        ctx.trigger(e1, 1u32)?;
        ctx.trigger(e2, 2u32)
    })
    .unwrap();
    assert_eq!(hits.snapshot(), vec![1, 2]);
}

#[test]
fn trigger_all_calls_handlers_in_bind_order() {
    let mut b = StackBuilder::new();
    let p = b.protocol("P");
    let q = b.protocol("Q");
    let e = b.event("E");
    let order = ProtocolState::new(p, Vec::<u8>::new());
    // Both handlers belong to different protocols but record into P's state
    // — allowed only for P's handler; Q's handler records via an atomic.
    let q_first = Arc::new(AtomicUsize::new(usize::MAX));
    {
        let order = order.clone();
        b.bind(e, p, "hp", move |ctx, _| {
            order.with(ctx, |l| l.push(1));
            Ok(())
        });
    }
    {
        let q_first = Arc::clone(&q_first);
        b.bind(e, q, "hq", move |_, _| {
            q_first.store(2, Ordering::SeqCst);
            Ok(())
        });
    }
    let rt = Runtime::new(b.build());
    rt.run(Decl::Basic(&[p, q]), |ctx| {
        ctx.trigger_all(e, EventData::empty())
    })
    .unwrap();
    assert_eq!(order.snapshot(), vec![1]);
    assert_eq!(q_first.load(Ordering::SeqCst), 2);
}

#[test]
fn comp_ids_are_monotonic_across_policies() {
    let mut b = StackBuilder::new();
    let p = b.protocol("P");
    let rt = Runtime::new(b.build());
    let ids = vec![
        rt.spawn(Decl::Unsync, |_| Ok(())).comp_id(),
        rt.spawn(Decl::Basic(&[p]), |_| Ok(())).comp_id(),
        rt.spawn(Decl::Serial, |_| Ok(())).comp_id(),
    ];
    rt.quiesce();
    assert_eq!(ids, vec![1, 2, 3]);
}

#[test]
fn route_pattern_with_no_edges_or_roots_rejects_everything() {
    let mut b = StackBuilder::new();
    let p = b.protocol("P");
    let e = b.event("E");
    b.bind(e, p, "h", |_, _| Ok(()));
    let rt = Runtime::new(b.build());
    let pat = RoutePattern::new();
    let err = rt
        .run(Decl::Route(&pat), |ctx| ctx.trigger(e, EventData::empty()))
        .unwrap_err();
    assert!(matches!(err, SamoaError::NotInPattern { .. }));
}

#[test]
fn runtime_stats_count_work_and_waits() {
    let mut b = StackBuilder::new();
    let p = b.protocol("P");
    let e = b.event("E");
    b.bind(e, p, "h", |_, _| {
        std::thread::sleep(Duration::from_millis(10));
        Ok(())
    });
    let rt = Runtime::new(b.build());
    // Two conflicting computations: the second must wait ~10ms in admission.
    let h1 = rt.spawn(Decl::Basic(&[p]), move |ctx| {
        ctx.trigger(e, EventData::empty())
    });
    let h2 = rt.spawn(Decl::Basic(&[p]), move |ctx| {
        ctx.trigger(e, EventData::empty())
    });
    h1.join().unwrap();
    h2.join().unwrap();
    let s = rt.stats();
    assert_eq!(s.computations_spawned, 2);
    assert_eq!(s.computations_completed, 2);
    assert_eq!(s.handler_calls, 2);
    assert!(
        s.admission_wait >= Duration::from_millis(5),
        "expected measurable admission wait, got {:?}",
        s.admission_wait
    );
    // Unsync computations never wait.
    let rt2 = {
        let mut b = StackBuilder::new();
        let p = b.protocol("P");
        let e = b.event("E");
        b.bind(e, p, "h", |_, _| Ok(()));
        let _ = p;
        Runtime::new(b.build())
    };
    rt2.run(Decl::Unsync, |_| Ok(())).unwrap();
    assert_eq!(rt2.stats().admission_wait, Duration::ZERO);
}

#[test]
fn history_reset_clears_between_rounds() {
    let mut b = StackBuilder::new();
    let p = b.protocol("P");
    let e = b.event("E");
    let s = ProtocolState::new(p, 0u8);
    {
        let s = s.clone();
        b.bind(e, p, "h", move |ctx, _| {
            s.with(ctx, |v| *v += 1);
            Ok(())
        });
    }
    let rt = Runtime::with_config(b.build(), RuntimeConfig::recording());
    rt.run(Decl::Basic(&[p]), |ctx| ctx.trigger(e, EventData::empty()))
        .unwrap();
    assert_eq!(rt.history().run.len(), 1);
    rt.reset_history();
    assert!(rt.history().run.is_empty());
    rt.run(Decl::Basic(&[p]), |ctx| ctx.trigger(e, EventData::empty()))
        .unwrap();
    assert_eq!(rt.history().run.len(), 1);
    assert_eq!(rt.history().computations(), vec![2]);
}
