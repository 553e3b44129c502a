//! Semantics of version counting with least upper bounds (paper §5.2).

mod common;

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use common::{conflict_stack, flag, join_within, wait_flag};
use samoa_core::prelude::*;

#[test]
fn bound_allows_declared_number_of_visits() {
    let s = conflict_stack(1);
    let e = s.events[0];
    s.rt.run(Decl::Bound(&[(s.protocols[0], 3)]), |ctx| {
        for _ in 0..3 {
            ctx.trigger(e, 0u64)?;
        }
        Ok(())
    })
    .unwrap();
    assert_eq!(s.visit_order(0), vec![1, 1, 1]);
}

#[test]
fn exceeding_bound_is_an_error() {
    let s = conflict_stack(1);
    let e = s.events[0];
    let err =
        s.rt.run(Decl::Bound(&[(s.protocols[0], 2)]), |ctx| {
            for _ in 0..3 {
                ctx.trigger(e, 0u64)?;
            }
            Ok(())
        })
        .unwrap_err();
    match err {
        SamoaError::BoundExhausted {
            protocol, bound, ..
        } => {
            assert_eq!(protocol, s.protocols[0]);
            assert_eq!(bound, 2);
        }
        other => panic!("unexpected error: {other}"),
    }
    // Only the two in-budget visits happened.
    assert_eq!(s.visit_order(0), vec![1, 1]);
}

#[test]
fn exhausted_bound_releases_protocol_early() {
    // The headline claim of §5.2: once k1 has used up its visits of P0, k2
    // may enter P0 *while k1 is still running elsewhere* — more parallelism
    // than VCAbasic, which `overlapping_computation_waits_for_predecessor_
    // completion` (vca_basic.rs) shows would block until k1 completes.
    let s = conflict_stack(2);
    let k1_done = flag();
    let k2_entered_p0 = flag();
    let h1 = {
        let (e0, e1) = (s.events[0], s.events[1]);
        let k1_done = Arc::clone(&k1_done);
        let k2_entered_p0 = Arc::clone(&k2_entered_p0);
        s.rt.spawn(
            Decl::Bound(&[(s.protocols[0], 1), (s.protocols[1], 1)]),
            move |ctx| {
                ctx.trigger(e0, 0u64)?; // single visit of P0: budget exhausted
                                        // Stay alive on P1 until k2 demonstrates it got into P0.
                assert!(
                    wait_flag(&k2_entered_p0, Duration::from_secs(10)),
                    "k2 was not admitted to P0 while k1 was still running"
                );
                ctx.trigger(e1, 0u64)?;
                k1_done.store(true, Ordering::SeqCst);
                Ok(())
            },
        )
    };
    let h2 = {
        let e0 = s.events[0];
        let k1_done = Arc::clone(&k1_done);
        let k2_entered_p0 = Arc::clone(&k2_entered_p0);
        s.rt.spawn(Decl::Bound(&[(s.protocols[0], 1)]), move |ctx| {
            ctx.trigger(e0, 0u64)?;
            assert!(
                !k1_done.load(Ordering::SeqCst),
                "k1 already finished; early release not demonstrated"
            );
            k2_entered_p0.store(true, Ordering::SeqCst);
            Ok(())
        })
    };
    join_within(h2, Duration::from_secs(10)).unwrap();
    join_within(h1, Duration::from_secs(10)).unwrap();
    // Still isolated: k1's P0 access precedes k2's, k1 never returns to P0.
    s.rt.check_isolation().unwrap();
    assert_eq!(s.visit_order(0), vec![1, 2]);
}

#[test]
fn fewer_visits_than_declared_is_fine() {
    let s = conflict_stack(1);
    let e = s.events[0];
    // Declares 5, uses 1; Rule 3 upgrades the remainder at completion.
    s.rt.run(Decl::Bound(&[(s.protocols[0], 5)]), |ctx| {
        ctx.trigger(e, 0u64)
    })
    .unwrap();
    assert_eq!(s.rt.local_version(s.protocols[0]), 5);
    // A successor is admitted normally afterwards.
    s.rt.run(Decl::Bound(&[(s.protocols[0], 1)]), |ctx| {
        ctx.trigger(e, 0u64)
    })
    .unwrap();
    assert_eq!(s.visit_order(0), vec![1, 2]);
}

#[test]
fn unvisited_bound_protocol_released_at_completion() {
    let s = conflict_stack(2);
    let h1 = s.rt.spawn(Decl::Bound(&[(s.protocols[0], 4)]), |_| Ok(()));
    join_within(h1, Duration::from_secs(5)).unwrap();
    assert_eq!(s.rt.local_version(s.protocols[0]), 4);
}

#[test]
fn bound_computations_interleave_without_lost_updates() {
    let s = conflict_stack(2);
    let mut handles = Vec::new();
    for i in 0..10 {
        let (e0, e1) = (s.events[0], s.events[1]);
        let decl = [(s.protocols[0], 2), (s.protocols[1], 2)];
        handles.push(s.rt.spawn(Decl::Bound(&decl), move |ctx| {
            ctx.trigger(e0, (i % 3) as u64)?;
            ctx.trigger(e1, ((i + 1) % 3) as u64)?;
            ctx.trigger(e0, 0u64)?;
            ctx.trigger(e1, 0u64)
        }));
    }
    for h in handles {
        join_within(h, Duration::from_secs(30)).unwrap();
    }
    assert!(s.no_lost_updates());
    s.rt.check_isolation().unwrap();
    // Every computation visited each protocol exactly twice, contiguously
    // per protocol (isolation): the visit order is 1,1,2,2,...
    let order = s.visit_order(0);
    assert_eq!(order.len(), 20);
    for pair in order.chunks(2) {
        assert_eq!(pair[0], pair[1], "visits of one computation split");
    }
}

#[test]
fn concurrent_threads_of_one_computation_respect_shared_budget() {
    // Two async visits plus one sync visit against a bound of 2: exactly one
    // of the three must fail with BoundExhausted, whichever loses the race.
    let s = conflict_stack(1);
    let e = s.events[0];
    let err =
        s.rt.run(Decl::Bound(&[(s.protocols[0], 2)]), |ctx| {
            ctx.async_trigger(e, 1u64)?;
            ctx.async_trigger(e, 1u64)?;
            ctx.trigger(e, 1u64)
        })
        .err();
    // The sync trigger may or may not be the loser; either way the log has
    // exactly two entries and the computation reported at most one error.
    assert_eq!(s.visit_order(0).len(), 2);
    if let Some(e) = err {
        assert!(matches!(e, SamoaError::BoundExhausted { .. }), "{e}");
    }
}

#[test]
fn basic_and_bound_computations_mix_soundly() {
    // A VCAbasic computation is a VCAbound computation with bound 1 that
    // releases at completion; both share the version counters.
    let s = conflict_stack(1);
    let e = s.events[0];
    let mut handles = Vec::new();
    for i in 0..12 {
        let decl_b = [(s.protocols[0], 1)];
        let p = [s.protocols[0]];
        handles.push(if i % 2 == 0 {
            s.rt.spawn(Decl::Basic(&p), move |ctx| ctx.trigger(e, 2u64))
        } else {
            s.rt.spawn(Decl::Bound(&decl_b), move |ctx| ctx.trigger(e, 2u64))
        });
    }
    for h in handles {
        join_within(h, Duration::from_secs(30)).unwrap();
    }
    assert_eq!(s.visit_order(0), (1..=12).collect::<Vec<_>>());
    assert!(s.no_lost_updates());
    s.rt.check_isolation().unwrap();
}
