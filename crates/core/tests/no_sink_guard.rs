//! Acceptance guard for the tracing cost model: with no sink installed the
//! hot path is a single `Option` branch — no event is constructed, no
//! timestamp read. `samoa_core::trace::events_emitted()` counts every event
//! delivered to any sink process-wide, so a zero delta across a full
//! workload proves the untraced path never reaches delivery.
//!
//! All checks live in one `#[test]` because the counter is process-global;
//! a parallel traced test would perturb the untraced delta.

mod common;

use common::{chain_stack, ChainStack};
use samoa_core::trace::events_emitted;
use samoa_core::{Ctx, Decl, EventData, TraceBuffer};

/// Six computations through the chain under `decl`, from two spawner
/// threads, run to quiescence.
fn run_chain(chain: &ChainStack, decl: Decl<'_>) {
    let entry = chain.entry;
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                for _ in 0..3 {
                    chain.rt.spawn(decl.clone(), move |ctx: &Ctx| {
                        ctx.trigger(entry, EventData::empty())
                    });
                }
            });
        }
    });
    chain.rt.quiesce();
}

#[test]
fn untraced_runtime_emits_nothing_traced_runtime_emits() {
    // No sink: a full pipeline workload across every interesting policy
    // must not deliver a single trace event.
    let chain = chain_stack(3, None);
    let bounds: Vec<_> = chain.protocols.iter().map(|&p| (p, 1)).collect();
    let pattern = chain.route_pattern();
    let before = events_emitted();
    for decl in [
        Decl::Basic(&chain.protocols),
        Decl::Bound(&bounds),
        Decl::Route(&pattern),
        Decl::TwoPhase(&chain.protocols),
    ] {
        run_chain(&chain, decl);
    }
    assert_eq!(
        events_emitted() - before,
        0,
        "untraced runtime delivered trace events: the no-sink hot path \
         must cost exactly one branch"
    );

    // Same workload with a sink: events flow (the counter is live, not a
    // vacuous zero).
    let sink = TraceBuffer::new();
    let traced = chain_stack(3, Some(sink.clone()));
    let before = events_emitted();
    run_chain(&traced, Decl::Basic(&traced.protocols));
    let delta = events_emitted() - before;
    assert!(delta > 0, "traced runtime emitted no events");
    assert_eq!(sink.drain().len() as u64, delta);
}
