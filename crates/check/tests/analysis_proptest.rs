//! Property-based guarantee for the static analyzer: over random stacks
//! with accurate trigger metadata, the inferred declarations are always
//! *sufficient* — executing the cascade under `infer_m` / `infer_bounds` /
//! `infer_route` never hits `UndeclaredProtocol`, `BoundExhausted`, or
//! `NotInPattern`, each inferred declaration validates cleanly against the
//! stack, and the runs stay serializable.

use proptest::prelude::*;
use samoa_check::validate_decl;
use samoa_core::analysis::{infer_bounds, infer_m, infer_route};
use samoa_core::prelude::*;

/// A random DAG stack whose metadata is exact: handler `a` triggers event
/// `b` exactly `mult` times for every weighted edge `(a, b, mult)`, and
/// declares precisely that.
fn build_weighted_dag(n: usize, edges: &[(usize, usize, usize)]) -> (Runtime, EventType) {
    let mut b = StackBuilder::new();
    let protocols: Vec<ProtocolId> = (0..n).map(|i| b.protocol(&format!("P{i}"))).collect();
    let events: Vec<EventType> = (0..n).map(|i| b.event(&format!("E{i}"))).collect();
    for i in 0..n {
        let mut nexts = Vec::new(); // (event, multiplicity)
        let mut declared = Vec::new();
        for &(a, b2, mult) in edges {
            if a == i {
                nexts.push((events[b2], mult));
                declared.extend(std::iter::repeat_n(events[b2], mult));
            }
        }
        let p = protocols[i];
        b.bind_with_triggers(events[i], p, &format!("h{i}"), &declared, move |ctx, ev| {
            for &(next, mult) in &nexts {
                for _ in 0..mult {
                    ctx.trigger(next, ev.clone())?;
                }
            }
            Ok(())
        });
    }
    (
        Runtime::with_config(b.build(), RuntimeConfig::recording()),
        events[0],
    )
}

proptest! {
    // Each case runs three real computations; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn inferred_declarations_are_always_sufficient(
        n in 2usize..7,
        raw_edges in proptest::collection::vec((0usize..7, 0usize..7, 1usize..3), 1..12),
    ) {
        // Normalise to a weighted DAG over 0..n: forward edges only, one
        // multiplicity per edge.
        let mut edges: Vec<(usize, usize, usize)> = raw_edges
            .iter()
            .map(|&(a, b, m)| (a % n, b % n, m))
            .filter(|&(a, b, _)| a < b)
            .collect();
        edges.sort_unstable();
        edges.dedup_by_key(|e| (e.0, e.1));

        let (rt, entry) = build_weighted_dag(n, &edges);
        let stack = rt.stack().clone();
        prop_assert!(stack.has_full_trigger_metadata());

        // M-set: every reachable protocol declared, none missing.
        let m = infer_m(&stack, entry);
        prop_assert!(validate_decl(&stack, &Decl::Basic(&m), Some(entry)).is_clean());
        rt.run(Decl::Basic(&m), |ctx| ctx.trigger(entry, EventData::empty()))
            .expect("inferred M-set was insufficient");

        // Bounds: the DAG is acyclic, so path counting is exact.
        let (bounds, rep) = infer_bounds(&stack, entry);
        prop_assert!(rep.is_clean(), "unexpected diagnostics:\n{}", rep);
        prop_assert!(validate_decl(&stack, &Decl::Bound(&bounds), Some(entry)).is_clean());
        rt.run(Decl::Bound(&bounds), |ctx| ctx.trigger(entry, EventData::empty()))
            .expect("inferred bounds were insufficient");

        // Route: every traversed edge is in the pattern.
        let route = infer_route(&stack, entry);
        prop_assert!(validate_decl(&stack, &Decl::Route(&route), Some(entry)).is_clean());
        rt.run(Decl::Route(&route), |ctx| ctx.trigger(entry, EventData::empty()))
            .expect("inferred route was insufficient");

        // And the three runs together remain serializable.
        rt.check_isolation().expect("inferred declarations broke isolation");
    }
}
