//! Inference of minimal declarations from the static call graph.
//!
//! Given a stack with trigger metadata and the event a computation is
//! rooted at, these functions synthesise the smallest declaration each
//! `isolated` variant accepts: the reachable `M`-set ([`infer_m`]), the
//! worst-case visit bounds ([`infer_bounds`]), and the routing pattern
//! ([`infer_route`]). Because the call graph over-approximates run-time
//! behaviour, inferred declarations are always *sufficient* — a computation
//! that triggers only `root` can never fail with `UndeclaredProtocol`,
//! `BoundExhausted` or `NoRoute` under them.

use crate::analysis::callgraph::{CallGraph, CYCLE_FALLBACK_BOUND};
use crate::analysis::diagnostics::{codes, Diagnostic, Report, Severity};
use crate::event::EventType;
use crate::graph::RoutePattern;
use crate::protocol::ProtocolId;
use crate::stack::Stack;

/// The minimal `M`-set for an `isolated M` computation rooted at `root`:
/// the microprotocols of every reachable handler, in id order.
pub fn infer_m(stack: &Stack, root: EventType) -> Vec<ProtocolId> {
    CallGraph::from_stack(stack)
        .reachable_protocols(root)
        .into_iter()
        .collect()
}

/// The minimal visit bounds for an `isolated bound` computation rooted at
/// `root`: each reachable microprotocol with its worst-case visit count —
/// [`CYCLE_FALLBACK_BOUND`] for those below a fan-out edge.
///
/// If the reachable call graph is cyclic, no finite worst case exists; the
/// returned [`Report`] carries an `SA030` Warning and every reachable
/// microprotocol gets [`CYCLE_FALLBACK_BOUND`]. Acyclic graphs return a
/// clean report.
pub fn infer_bounds(stack: &Stack, root: EventType) -> (Vec<(ProtocolId, u64)>, Report) {
    let g = CallGraph::from_stack(stack);
    let mut report = Report::new();
    match g.protocol_visit_counts(root) {
        Ok(counts) => {
            let bounds = counts
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(i, &c)| (ProtocolId(i as u32), c))
                .collect();
            (bounds, report)
        }
        Err(cyclic) => {
            let names: Vec<&str> = cyclic.iter().map(|&h| stack.handler_name(h)).collect();
            report.push(Diagnostic::new(
                codes::CYCLE_BOUND_UNKNOWN,
                Severity::Warning,
                format!(
                    "call graph from event \"{}\" is cyclic (handlers {names:?}); \
                     falling back to bound {CYCLE_FALLBACK_BOUND} for every reachable \
                     microprotocol",
                    stack.event_name(root)
                ),
            ));
            let bounds = g
                .reachable_protocols(root)
                .into_iter()
                .map(|p| (p, CYCLE_FALLBACK_BOUND))
                .collect();
            (bounds, report)
        }
    }
}

/// The minimal routing pattern for an `isolated route` computation rooted
/// at `root`: every handler bound to `root` becomes a pattern root, and
/// every call edge between reachable handlers becomes a pattern edge.
pub fn infer_route(stack: &Stack, root: EventType) -> RoutePattern {
    let g = CallGraph::from_stack(stack);
    let mut pat = RoutePattern::new();
    for &h in stack.bound_handlers(root) {
        pat = pat.root(h);
    }
    for &h in &g.reachable_from_event(root) {
        for &(t, _) in g.successors(h) {
            pat = pat.edge(h, t);
        }
    }
    pat
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::Ctx;
    use crate::error::Result;
    use crate::event::EventData;
    use crate::handler::HandlerId;
    use crate::runtime::Decl;
    use crate::stack::StackBuilder;

    fn noop() -> impl Fn(&Ctx<'_>, &EventData) -> Result<()> + Send + Sync + 'static {
        |_, _| Ok(())
    }

    /// root -> a(P) -> {eb x2} -> b(Q) -> ec -> c(R); d(S) on an island.
    fn stack() -> (Stack, EventType, [HandlerId; 4], [ProtocolId; 4]) {
        let mut bld = StackBuilder::new();
        let pp = bld.protocol("P");
        let pq = bld.protocol("Q");
        let pr = bld.protocol("R");
        let ps = bld.protocol("S");
        let root = bld.event("root");
        let eb = bld.event("eb");
        let ec = bld.event("ec");
        let island = bld.event("island");
        let a = bld.bind_with_triggers(root, pp, "a", &[eb, eb], noop());
        let b = bld.bind_with_triggers(eb, pq, "b", &[ec], noop());
        let c = bld.bind_with_triggers(ec, pr, "c", &[], noop());
        let d = bld.bind_with_triggers(island, ps, "d", &[], noop());
        (bld.build(), root, [a, b, c, d], [pp, pq, pr, ps])
    }

    #[test]
    fn infer_m_is_exactly_the_reachable_protocols() {
        let (s, root, _, [pp, pq, pr, _ps]) = stack();
        assert_eq!(infer_m(&s, root), vec![pp, pq, pr]);
    }

    #[test]
    fn infer_bounds_counts_worst_case_visits() {
        let (s, root, _, [pp, pq, pr, _ps]) = stack();
        let (bounds, report) = infer_bounds(&s, root);
        assert!(report.is_clean(), "{report}");
        assert_eq!(bounds, vec![(pp, 1), (pq, 2), (pr, 2)]);
    }

    #[test]
    fn infer_bounds_cycle_falls_back() {
        let mut bld = StackBuilder::new();
        let p = bld.protocol("P");
        let root = bld.event("root");
        let e1 = bld.event("e1");
        bld.bind_with_triggers(root, p, "a", &[e1], noop());
        bld.bind_with_triggers(e1, p, "b", &[e1], noop());
        let s = bld.build();
        let (bounds, report) = infer_bounds(&s, root);
        assert_eq!(bounds, vec![(p, CYCLE_FALLBACK_BOUND)]);
        assert_eq!(report.diagnostics().len(), 1);
        assert_eq!(report.diagnostics()[0].code, codes::CYCLE_BOUND_UNKNOWN);
    }

    #[test]
    fn infer_route_covers_roots_and_edges() {
        let (s, root, [a, b, c, d], _) = stack();
        let pat = infer_route(&s, root);
        assert_eq!(
            pat.vertices().into_iter().collect::<Vec<_>>(),
            vec![a, b, c]
        );
        assert!(!pat.vertices().contains(&d));
    }

    #[test]
    fn inferred_declarations_execute() {
        use crate::runtime::Runtime;
        // A stack that actually triggers what it declares.
        let mut bld = StackBuilder::new();
        let pp = bld.protocol("P");
        let pq = bld.protocol("Q");
        let root = bld.event("root");
        let eb = bld.event("eb");
        bld.bind_with_triggers(eb, pq, "b", &[], noop());
        bld.bind_with_triggers(root, pp, "a", &[eb, eb], move |ctx, _| {
            ctx.trigger(eb, EventData::empty())?;
            ctx.trigger(eb, EventData::empty())
        });
        let s = bld.build();
        let rt = Runtime::new(s.clone());
        let m = infer_m(&s, root);
        rt.run(Decl::Basic(&m), |ctx| ctx.trigger(root, EventData::empty()))
            .unwrap();
        let (bounds, _) = infer_bounds(&s, root);
        rt.run(Decl::Bound(&bounds), |ctx| {
            ctx.trigger(root, EventData::empty())
        })
        .unwrap();
        let pat = infer_route(&s, root);
        rt.run(Decl::Route(&pat), |ctx| {
            ctx.trigger(root, EventData::empty())
        })
        .unwrap();
    }
}
