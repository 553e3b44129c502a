//! Stack linting and declaration validation.
//!
//! [`lint_stack`] checks the stack itself for structural defects (`SA00x`);
//! [`validate_decl`] checks one computation declaration against the static
//! call graph — under-declaration is an Error (the computation can fail at
//! run time), over-declaration is a Warning (resources held but never
//! needed, costing parallelism).

use std::collections::BTreeSet;

use crate::analysis::callgraph::CallGraph;
use crate::analysis::diagnostics::{codes, Diagnostic, Report, Severity};
use crate::event::EventType;
use crate::handler::HandlerId;
use crate::protocol::ProtocolId;
use crate::runtime::Decl;
use crate::stack::Stack;

/// Lint a stack: structural checks over protocols, bindings and trigger
/// metadata. `external` lists the event types that can arrive from outside
/// (used for reachability, `SA002`); pass
/// [`Stack::all_events`](crate::stack::Stack::all_events) when every event
/// may be external.
pub fn lint_stack(stack: &Stack, external: &[EventType]) -> Report {
    let g = CallGraph::from_stack(stack);
    let mut r = Report::new();

    for p in stack.all_protocols() {
        let empty = (0..stack.handler_count() as u32)
            .map(HandlerId)
            .all(|h| stack.handler_protocol(h) != p);
        if empty {
            r.push(
                Diagnostic::new(
                    codes::EMPTY_PROTOCOL,
                    Severity::Warning,
                    format!(
                        "microprotocol \"{}\" has no handlers",
                        stack.protocol_name(p)
                    ),
                )
                .with_protocol(p),
            );
        }
    }

    for e in stack.all_events() {
        let bound = stack.bound_handlers(e);
        if bound.is_empty() {
            r.push(
                Diagnostic::new(
                    codes::EVENT_NO_HANDLER,
                    Severity::Warning,
                    format!(
                        "event \"{}\" has no bound handler; triggering it fails with NoHandler",
                        stack.event_name(e)
                    ),
                )
                .with_event(e),
            );
        }
        let mut seen = BTreeSet::new();
        for &h in bound {
            if !seen.insert(h) {
                r.push(
                    Diagnostic::new(
                        codes::DUPLICATE_BINDING,
                        Severity::Warning,
                        format!(
                            "handler \"{}\" is bound more than once to event \"{}\"; \
                             trigger_all calls it once per binding",
                            stack.handler_name(h),
                            stack.event_name(e)
                        ),
                    )
                    .with_handler(h)
                    .with_event(e),
                );
            }
        }
    }

    for &(h, e) in g.dangling_triggers() {
        r.push(
            Diagnostic::new(
                codes::DANGLING_TRIGGER,
                Severity::Error,
                format!(
                    "handler \"{}\" declares it triggers event \"{}\", which has no bound handler",
                    stack.handler_name(h),
                    stack.event_name(e)
                ),
            )
            .with_handler(h)
            .with_event(e),
        );
    }

    let reachable = g.reachable_from_events(external);
    for i in 0..stack.handler_count() as u32 {
        let h = HandlerId(i);
        if !reachable.contains(&h) {
            r.push(
                Diagnostic::new(
                    codes::UNREACHABLE_HANDLER,
                    Severity::Warning,
                    format!(
                        "handler \"{}\" is unreachable from every declared external event",
                        stack.handler_name(h)
                    ),
                )
                .with_handler(h),
            );
        }
    }

    for &h in g.missing_metadata() {
        r.push(
            Diagnostic::new(
                codes::MISSING_TRIGGER_META,
                Severity::Info,
                format!(
                    "handler \"{}\" has no trigger metadata; analyses assume it triggers nothing",
                    stack.handler_name(h)
                ),
            )
            .with_handler(h),
        );
    }

    r
}

/// Validate a computation declaration against the stack's call graph.
///
/// With `root = Some(e)` the computation is assumed to be rooted at an
/// external trigger of `e`, and the analysis is reachability-precise:
/// missing microprotocols / too-small bounds / missing routes are Errors
/// (`SA010`–`SA012`), superfluous ones Warnings (`SA020`–`SA022`).
///
/// With `root = None` (for a closure body, which may trigger anything)
/// only *closure* is checked: everything the
/// declared resources can transitively call must itself be declared. This
/// is conservative — a declaration tailored to a subset of a
/// microprotocol's handlers may be flagged although the computation never
/// strays.
///
/// [`Decl::Serial`] and [`Decl::Unsync`] declare nothing and always
/// validate cleanly.
pub fn validate_decl(stack: &Stack, decl: &Decl<'_>, root: Option<EventType>) -> Report {
    let g = CallGraph::from_stack(stack);
    let mut r = Report::new();
    match decl {
        Decl::Serial | Decl::Unsync => {}
        Decl::Basic(pids) => {
            let declared: BTreeSet<ProtocolId> = pids.iter().copied().collect();
            validate_m_set(&g, &declared, root, &mut r);
        }
        Decl::TwoPhase(pids) => {
            let declared: BTreeSet<ProtocolId> = pids.iter().copied().collect();
            validate_m_set(&g, &declared, root, &mut r);
        }
        Decl::Bound(entries) => {
            let declared: BTreeSet<ProtocolId> = entries.iter().map(|&(p, _)| p).collect();
            validate_m_set(&g, &declared, root, &mut r);
            if let Some(e) = root {
                validate_bounds(&g, entries, e, &mut r);
            }
        }
        Decl::Route(pattern) => validate_route(&g, pattern, root, &mut r),
    }
    r
}

/// `M`-set checks shared by `Basic`, `TwoPhase` and `Bound`.
fn validate_m_set(
    g: &CallGraph,
    declared: &BTreeSet<ProtocolId>,
    root: Option<EventType>,
    r: &mut Report,
) {
    let stack = g.stack();
    match root {
        Some(e) => {
            let needed = g.reachable_protocols(e);
            for &p in needed.difference(declared) {
                r.push(
                    Diagnostic::new(
                        codes::UNDECLARED_PROTOCOL,
                        Severity::Error,
                        format!(
                            "microprotocol \"{}\" is reachable from event \"{}\" but not declared",
                            stack.protocol_name(p),
                            stack.event_name(e)
                        ),
                    )
                    .with_protocol(p)
                    .with_event(e),
                );
            }
            for &p in declared.difference(&needed) {
                r.push(
                    Diagnostic::new(
                        codes::OVERDECLARED_PROTOCOL,
                        Severity::Warning,
                        format!(
                            "microprotocol \"{}\" is held but never reachable from event \"{}\"",
                            stack.protocol_name(p),
                            stack.event_name(e)
                        ),
                    )
                    .with_protocol(p)
                    .with_event(e),
                );
            }
        }
        None => {
            // Closure check: a handler of a declared microprotocol must only
            // call handlers of declared microprotocols.
            for i in 0..stack.handler_count() as u32 {
                let h = HandlerId(i);
                if !declared.contains(&stack.handler_protocol(h)) {
                    continue;
                }
                for &(t, _) in g.successors(h) {
                    let tp = stack.handler_protocol(t);
                    if !declared.contains(&tp) {
                        r.push(
                            Diagnostic::new(
                                codes::UNDECLARED_PROTOCOL,
                                Severity::Error,
                                format!(
                                    "declared set is not closed: handler \"{}\" may call \
                                     \"{}\" of undeclared microprotocol \"{}\"",
                                    stack.handler_name(h),
                                    stack.handler_name(t),
                                    stack.protocol_name(tp)
                                ),
                            )
                            .with_handler(t)
                            .with_protocol(tp),
                        );
                    }
                }
            }
        }
    }
}

/// Visit-bound checks for `Decl::Bound` rooted at `root`.
fn validate_bounds(g: &CallGraph, entries: &[(ProtocolId, u64)], root: EventType, r: &mut Report) {
    let stack = g.stack();
    let needed = match g.protocol_visit_counts(root) {
        Ok(n) => n,
        Err(cyclic) => {
            let names: Vec<&str> = cyclic.iter().map(|&h| stack.handler_name(h)).collect();
            r.push(Diagnostic::new(
                codes::CYCLE_BOUND_UNKNOWN,
                Severity::Warning,
                format!(
                    "call graph from event \"{}\" is cyclic (handlers {names:?}); \
                     visit bounds cannot be checked statically",
                    stack.event_name(root)
                ),
            ));
            return;
        }
    };
    // The runtime keeps the maximum bound per duplicated protocol; mirror it.
    let mut declared: Vec<Option<u64>> = vec![None; stack.protocol_count()];
    for &(p, b) in entries {
        let slot = &mut declared[p.index()];
        *slot = Some(slot.map_or(b, |old| old.max(b)));
    }
    for (i, slot) in declared.iter().enumerate() {
        let Some(bound) = *slot else { continue };
        let p = ProtocolId(i as u32);
        let need = needed[i];
        if bound < need {
            r.push(
                Diagnostic::new(
                    codes::BOUND_TOO_SMALL,
                    Severity::Error,
                    format!(
                        "declared bound {bound} for microprotocol \"{}\" is below the {need} \
                         visits reachable from event \"{}\"",
                        stack.protocol_name(p),
                        stack.event_name(root)
                    ),
                )
                .with_protocol(p)
                .with_event(root),
            );
        } else if bound > need && need > 0 {
            r.push(
                Diagnostic::new(
                    codes::BOUND_SLACK,
                    Severity::Warning,
                    format!(
                        "declared bound {bound} for microprotocol \"{}\" exceeds the {need} \
                         visits reachable from event \"{}\"; the slack delays release",
                        stack.protocol_name(p),
                        stack.event_name(root)
                    ),
                )
                .with_protocol(p)
                .with_event(root),
            );
        }
    }
}

/// Routing-pattern checks for `Decl::Route`.
fn validate_route(
    g: &CallGraph,
    pattern: &crate::graph::RoutePattern,
    root: Option<EventType>,
    r: &mut Report,
) {
    let stack = g.stack();
    let vertices = pattern.vertices();
    let declared_edges: BTreeSet<(HandlerId, HandlerId)> = pattern.edges.iter().copied().collect();
    let declared_roots: BTreeSet<HandlerId> = pattern.roots.iter().copied().collect();

    let relevant: BTreeSet<HandlerId> = match root {
        Some(e) => {
            // Roots: every handler the external trigger may call directly.
            for &h in stack.bound_handlers(e) {
                if !declared_roots.contains(&h) {
                    r.push(
                        Diagnostic::new(
                            codes::MISSING_ROUTE,
                            Severity::Error,
                            format!(
                                "handler \"{}\" is bound to root event \"{}\" but is not a \
                                 declared root of the pattern",
                                stack.handler_name(h),
                                stack.event_name(e)
                            ),
                        )
                        .with_handler(h)
                        .with_event(e),
                    );
                }
            }
            let reachable = g.reachable_from_event(e);
            for &v in vertices.difference(&reachable) {
                r.push(
                    Diagnostic::new(
                        codes::DEAD_ROUTE_VERTEX,
                        Severity::Warning,
                        format!(
                            "pattern vertex \"{}\" (microprotocol \"{}\") is never reachable \
                             from event \"{}\"; it is held for nothing",
                            stack.handler_name(v),
                            stack.protocol_name(stack.handler_protocol(v)),
                            stack.event_name(e)
                        ),
                    )
                    .with_handler(v)
                    .with_event(e),
                );
            }
            reachable
        }
        // Closure check: only the declared vertices themselves.
        None => vertices.clone(),
    };

    for &h in &relevant {
        for &(t, _) in g.successors(h) {
            if !declared_edges.contains(&(h, t)) {
                r.push(
                    Diagnostic::new(
                        codes::MISSING_ROUTE,
                        Severity::Error,
                        format!(
                            "handler \"{}\" may call \"{}\" but the pattern has no such edge",
                            stack.handler_name(h),
                            stack.handler_name(t)
                        ),
                    )
                    .with_handler(t),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::Ctx;
    use crate::error::Result;
    use crate::event::EventData;
    use crate::graph::RoutePattern;
    use crate::stack::StackBuilder;

    fn noop() -> impl Fn(&Ctx<'_>, &EventData) -> Result<()> + Send + Sync + 'static {
        |_, _| Ok(())
    }

    /// root -> a(P) -> {eb, eb} -> b(Q) -> ec -> c(R)
    fn chain() -> (Stack, EventType, [HandlerId; 3], [ProtocolId; 3]) {
        let mut bld = StackBuilder::new();
        let pp = bld.protocol("P");
        let pq = bld.protocol("Q");
        let pr = bld.protocol("R");
        let root = bld.event("root");
        let eb = bld.event("eb");
        let ec = bld.event("ec");
        let a = bld.bind_with_triggers(root, pp, "a", &[eb, eb], noop());
        let b = bld.bind_with_triggers(eb, pq, "b", &[ec], noop());
        let c = bld.bind_with_triggers(ec, pr, "c", &[], noop());
        (bld.build(), root, [a, b, c], [pp, pq, pr])
    }

    fn codes_of(r: &Report) -> Vec<&'static str> {
        r.diagnostics().iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_stack_lints_clean() {
        let (s, root, _, _) = chain();
        let r = lint_stack(&s, &[root]);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn lint_finds_structural_defects() {
        let mut bld = StackBuilder::new();
        let p = bld.protocol("P");
        let _empty = bld.protocol("Empty"); // SA003
        let root = bld.event("root");
        let ghost = bld.event("ghost"); // SA001 (no binding)
        let h = bld.bind_with_triggers(root, p, "h", &[ghost], noop()); // SA005
        bld.bind_existing(root, h); // SA004
        bld.bind(root, p, "nometa", noop()); // SA006
        let s = bld.build();
        let r = lint_stack(&s, &[root]);
        let codes = codes_of(&r);
        assert!(codes.contains(&codes::EMPTY_PROTOCOL), "{r}");
        assert!(codes.contains(&codes::EVENT_NO_HANDLER), "{r}");
        assert!(codes.contains(&codes::DUPLICATE_BINDING), "{r}");
        assert!(codes.contains(&codes::DANGLING_TRIGGER), "{r}");
        assert!(codes.contains(&codes::MISSING_TRIGGER_META), "{r}");
        assert!(r.has_errors()); // SA005 is the only Error
        assert_eq!(r.count(Severity::Error), 1);
    }

    #[test]
    fn lint_reports_unreachable_handlers() {
        let mut bld = StackBuilder::new();
        let p = bld.protocol("P");
        let root = bld.event("root");
        let island = bld.event("island");
        bld.bind_with_triggers(root, p, "a", &[], noop());
        let b = bld.bind_with_triggers(island, p, "b", &[], noop());
        let s = bld.build();
        let r = lint_stack(&s, &[root]);
        assert_eq!(codes_of(&r), vec![codes::UNREACHABLE_HANDLER]);
        assert_eq!(r.diagnostics()[0].handler, Some(b));
        // With every event external, nothing is unreachable.
        assert!(lint_stack(&s, &s.all_events()).is_clean());
    }

    #[test]
    fn under_declared_m_is_error() {
        let (s, root, _, [pp, pq, _pr]) = chain();
        let r = validate_decl(&s, &Decl::Basic(&[pp, pq]), Some(root));
        assert!(r.has_errors(), "{r}");
        let d = &r.diagnostics()[0];
        assert_eq!(d.code, codes::UNDECLARED_PROTOCOL);
        assert!(d.message.contains("\"R\""), "{}", d.message);
    }

    #[test]
    fn over_declared_m_is_warning_naming_protocol() {
        let mut bld = StackBuilder::new();
        let p = bld.protocol("P");
        let spare = bld.protocol("Spare");
        let root = bld.event("root");
        bld.bind_with_triggers(root, p, "a", &[], noop());
        let other = bld.event("other");
        bld.bind_with_triggers(other, spare, "s", &[], noop());
        let s = bld.build();
        let r = validate_decl(&s, &Decl::Basic(&[p, spare]), Some(root));
        assert!(!r.has_errors(), "{r}");
        let d = &r.diagnostics()[0];
        assert_eq!(d.code, codes::OVERDECLARED_PROTOCOL);
        assert_eq!(d.severity, Severity::Warning);
        assert!(
            d.message.contains("\"Spare\"") && d.message.contains("never reachable"),
            "{}",
            d.message
        );
    }

    #[test]
    fn exact_declaration_validates_clean() {
        let (s, root, _, [pp, pq, pr]) = chain();
        assert!(validate_decl(&s, &Decl::Basic(&[pp, pq, pr]), Some(root)).is_clean());
        let bounds = [(pp, 1), (pq, 2), (pr, 2)];
        assert!(validate_decl(&s, &Decl::Bound(&bounds), Some(root)).is_clean());
    }

    #[test]
    fn too_small_bound_is_error_slack_is_warning() {
        let (s, root, _, [pp, pq, pr]) = chain();
        let small = [(pp, 1), (pq, 1), (pr, 2)]; // Q needs 2
        let r = validate_decl(&s, &Decl::Bound(&small), Some(root));
        assert_eq!(codes_of(&r), vec![codes::BOUND_TOO_SMALL]);
        assert!(r.has_errors());
        let slack = [(pp, 1), (pq, 5), (pr, 2)];
        let r = validate_decl(&s, &Decl::Bound(&slack), Some(root));
        assert_eq!(codes_of(&r), vec![codes::BOUND_SLACK]);
        assert!(!r.has_errors());
    }

    #[test]
    fn cyclic_graph_bound_check_warns() {
        let mut bld = StackBuilder::new();
        let p = bld.protocol("P");
        let root = bld.event("root");
        let e1 = bld.event("e1");
        bld.bind_with_triggers(root, p, "a", &[e1], noop());
        bld.bind_with_triggers(e1, p, "b", &[e1], noop());
        let s = bld.build();
        let r = validate_decl(&s, &Decl::Bound(&[(p, 10)]), Some(root));
        assert_eq!(codes_of(&r), vec![codes::CYCLE_BOUND_UNKNOWN]);
        assert!(!r.has_errors());
    }

    #[test]
    fn route_missing_edge_and_root_are_errors() {
        let (s, root, [a, b, c], _) = chain();
        // Missing the b -> c edge.
        let pat = RoutePattern::new().root(a).edge(a, b);
        let r = validate_decl(&s, &Decl::Route(&pat), Some(root));
        assert_eq!(codes_of(&r), vec![codes::MISSING_ROUTE]);
        // Missing the root itself.
        let pat = RoutePattern::new().edge(a, b).edge(b, c);
        let r = validate_decl(&s, &Decl::Route(&pat), Some(root));
        assert!(codes_of(&r).contains(&codes::MISSING_ROUTE), "{r}");
        // Complete pattern is clean.
        let pat = RoutePattern::new().root(a).edge(a, b).edge(b, c);
        assert!(validate_decl(&s, &Decl::Route(&pat), Some(root)).is_clean());
    }

    #[test]
    fn route_dead_vertex_is_warning() {
        let mut bld = StackBuilder::new();
        let p = bld.protocol("P");
        let root = bld.event("root");
        let other = bld.event("other");
        let a = bld.bind_with_triggers(root, p, "a", &[], noop());
        let d = bld.bind_with_triggers(other, p, "dead", &[], noop());
        let s = bld.build();
        let pat = RoutePattern::new().root(a).root(d);
        let r = validate_decl(&s, &Decl::Route(&pat), Some(root));
        assert_eq!(codes_of(&r), vec![codes::DEAD_ROUTE_VERTEX]);
        assert!(!r.has_errors());
    }

    #[test]
    fn closure_mode_flags_unclosed_m_set() {
        let (s, _, _, [pp, pq, pr]) = chain();
        // P may call Q (undeclared) -> error; {P, Q, R} is closed -> clean.
        let r = validate_decl(&s, &Decl::Basic(&[pp]), None);
        assert_eq!(codes_of(&r), vec![codes::UNDECLARED_PROTOCOL]);
        assert!(validate_decl(&s, &Decl::Basic(&[pp, pq, pr]), None).is_clean());
        // Leaf-only declarations are closed too.
        assert!(validate_decl(&s, &Decl::Basic(&[pr]), None).is_clean());
    }

    #[test]
    fn serial_and_unsync_always_clean() {
        let (s, root, _, _) = chain();
        assert!(validate_decl(&s, &Decl::Serial, Some(root)).is_clean());
        assert!(validate_decl(&s, &Decl::Unsync, None).is_clean());
    }
}
