//! The static handler-level call graph of a stack.
//!
//! Built from the trigger metadata declared with
//! [`StackBuilder::declare_triggers`](crate::stack::StackBuilder::declare_triggers):
//! a handler that declares it may trigger event `e` has a call edge to every
//! handler bound to `e`, weighted by the declared per-invocation
//! multiplicity — [`CYCLE_FALLBACK_BOUND`] for a fan-out
//! ([`StackBuilder::declare_fan_out`](crate::stack::StackBuilder::declare_fan_out)).
//! The graph over-approximates `trigger` (which calls exactly
//! one handler) and is exact for `trigger_all`, so everything derived from
//! it — reachability, visit counts, routing edges — is an upper bound on
//! run-time behaviour, which is precisely what declarations must be.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::event::EventType;
use crate::handler::HandlerId;
use crate::protocol::ProtocolId;
use crate::stack::Stack;

/// The visit bound of a microprotocol no finite count is known for: below a
/// fan-out edge, or anywhere in a cyclic call graph. Deliberately far below
/// `u64::MAX`: the runtime *adds* bounds to global version counters on every
/// spawn, so the fallback must leave room for billions of spawns without
/// overflowing. Visit counts saturate here.
pub const CYCLE_FALLBACK_BOUND: u64 = 1 << 20;

/// The static call graph of a [`Stack`], derived from trigger metadata.
#[derive(Debug, Clone)]
pub struct CallGraph {
    stack: Stack,
    /// `succ[h] = (callee, per-invocation multiplicity)`, one entry per
    /// (declared event, bound handler) pair.
    succ: Vec<Vec<(HandlerId, u64)>>,
    /// Handlers with no trigger metadata (treated as triggering nothing).
    missing_meta: Vec<HandlerId>,
    /// `(handler, event)` pairs where the handler declares triggering an
    /// event with no bound handler.
    dangling: Vec<(HandlerId, EventType)>,
}

impl CallGraph {
    /// Build the call graph of `stack` from its trigger metadata.
    pub fn from_stack(stack: &Stack) -> CallGraph {
        let n = stack.handler_count();
        let mut succ: Vec<Vec<(HandlerId, u64)>> = vec![Vec::new(); n];
        let mut missing_meta = Vec::new();
        let mut dangling = Vec::new();
        for i in 0..n as u32 {
            let h = HandlerId(i);
            let Some(events) = stack.handler_triggers(h) else {
                missing_meta.push(h);
                continue;
            };
            let mut multiplicity: BTreeMap<EventType, u64> = BTreeMap::new();
            for &e in events {
                *multiplicity.entry(e).or_insert(0) += 1;
            }
            for &e in stack.handler_fan_outs(h) {
                multiplicity.insert(e, CYCLE_FALLBACK_BOUND);
            }
            for (e, k) in multiplicity {
                let targets = stack.bound_handlers(e);
                if targets.is_empty() {
                    dangling.push((h, e));
                }
                for &t in targets {
                    succ[h.index()].push((t, k));
                }
            }
        }
        CallGraph {
            stack: stack.clone(),
            succ,
            missing_meta,
            dangling,
        }
    }

    /// The stack this graph was built from.
    pub fn stack(&self) -> &Stack {
        &self.stack
    }

    /// The handlers `h` may call, with per-invocation multiplicities.
    pub fn successors(&self, h: HandlerId) -> &[(HandlerId, u64)] {
        &self.succ[h.index()]
    }

    /// Handlers lacking trigger metadata (analyses treat them as leaves).
    pub fn missing_metadata(&self) -> &[HandlerId] {
        &self.missing_meta
    }

    /// `(handler, event)` pairs where a declared trigger has no bound
    /// handler — a guaranteed `NoHandler` error if the trigger ever fires.
    pub fn dangling_triggers(&self) -> &[(HandlerId, EventType)] {
        &self.dangling
    }

    /// All handlers reachable when `root` is triggered externally.
    pub fn reachable_from_event(&self, root: EventType) -> BTreeSet<HandlerId> {
        self.reachable_from_events(&[root])
    }

    /// All handlers reachable when any of `roots` is triggered externally.
    pub fn reachable_from_events(&self, roots: &[EventType]) -> BTreeSet<HandlerId> {
        let mut seen = BTreeSet::new();
        let mut queue: VecDeque<HandlerId> = VecDeque::new();
        for &e in roots {
            for &h in self.stack.bound_handlers(e) {
                if seen.insert(h) {
                    queue.push_back(h);
                }
            }
        }
        while let Some(h) = queue.pop_front() {
            for &(t, _) in self.successors(h) {
                if seen.insert(t) {
                    queue.push_back(t);
                }
            }
        }
        seen
    }

    /// The microprotocols of every handler reachable from `root` — the
    /// minimal `M`-set an `isolated M` computation rooted there needs.
    pub fn reachable_protocols(&self, root: EventType) -> BTreeSet<ProtocolId> {
        self.reachable_from_event(root)
            .into_iter()
            .map(|h| self.stack.handler_protocol(h))
            .collect()
    }

    /// Per-handler worst-case call counts when `root` is triggered once
    /// externally, indexed by handler (`0` for unreachable handlers).
    ///
    /// Path-counting dynamic programming over the reachable subgraph in
    /// topological order: each call of `h` contributes `multiplicity` calls
    /// along every out-edge. Counts saturate at [`CYCLE_FALLBACK_BOUND`], so
    /// every handler below a fan-out edge gets exactly that.
    ///
    /// # Errors
    ///
    /// If the reachable subgraph is cyclic no finite worst case exists;
    /// returns the handlers involved in (or downstream of) cycles.
    pub fn visit_counts(&self, root: EventType) -> std::result::Result<Vec<u64>, Vec<HandlerId>> {
        let reach = self.reachable_from_event(root);
        let n = self.stack.handler_count();
        let mut indeg = vec![0usize; n];
        for &h in &reach {
            for &(t, _) in self.successors(h) {
                indeg[t.index()] += 1;
            }
        }
        let mut counts = vec![0u64; n];
        for &h in self.stack.bound_handlers(root) {
            counts[h.index()] = counts[h.index()].saturating_add(1);
        }
        let mut queue: VecDeque<HandlerId> = reach
            .iter()
            .copied()
            .filter(|h| indeg[h.index()] == 0)
            .collect();
        let mut processed = BTreeSet::new();
        while let Some(h) = queue.pop_front() {
            processed.insert(h);
            for &(t, k) in self.successors(h) {
                counts[t.index()] = counts[t.index()]
                    .saturating_add(counts[h.index()].saturating_mul(k))
                    .min(CYCLE_FALLBACK_BOUND);
                indeg[t.index()] -= 1;
                if indeg[t.index()] == 0 {
                    queue.push_back(t);
                }
            }
        }
        if processed.len() == reach.len() {
            Ok(counts)
        } else {
            Err(reach.difference(&processed).copied().collect())
        }
    }

    /// Per-microprotocol worst-case visit counts when `root` is triggered
    /// once externally, indexed by microprotocol (`0` when unreachable):
    /// the sum of [`visit_counts`](CallGraph::visit_counts) over each
    /// microprotocol's handlers, i.e. the minimal sufficient `isolated
    /// bound` declaration.
    ///
    /// # Errors
    ///
    /// Cyclic reachable subgraph, as for [`visit_counts`](CallGraph::visit_counts).
    pub fn protocol_visit_counts(
        &self,
        root: EventType,
    ) -> std::result::Result<Vec<u64>, Vec<HandlerId>> {
        let per_handler = self.visit_counts(root)?;
        let mut per_protocol = vec![0u64; self.stack.protocol_count()];
        for (i, &c) in per_handler.iter().enumerate() {
            let p = self.stack.handler_protocol(HandlerId(i as u32));
            per_protocol[p.index()] = (per_protocol[p.index()] + c).min(CYCLE_FALLBACK_BOUND);
        }
        Ok(per_protocol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::Ctx;
    use crate::error::Result;
    use crate::event::EventData;
    use crate::stack::StackBuilder;

    fn noop() -> impl Fn(&Ctx<'_>, &EventData) -> Result<()> + Send + Sync + 'static {
        |_, _| Ok(())
    }

    /// root -> a -> {b, b} -> c   (a calls b twice; b calls c once)
    fn diamond() -> (Stack, EventType, [HandlerId; 3], [ProtocolId; 3]) {
        let mut bld = StackBuilder::new();
        let pa = bld.protocol("A");
        let pb = bld.protocol("B");
        let pc = bld.protocol("C");
        let root = bld.event("root");
        let eb = bld.event("eb");
        let ec = bld.event("ec");
        let a = bld.bind_with_triggers(root, pa, "a", &[eb, eb], noop());
        let b = bld.bind_with_triggers(eb, pb, "b", &[ec], noop());
        let c = bld.bind_with_triggers(ec, pc, "c", &[], noop());
        (bld.build(), root, [a, b, c], [pa, pb, pc])
    }

    #[test]
    fn successors_carry_multiplicity() {
        let (s, _, [a, b, c], _) = diamond();
        let g = CallGraph::from_stack(&s);
        assert_eq!(g.successors(a), &[(b, 2)]);
        assert_eq!(g.successors(b), &[(c, 1)]);
        assert!(g.successors(c).is_empty());
        assert!(g.missing_metadata().is_empty());
        assert!(g.dangling_triggers().is_empty());
    }

    #[test]
    fn reachability_and_protocols() {
        let (s, root, [a, b, c], [pa, pb, pc]) = diamond();
        let g = CallGraph::from_stack(&s);
        let r = g.reachable_from_event(root);
        assert_eq!(r.into_iter().collect::<Vec<_>>(), vec![a, b, c]);
        assert_eq!(
            g.reachable_protocols(root).into_iter().collect::<Vec<_>>(),
            vec![pa, pb, pc]
        );
    }

    #[test]
    fn visit_counts_multiply_along_paths() {
        let (s, root, [a, b, c], [pa, pb, pc]) = diamond();
        let g = CallGraph::from_stack(&s);
        let counts = g.visit_counts(root).unwrap();
        assert_eq!(counts[a.index()], 1);
        assert_eq!(counts[b.index()], 2);
        assert_eq!(counts[c.index()], 2);
        let per_p = g.protocol_visit_counts(root).unwrap();
        assert_eq!(per_p[pa.index()], 1);
        assert_eq!(per_p[pb.index()], 2);
        assert_eq!(per_p[pc.index()], 2);
    }

    #[test]
    fn cycle_is_reported() {
        let mut bld = StackBuilder::new();
        let p = bld.protocol("P");
        let root = bld.event("root");
        let e1 = bld.event("e1");
        let e2 = bld.event("e2");
        let a = bld.bind_with_triggers(root, p, "a", &[e1], noop());
        let b = bld.bind_with_triggers(e1, p, "b", &[e2], noop());
        let c = bld.bind_with_triggers(e2, p, "c", &[e1], noop());
        let s = bld.build();
        let g = CallGraph::from_stack(&s);
        let cyclic = g.visit_counts(root).unwrap_err();
        assert!(cyclic.contains(&b) && cyclic.contains(&c), "{cyclic:?}");
        assert!(!cyclic.contains(&a), "{cyclic:?}");
    }

    #[test]
    fn missing_metadata_and_dangling_triggers() {
        let mut bld = StackBuilder::new();
        let p = bld.protocol("P");
        let root = bld.event("root");
        let ghost = bld.event("ghost");
        let a = bld.bind_with_triggers(root, p, "a", &[ghost], noop());
        let b = bld.bind(root, p, "b", noop());
        let s = bld.build();
        let g = CallGraph::from_stack(&s);
        assert_eq!(g.missing_metadata(), &[b]);
        assert_eq!(g.dangling_triggers(), &[(a, ghost)]);
    }

    /// root -> a -(fan-out)-> b -> c, and a -> d once: only what lies below
    /// the fan-out edge saturates.
    #[test]
    fn only_what_lies_below_a_fan_out_saturates() {
        let mut bld = StackBuilder::new();
        let (pa, pb, pc, pd) = (
            bld.protocol("A"),
            bld.protocol("B"),
            bld.protocol("C"),
            bld.protocol("D"),
        );
        let (root, eb, ec, ed) = (
            bld.event("root"),
            bld.event("eb"),
            bld.event("ec"),
            bld.event("ed"),
        );
        let a = bld.bind_with_triggers(root, pa, "a", &[ed], noop());
        bld.declare_fan_out(a, &[eb]);
        let b = bld.bind_with_triggers(eb, pb, "b", &[ec, ec], noop());
        bld.declare_fan_out(b, &[ec]);
        bld.bind_with_triggers(ec, pc, "c", &[], noop());
        bld.bind_with_triggers(ed, pd, "d", &[], noop());
        let g = CallGraph::from_stack(&bld.build());
        let per_p = g.protocol_visit_counts(root).unwrap();
        assert_eq!(per_p[pa.index()], 1);
        assert_eq!(per_p[pb.index()], CYCLE_FALLBACK_BOUND);
        assert_eq!(per_p[pc.index()], CYCLE_FALLBACK_BOUND);
        assert_eq!(per_p[pd.index()], 1);
    }

    #[test]
    fn trigger_all_fanout_counts_every_binding() {
        let mut bld = StackBuilder::new();
        let p = bld.protocol("P");
        let q = bld.protocol("Q");
        let root = bld.event("root");
        let fan = bld.event("fan");
        let a = bld.bind_with_triggers(root, p, "a", &[fan], noop());
        let b = bld.bind_with_triggers(fan, p, "b", &[], noop());
        let c = bld.bind_with_triggers(fan, q, "c", &[], noop());
        let s = bld.build();
        let g = CallGraph::from_stack(&s);
        assert_eq!(g.successors(a), &[(b, 1), (c, 1)]);
        let counts = g.visit_counts(root).unwrap();
        assert_eq!(counts[b.index()], 1);
        assert_eq!(counts[c.index()], 1);
    }
}
