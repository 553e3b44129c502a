//! The static per-pair conflict matrix over microprotocols.
//!
//! Two computations contend on a microprotocol's cell — the `(gv_p, lv_p)`
//! version counters, or the 2PL lock slot, depending on the
//! [`Policy`]'s
//! [`CellKind`](crate::policy::CellKind) — only if both declare
//! it, and a well-declared computation declares exactly the footprint
//! reachable from its root event ([`infer_m`](crate::analysis::infer_m)).
//! So whether protocols `p` and `q` can *ever* meet is decidable from the
//! analyzed root events alone: it requires roots `e1`, `e2` whose
//! footprints contain `p` resp. `q` **and overlap** (disjoint footprints
//! admit no Rule-2 wait between the two computations, hence no contention
//! ordering either).
//!
//! [`ConflictMatrix::analyze`] computes that relation and reports
//!
//! * `SA050` (Warning): a microprotocol has handlers, but no analyzed root
//!   reaches it — a bound or lock on it can be declared, yet no schedule
//!   can contend there;
//! * `SA051` (Info): a microprotocol never shares a footprint with any
//!   other — it can only ever conflict with a second computation on
//!   *itself*, so isolating it against the rest of the stack buys nothing.
//!
//! The complement of the matrix is exported to the dynamic checker as a
//! `StaticIndependence` relation (crate `samoa-check`): resource pairs
//! whose protocols can never conflict need never seed DPOR backtrack
//! points.

use std::collections::BTreeSet;

use crate::analysis::callgraph::CallGraph;
use crate::analysis::diagnostics::{codes, Diagnostic, Report, Severity};
use crate::event::EventType;
use crate::handler::HandlerId;
use crate::policy::Policy;
use crate::protocol::ProtocolId;
use crate::stack::Stack;

/// The symmetric may-conflict relation over a stack's microprotocols,
/// derived from the footprints of the analyzed root events.
#[derive(Debug, Clone)]
pub struct ConflictMatrix {
    n: usize,
    /// Row-major symmetric bit matrix; `conflict[p * n + q]` = some pair of
    /// computations rooted at analyzed events can contend with one touching
    /// `p` and the other touching `q`.
    conflict: Vec<bool>,
    /// `coupled[p * n + q]` = one single root's footprint contains both.
    coupled: Vec<bool>,
    /// `reached[p]` = at least one analyzed root reaches `p`.
    reached: Vec<bool>,
    /// Per analyzed root: its statically inferred footprint.
    footprints: Vec<(EventType, BTreeSet<ProtocolId>)>,
}

impl ConflictMatrix {
    /// Analyze `stack` with computations rooted at `externals`, returning
    /// the matrix and the `SA05x` report. Pass
    /// [`Stack::all_events`](crate::stack::Stack::all_events) when every
    /// event may arrive externally (the conservative default `samoa-lint`
    /// uses).
    pub fn analyze(stack: &Stack, externals: &[EventType]) -> (ConflictMatrix, Report) {
        let g = CallGraph::from_stack(stack);
        let n = stack.protocol_count();
        let mut seen_roots = BTreeSet::new();
        let mut footprints: Vec<(EventType, BTreeSet<ProtocolId>)> = Vec::new();
        for &e in externals {
            if seen_roots.insert(e) {
                footprints.push((e, g.reachable_protocols(e)));
            }
        }

        let mut m = ConflictMatrix {
            n,
            conflict: vec![false; n * n],
            coupled: vec![false; n * n],
            reached: vec![false; n],
            footprints,
        };
        for (_, f) in &m.footprints {
            for &p in f {
                m.reached[p.index()] = true;
            }
        }
        for i in 0..m.footprints.len() {
            for j in i..m.footprints.len() {
                let (fi, fj) = (&m.footprints[i].1, &m.footprints[j].1);
                if fi.intersection(fj).next().is_none() {
                    continue;
                }
                for &p in fi {
                    for &q in fj {
                        m.conflict[p.index() * n + q.index()] = true;
                        m.conflict[q.index() * n + p.index()] = true;
                        if i == j {
                            m.coupled[p.index() * n + q.index()] = true;
                            m.coupled[q.index() * n + p.index()] = true;
                        }
                    }
                }
            }
        }

        let mut r = Report::new();
        for pi in 0..n as u32 {
            let p = ProtocolId(pi);
            let has_handlers = (0..stack.handler_count() as u32)
                .map(HandlerId)
                .any(|h| stack.handler_protocol(h) == p);
            if !has_handlers {
                continue; // SA003's territory.
            }
            if !m.reached[p.index()] {
                r.push(
                    Diagnostic::new(
                        codes::UNREACHABLE_CONFLICT,
                        Severity::Warning,
                        format!(
                            "microprotocol \"{}\" is unreachable from every analyzed root \
                             event: a bound or lock declared on it can never contend",
                            stack.protocol_name(p)
                        ),
                    )
                    .with_protocol(p),
                );
            } else if m
                .footprints
                .iter()
                .all(|(_, f)| !f.contains(&p) || f.len() == 1)
            {
                r.push(
                    Diagnostic::new(
                        codes::CONFLICT_FREE_PROTOCOL,
                        Severity::Info,
                        format!(
                            "microprotocol \"{}\" never shares a computation footprint with \
                             any other microprotocol; it can only contend with itself",
                            stack.protocol_name(p)
                        ),
                    )
                    .with_protocol(p),
                );
            }
        }
        (m, r)
    }

    /// Number of microprotocols the matrix covers.
    pub fn protocol_count(&self) -> usize {
        self.n
    }

    /// Can computations touching `p` and `q` ever contend — i.e. exist two
    /// analyzed roots with overlapping footprints covering `p` resp. `q`?
    /// `may_conflict(p, p)` is true iff any root reaches `p` (two spawns of
    /// the same root always contend on their shared footprint).
    pub fn may_conflict(&self, p: ProtocolId, q: ProtocolId) -> bool {
        self.conflict[p.index() * self.n + q.index()]
    }

    /// [`ConflictMatrix::may_conflict`] by raw protocol index — the form
    /// the dynamic checker consumes (its
    /// [`SchedResource::Version`](crate::sched::SchedResource)/`Lock`
    /// resources carry raw indices). Out-of-range indices conservatively
    /// conflict with everything.
    pub fn may_conflict_indices(&self, p: usize, q: usize) -> bool {
        if p >= self.n || q >= self.n {
            return true;
        }
        self.conflict[p * self.n + q]
    }

    /// Do `p` and `q` appear together in one single root's footprint (one
    /// computation can hold both at once)?
    pub fn coupled(&self, p: ProtocolId, q: ProtocolId) -> bool {
        self.coupled[p.index() * self.n + q.index()]
    }

    /// Is `p` reachable from at least one analyzed root?
    pub fn contended(&self, p: ProtocolId) -> bool {
        self.reached[p.index()]
    }

    /// [`ConflictMatrix::may_conflict`] refined by policy: under a policy
    /// with no admission cell ([`Policy::cell`] = `None`, i.e. `Unsync`)
    /// nothing contends statically — the computations race instead.
    pub fn may_contend_under(&self, policy: Policy, p: ProtocolId, q: ProtocolId) -> bool {
        policy.cell().is_some() && self.may_conflict(p, q)
    }

    /// The statically inferred footprint of an analyzed root, if `root` was
    /// among the externals passed to [`ConflictMatrix::analyze`].
    pub fn footprint(&self, root: EventType) -> Option<&BTreeSet<ProtocolId>> {
        self.footprints
            .iter()
            .find(|(e, _)| *e == root)
            .map(|(_, f)| f)
    }

    /// All analyzed `(root, footprint)` pairs, in analysis order.
    pub fn footprints(&self) -> &[(EventType, BTreeSet<ProtocolId>)] {
        &self.footprints
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

    /// Two disjoint chains and one island:
    /// e1 -> a(P) -> eb -> b(Q);   e2 -> c(R);   island event -> d(S).
    fn stack() -> (Stack, [EventType; 3], [ProtocolId; 4]) {
        let mut bld = StackBuilder::new();
        let pp = bld.protocol("P");
        let pq = bld.protocol("Q");
        let pr = bld.protocol("R");
        let ps = bld.protocol("S");
        let e1 = bld.event("e1");
        let eb = bld.event("eb");
        let e2 = bld.event("e2");
        let ei = bld.event("island");
        bld.bind_with_triggers(e1, pp, "a", &[eb], noop());
        bld.bind_with_triggers(eb, pq, "b", &[], noop());
        bld.bind_with_triggers(e2, pr, "c", &[], noop());
        bld.bind_with_triggers(ei, ps, "d", &[], noop());
        (bld.build(), [e1, e2, ei], [pp, pq, pr, ps])
    }

    #[test]
    fn coupled_protocols_conflict() {
        let (s, [e1, e2, _], [pp, pq, pr, _]) = stack();
        let (m, _) = ConflictMatrix::analyze(&s, &[e1, e2]);
        assert!(m.coupled(pp, pq));
        assert!(m.may_conflict(pp, pq));
        assert!(m.may_conflict(pp, pp), "same root spawned twice contends");
        assert!(!m.may_conflict(pp, pr), "disjoint footprints never meet");
        assert!(!m.coupled(pp, pr));
        assert!(m.contended(pr));
    }

    #[test]
    fn overlapping_roots_conflict_transitively() {
        // e1 -> {a(P), b(Q)};  e2 -> {b2(Q), c(R)}: P and R conflict via
        // the shared Q even though no single footprint holds both.
        let mut bld = StackBuilder::new();
        let pp = bld.protocol("P");
        let pq = bld.protocol("Q");
        let pr = bld.protocol("R");
        let e1 = bld.event("e1");
        let e2 = bld.event("e2");
        let eq = bld.event("eq");
        bld.bind_with_triggers(e1, pp, "a", &[eq], noop());
        bld.bind_with_triggers(eq, pq, "b", &[], noop());
        bld.bind_with_triggers(e2, pq, "b2", &[eq], noop());
        bld.bind_with_triggers(e2, pr, "c", &[], noop());
        let s = bld.build();
        let (m, _) = ConflictMatrix::analyze(&s, &[e1, e2]);
        assert!(m.may_conflict(pp, pr));
        assert!(!m.coupled(pp, pr));
    }

    #[test]
    fn unreached_protocol_is_sa050() {
        let (s, [e1, e2, _], [_, _, _, ps]) = stack();
        // Island's event is not analyzed: S can never contend.
        let (m, r) = ConflictMatrix::analyze(&s, &[e1, e2]);
        assert!(!m.contended(ps));
        let d: Vec<_> = r
            .diagnostics()
            .iter()
            .filter(|d| d.code == codes::UNREACHABLE_CONFLICT)
            .collect();
        assert_eq!(d.len(), 1, "{r}");
        assert_eq!(d[0].protocol, Some(ps));
        assert_eq!(d[0].severity, Severity::Warning);
    }

    #[test]
    fn solo_footprint_is_sa051() {
        let (s, [e1, e2, ei], [_, _, pr, ps]) = stack();
        let (_, r) = ConflictMatrix::analyze(&s, &[e1, e2, ei]);
        let solo: Vec<_> = r
            .diagnostics()
            .iter()
            .filter(|d| d.code == codes::CONFLICT_FREE_PROTOCOL)
            .map(|d| d.protocol.unwrap())
            .collect();
        assert_eq!(solo, vec![pr, ps], "{r}");
        assert!(!r.has_errors());
    }

    #[test]
    fn policy_gates_contention() {
        let (s, [e1, _, _], [pp, pq, _, _]) = stack();
        let (m, _) = ConflictMatrix::analyze(&s, &[e1]);
        assert!(m.may_contend_under(Policy::Basic, pp, pq));
        assert!(m.may_contend_under(Policy::TwoPhase, pp, pq));
        assert!(!m.may_contend_under(Policy::Unsync, pp, pq));
    }

    #[test]
    fn footprints_are_exposed() {
        let (s, [e1, e2, _], [pp, pq, _, _]) = stack();
        let (m, _) = ConflictMatrix::analyze(&s, &[e1, e2]);
        let f = m.footprint(e1).unwrap();
        assert_eq!(f.iter().copied().collect::<Vec<_>>(), vec![pp, pq]);
        assert_eq!(m.footprints().len(), 2);
        assert!(m.footprint(EventType(9)).is_none());
    }
}
