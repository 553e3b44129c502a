//! The static per-pair conflict matrix over microprotocols, and the
//! independence relation DPOR prunes with.
//!
//! Two computations contend on a microprotocol's cell — the `(gv_p, lv_p)`
//! version counters, or the 2PL lock slot — only if both declare it, and a
//! well-declared computation declares exactly the footprint reachable from
//! its root event ([`infer_m`](samoa_core::analysis::infer_m)). So whether
//! protocols `p` and `q` can *ever* meet is decidable from the analyzed
//! root events alone: it requires roots `e1`, `e2` whose footprints contain
//! `p` resp. `q` **and overlap** (disjoint footprints admit no Rule-2 wait
//! between the two computations, hence no contention ordering either).
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
//! The complement of the relation, over [`SchedResource`]s, is what the
//! DPOR search ([`DporSearch::with_independence`]) prunes with
//! ([`ConflictMatrix::resources_independent`]):
//!
//! * `Version(p)`/`Lock(p)` resources map to protocol `p`; two protocol
//!   resources are independent iff `p` and `q` can never conflict. This is
//!   *coarser* than plain resource disjointness on purpose — it holds for
//!   the **entire future** of any computation declared over those
//!   protocols, not just the next announced action, which is what makes
//!   pruning at un-initiated races sound.
//! * Any other pair is independent iff the resources are distinct (two
//!   different task queues, completion flags, or sites are genuinely
//!   separate pieces of state; a shared one is not).
//!
//! The search uses it where the classic algorithm is at its most
//! conservative: when a race has no ready initiator, instead of scheduling
//! backtracks for *every* ready thread it skips threads whose static seed
//! footprint (announced at spawn, an upper bound on everything the thread
//! will ever touch) is independent of the whole race window — such a
//! thread commutes with the window and can neither flip the race nor
//! enable its initiator.
//!
//! [`DporSearch::with_independence`]: crate::dpor::DporSearch::with_independence

use std::collections::BTreeSet;

use samoa_core::analysis::{codes, CallGraph, Diagnostic, Report, Severity};
use samoa_core::sched::SchedResource;
use samoa_core::{EventType, ProtocolId, Stack};

/// The symmetric may-conflict relation over a stack's microprotocols,
/// derived from the footprints of the analyzed root events.
#[derive(Debug, Clone)]
pub struct ConflictMatrix {
    n: usize,
    /// Row-major symmetric bit matrix; `conflict[p * n + q]` = some pair of
    /// computations rooted at analyzed events can contend with one touching
    /// `p` and the other touching `q`.
    conflict: Vec<bool>,
    /// `reached[p]` = at least one analyzed root reaches `p`.
    reached: Vec<bool>,
    /// Per analyzed root: its statically inferred footprint.
    footprints: Vec<(EventType, BTreeSet<ProtocolId>)>,
}

impl ConflictMatrix {
    /// Analyze `stack` with computations rooted at `externals`, returning
    /// the matrix and the `SA05x` report. Pass
    /// [`Stack::all_events`] when every event may arrive externally (the
    /// conservative default `samoa-lint` uses).
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
                    }
                }
            }
        }

        let mut r = Report::new();
        let handlers = stack.all_handlers();
        for p in stack.all_protocols() {
            if !handlers.iter().any(|&h| stack.handler_protocol(h) == p) {
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
        self.conflict_at(p.index(), q.index())
    }

    /// [`ConflictMatrix::may_conflict`] by raw protocol index, the form a
    /// [`SchedResource`] carries. Out-of-range indices conservatively
    /// conflict with everything.
    fn conflict_at(&self, p: usize, q: usize) -> bool {
        p >= self.n || q >= self.n || self.conflict[p * self.n + q]
    }

    /// Is `p` reachable from at least one analyzed root?
    pub fn contended(&self, p: ProtocolId) -> bool {
        self.reached[p.index()]
    }

    /// The statically inferred footprint of an analyzed root, if `root` was
    /// among the externals passed to [`ConflictMatrix::analyze`].
    pub fn footprint(&self, root: EventType) -> Option<&BTreeSet<ProtocolId>> {
        self.footprints
            .iter()
            .find(|(e, _)| *e == root)
            .map(|(_, f)| f)
    }

    /// Are two resources *statically* independent — no execution can make
    /// their access order matter? Protocol cells defer to the matrix
    /// (`Version(p)` vs `Lock(q)` included: both stand for their protocol's
    /// whole admission state); everything else is independent iff distinct.
    pub fn resources_independent(&self, a: SchedResource, b: SchedResource) -> bool {
        match (a, b) {
            (
                SchedResource::Version(p) | SchedResource::Lock(p),
                SchedResource::Version(q) | SchedResource::Lock(q),
            ) => !self.conflict_at(p as usize, q as usize),
            _ => a != b,
        }
    }

    /// Is every pair across the two resource sets statically independent?
    /// Empty sets are vacuously independent — callers must treat *unknown*
    /// footprints (no seed announced) as dependent before asking.
    pub fn sets_independent(&self, a: &[SchedResource], b: &[SchedResource]) -> bool {
        a.iter()
            .all(|&ra| b.iter().all(|&rb| self.resources_independent(ra, rb)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samoa_core::prelude::*;

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
        assert!(m.may_conflict(pp, pq));
        assert!(m.may_conflict(pp, pp), "same root spawned twice contends");
        assert!(!m.may_conflict(pp, pr), "disjoint footprints never meet");
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
        assert!(!m.footprint(e1).unwrap().contains(&pr));
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
    fn footprints_are_exposed() {
        let (s, [e1, e2, ei], [pp, pq, _, _]) = stack();
        let (m, _) = ConflictMatrix::analyze(&s, &[e1, e2]);
        let f = m.footprint(e1).unwrap();
        assert_eq!(f.iter().copied().collect::<Vec<_>>(), vec![pp, pq]);
        assert!(m.footprint(ei).is_none());
    }

    const VP: SchedResource = SchedResource::Version(0);
    const VQ: SchedResource = SchedResource::Version(1);
    const VR: SchedResource = SchedResource::Version(2);

    /// The matrix of [`stack`] with the island left out: P and Q coupled
    /// in one root, R alone in the other.
    fn clusters() -> ConflictMatrix {
        let (s, [e1, e2, _], _) = stack();
        ConflictMatrix::analyze(&s, &[e1, e2]).0
    }

    #[test]
    fn protocol_resources_follow_the_matrix() {
        let m = clusters();
        assert!(!m.resources_independent(VP, VQ), "coupled in one root");
        assert!(
            !m.resources_independent(VP, VP),
            "a cell conflicts with itself"
        );
        assert!(m.resources_independent(VP, VR), "disjoint clusters");
        assert!(
            m.resources_independent(SchedResource::Lock(0), VR),
            "lock and version map to the same protocols"
        );
        assert!(
            !m.resources_independent(SchedResource::Version(99), VR),
            "out-of-range protocol indices conservatively conflict"
        );
    }

    #[test]
    fn non_protocol_resources_need_identity() {
        let m = clusters();
        let q1 = SchedResource::Queue(1);
        let q2 = SchedResource::Queue(2);
        assert!(m.resources_independent(q1, q2), "distinct queues commute");
        assert!(!m.resources_independent(q1, q1), "a shared queue does not");
        assert!(!m.resources_independent(SchedResource::Quiesce, SchedResource::Quiesce));
    }

    #[test]
    fn set_independence_is_pairwise() {
        let m = clusters();
        let seed = [SchedResource::Queue(3), SchedResource::Done(3), VR];
        assert!(m.sets_independent(&seed, &[VP, VQ, SchedResource::Queue(1)]));
        assert!(!m.sets_independent(&seed, &[VP, VR]), "VR meets VR");
        assert!(m.sets_independent(&[], &[VP]), "empty sets are vacuous");
    }
}
