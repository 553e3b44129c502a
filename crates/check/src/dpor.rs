//! Dynamic partial-order reduction: explore one schedule per Mazurkiewicz
//! trace instead of every interleaving.
//!
//! Exhaustive enumeration ([`Strategy::Exhaustive`](crate::Strategy))
//! visits every choice sequence, but most of them are equivalent: two
//! adjacent steps whose resource footprints are disjoint commute, so
//! swapping them reaches the same state. DPOR (Flanagan & Godefroid,
//! POPL 2005) exploits this at runtime: after each execution it looks for
//! *races* — pairs of dependent accesses by different threads that were
//! adjacent in the happens-before order — and schedules just enough
//! backtrack points to cover the other side of each race. Combined with
//! sleep sets, the search covers every reachable failure of the bounded
//! scenario *with respect to the dependence relation* while running a
//! fraction of the schedules.
//!
//! ## The dependence relation
//!
//! The unit of analysis is the [`SegEvent`](crate::SegEvent): one thread's contiguous
//! resource accesses within a segment (segments bundle the chosen thread's
//! action with any *forced moves* that followed it, so a segment can carry
//! several threads' events). Two events are **dependent** iff they belong
//! to the same thread or their resources intersect — the same
//! microprotocol version or lock ([`SchedResource::Version`]/
//! [`SchedResource::Lock`], which also stand for the protocol's local
//! state via [`SchedHook::note`](samoa_core::sched::SchedHook::note)),
//! or the same task queue. Threads whose next action is not yet
//! announced (empty pending footprint) are conservatively treated as
//! conflicting with everything — over-approximating dependence costs
//! reduction, never soundness.
//!
//! ## Stateless search
//!
//! The runtime cannot checkpoint mid-schedule, so the search is
//! stateless-restart: each run replays a prefix of recorded choices via
//! [`PrefixDecider`](crate::strategy::PrefixDecider) (first-ready beyond
//! it), then [`DporSearch::record`] folds the observed trace into the
//! exploration stack and [`DporSearch::advance`] picks the deepest node
//! with an unexplored backtrack candidate.

use std::collections::BTreeSet;

use samoa_core::sched::SchedResource;

use crate::controller::{ScheduleTrace, StepRecord};
use crate::independence::StaticIndependence;

/// One unit of the happens-before analysis: a thread and the resources
/// one of its access runs touched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HbUnit {
    /// The acting thread.
    pub tid: u32,
    /// The resources it touched.
    pub resources: Vec<SchedResource>,
}

/// Are two units dependent — same thread, or overlapping resources?
/// Reordering *independent* units cannot change the outcome, so schedules
/// differing only in their order are equivalent.
pub fn dependent(a: &HbUnit, b: &HbUnit) -> bool {
    a.tid == b.tid || intersects(&a.resources, &b.resources)
}

fn intersects(a: &[SchedResource], b: &[SchedResource]) -> bool {
    a.iter().any(|r| b.contains(r))
}

/// Is thread `q`'s announced next action *known* to commute with a segment
/// that touched `footprint`? Unknown announcements (`None` or empty — a
/// thread that has not reached its first annotated yield) are
/// conservatively treated as conflicting.
fn known_independent(pending: Option<&[SchedResource]>, footprint: &[SchedResource]) -> bool {
    match pending {
        Some(p) if !p.is_empty() => !intersects(p, footprint),
        _ => false,
    }
}

/// The happens-before relation of one execution, closed transitively over
/// the dependence relation: `i →hb j` iff a chain of pairwise-dependent
/// units leads from unit `i` to unit `j`.
///
/// Stored as one bitset per unit (`hb[j]` = the set of `i` with
/// `i →hb j`), built in a single forward pass:
/// `hb[j] = ⋃ { hb[i] ∪ {i} : i < j, dependent(i, j) }`.
pub struct HappensBefore {
    n: usize,
    words: usize,
    bits: Vec<u64>,
}

impl HappensBefore {
    /// Compute the happens-before closure of a sequence of units.
    pub fn compute(units: &[HbUnit]) -> HappensBefore {
        let n = units.len();
        let words = n.div_ceil(64).max(1);
        let mut bits = vec![0u64; n * words];
        for j in 0..n {
            for i in 0..j {
                if dependent(&units[i], &units[j]) {
                    for w in 0..words {
                        let v = bits[i * words + w];
                        bits[j * words + w] |= v;
                    }
                    bits[j * words + i / 64] |= 1u64 << (i % 64);
                }
            }
        }
        HappensBefore { n, words, bits }
    }

    /// The happens-before closure of a recorded run, at segment
    /// granularity: one unit per recorded decision, carrying the chosen
    /// thread and the whole segment footprint. Coarser than the per-event
    /// relation the search uses internally, but a sound over-approximation
    /// — convenient for asserting ordering properties of a trace.
    pub fn of_run(steps: &[StepRecord]) -> HappensBefore {
        let units: Vec<HbUnit> = steps
            .iter()
            .map(|s| HbUnit {
                tid: s.chosen,
                resources: s.footprint(),
            })
            .collect();
        HappensBefore::compute(&units)
    }

    /// Number of units in the underlying sequence.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the sequence was empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Does unit `i` happen before unit `j`?
    pub fn ordered(&self, i: usize, j: usize) -> bool {
        debug_assert!(i < self.n && j < self.n);
        self.bits[j * self.words + i / 64] & (1u64 << (i % 64)) != 0
    }
}

/// One node of the exploration stack: the state reached after replaying
/// the choices above it, plus the DPOR bookkeeping for the decision taken
/// there.
#[derive(Debug, Clone)]
struct DporNode {
    /// Sorted ready set at this decision (from the [`StepRecord`]).
    ready: Vec<u32>,
    /// Thread chosen by the run currently being explored through here.
    chosen: u32,
    /// Threads a detected race demands be tried from this state.
    backtrack: BTreeSet<u32>,
    /// Threads whose subtree from this state is fully explored.
    done: BTreeSet<u32>,
    /// Threads whose next action was explored on a sibling branch and is
    /// independent of everything since — re-exploring them here would
    /// revisit a covered equivalence class.
    sleep: BTreeSet<u32>,
}

/// Backtrack-set DPOR with sleep sets over
/// [`Controller`](crate::Controller) traces.
///
/// Drive it restart-style:
///
/// 1. run the scenario with
///    [`PrefixDecider::new(search.prefix())`](crate::strategy::PrefixDecider),
/// 2. feed the resulting trace to [`record`](DporSearch::record),
/// 3. ask [`advance`](DporSearch::advance) for the next prefix; `None`
///    means the reduced space is exhausted.
pub struct DporSearch {
    stack: Vec<DporNode>,
    next: Vec<u32>,
    schedules_run: usize,
    exhausted: bool,
    /// Statically-known independence from the stack's conflict matrix;
    /// `None` disables static pruning (classic DPOR).
    independence: Option<StaticIndependence>,
    /// Ready threads considered by the no-initiator fallback, total.
    fallback_candidates: usize,
    /// Of those, threads statically proven independent of their race
    /// window and therefore *not* inserted as backtrack points.
    fallback_pruned: usize,
}

impl Default for DporSearch {
    fn default() -> Self {
        DporSearch::new()
    }
}

impl DporSearch {
    /// A fresh search; the first run uses the empty prefix.
    pub fn new() -> DporSearch {
        DporSearch::with_independence(None)
    }

    /// A search that prunes with a [`StaticIndependence`] relation: in the
    /// no-ready-initiator fallback of the race analysis, ready threads
    /// whose spawn-time static seed is independent of
    /// the entire race window never seed backtrack points. `None` is
    /// exactly [`DporSearch::new`].
    pub fn with_independence(independence: Option<StaticIndependence>) -> DporSearch {
        DporSearch {
            stack: Vec::new(),
            next: Vec::new(),
            schedules_run: 0,
            exhausted: false,
            independence,
            fallback_candidates: 0,
            fallback_pruned: 0,
        }
    }

    /// Ready threads the no-initiator fallback has considered so far.
    pub fn fallback_candidates(&self) -> usize {
        self.fallback_candidates
    }

    /// Fallback candidates suppressed by static independence — the
    /// numerator of the *pruned ratio* (`Sweep::backtrack_pruned`).
    pub fn fallback_pruned(&self) -> usize {
        self.fallback_pruned
    }

    /// The replay prefix for the next run (indices into each decision's
    /// sorted ready set, the [`PrefixDecider`](crate::strategy::PrefixDecider)
    /// encoding).
    pub fn prefix(&self) -> Vec<u32> {
        self.next.clone()
    }

    /// Runs recorded so far.
    pub fn schedules_run(&self) -> usize {
        self.schedules_run
    }

    /// Has the reduced space been fully explored?
    pub fn exhausted(&self) -> bool {
        self.exhausted
    }

    /// Fold one finished run into the search: extend the stack along the
    /// run's free suffix (computing sleep sets as we descend), then add
    /// backtrack points for every reversible race the run exhibited.
    pub fn record(&mut self, trace: &ScheduleTrace) {
        self.schedules_run += 1;
        let steps = &trace.records;
        debug_assert!(
            steps.len() >= self.stack.len(),
            "replayed run diverged from its prefix ({} decisions, stack depth {})",
            steps.len(),
            self.stack.len(),
        );
        for (i, step) in steps.iter().enumerate() {
            if let Some(node) = self.stack.get(i) {
                debug_assert_eq!(node.chosen, step.chosen, "replay diverged at decision {i}");
                continue;
            }
            // A fresh node below the replayed prefix. Its sleep set: every
            // thread explored (or asleep) at the parent whose announced
            // action is independent of the entire parent segment — running
            // it here reaches a state a sibling branch already covered.
            let sleep = match i.checked_sub(1) {
                None => BTreeSet::new(),
                Some(pi) => {
                    let pstep = &steps[pi];
                    let pnode = &self.stack[pi];
                    let pfp = pstep.footprint();
                    pnode
                        .sleep
                        .iter()
                        .chain(pnode.done.iter())
                        .filter(|&&q| {
                            q != pstep.chosen && known_independent(pstep.announced_or_seed(q), &pfp)
                        })
                        .copied()
                        .collect()
                }
            };
            self.stack.push(DporNode {
                ready: step.ready.clone(),
                chosen: step.chosen,
                backtrack: BTreeSet::from([step.chosen]),
                done: BTreeSet::new(),
                sleep,
            });
        }
        self.add_backtracks(steps);
    }

    /// Flanagan–Godefroid race analysis at event granularity: for every
    /// reversible race `(e, f)`, make sure the decision that opened `e`'s
    /// segment will also try a thread that leads to `f`'s side of the
    /// race.
    fn add_backtracks(&mut self, steps: &[StepRecord]) {
        // Flatten the run into (decision index, unit) pairs — forced moves
        // bundle several threads' events into one segment, and races must
        // see each thread's accesses separately.
        let mut decision: Vec<usize> = Vec::new();
        let mut units: Vec<HbUnit> = Vec::new();
        for (d, step) in steps.iter().enumerate() {
            for ev in &step.events {
                decision.push(d);
                units.push(HbUnit {
                    tid: ev.tid,
                    resources: ev.resources.clone(),
                });
            }
        }
        let hb = HappensBefore::compute(&units);
        for f in 0..units.len() {
            for e in 0..f {
                if units[e].tid == units[f].tid || !dependent(&units[e], &units[f]) {
                    continue;
                }
                // Reversible: no intermediate unit already orders e → f —
                // otherwise swapping them is impossible and the race is
                // covered by the (e, g) and (g, f) pairs.
                if (e + 1..f).any(|g| hb.ordered(e, g) && hb.ordered(g, f)) {
                    continue;
                }
                // The schedulable state for e is the decision that opened
                // its segment; try a thread that initiates f's side there:
                // f's own thread, or any thread whose unit between e and f
                // happens-before f.
                let d = decision[e];
                let ready = &steps[d].ready;
                let mut cand: BTreeSet<u32> = BTreeSet::new();
                if ready.contains(&units[f].tid) {
                    cand.insert(units[f].tid);
                }
                for (g, unit) in units.iter().enumerate().take(f).skip(e + 1) {
                    if hb.ordered(g, f) && ready.contains(&unit.tid) {
                        cand.insert(unit.tid);
                    }
                }
                if cand.is_empty() {
                    // No initiator is ready at the decision: conservatively
                    // try everything (the classic fallback) — minus threads
                    // the static relation proves independent of the whole
                    // race window. Only the *spawn-time seed* licenses this
                    // prune: it bounds everything the thread will ever
                    // touch, so the thread commutes with the window and
                    // cannot flip the race or enable its initiator. An
                    // announced pending is not enough — it describes only
                    // the next action, and a later one could interfere.
                    let window: Vec<SchedResource> = units[e..=f]
                        .iter()
                        .flat_map(|u| u.resources.iter().copied())
                        .collect();
                    let mut keep: Vec<u32> = Vec::new();
                    for &q in ready {
                        self.fallback_candidates += 1;
                        let pruned = match (self.independence.as_ref(), steps[d].seed_of(q)) {
                            (Some(si), Some(seed)) => si.sets_independent(seed, &window),
                            _ => false,
                        };
                        if pruned {
                            self.fallback_pruned += 1;
                        } else {
                            keep.push(q);
                        }
                    }
                    self.stack[d].backtrack.extend(keep);
                    continue;
                }
                let node = &mut self.stack[d];
                if cand
                    .iter()
                    .all(|t| !node.backtrack.contains(t) && !node.done.contains(t))
                {
                    node.backtrack.insert(*cand.iter().next().unwrap());
                }
            }
        }
    }

    /// Retire the just-explored branch and pick the next one: the deepest
    /// node with a backtrack candidate that is neither done nor asleep.
    /// Returns the replay prefix for the next run, or `None` when the
    /// reduced space is exhausted.
    pub fn advance(&mut self) -> Option<Vec<u32>> {
        while let Some(node) = self.stack.last_mut() {
            node.done.insert(node.chosen);
            let next = node
                .backtrack
                .iter()
                .find(|t| !node.done.contains(t) && !node.sleep.contains(t))
                .copied();
            match next {
                Some(t) => {
                    node.chosen = t;
                    self.next = self
                        .stack
                        .iter()
                        .map(|n| {
                            n.ready
                                .iter()
                                .position(|&r| r == n.chosen)
                                .expect("backtrack candidate drawn from the ready set")
                                as u32
                        })
                        .collect();
                    return Some(self.next.clone());
                }
                None => {
                    self.stack.pop();
                }
            }
        }
        self.exhausted = true;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::SegEvent;

    fn step(chosen: u32, ready: &[u32], fp: &[SchedResource]) -> StepRecord {
        StepRecord {
            ready: ready.to_vec(),
            pending: ready.iter().map(|_| Vec::new()).collect(),
            seeds: ready.iter().map(|_| Vec::new()).collect(),
            chosen,
            step: 0,
            events: vec![SegEvent {
                tid: chosen,
                resources: fp.to_vec(),
            }],
        }
    }

    fn trace_of(steps: Vec<StepRecord>) -> ScheduleTrace {
        use crate::controller::ChoiceRecord;
        ScheduleTrace {
            choices: steps
                .iter()
                .map(|s| ChoiceRecord {
                    chosen: s.ready.iter().position(|&r| r == s.chosen).unwrap() as u32,
                    alternatives: s.ready.len() as u32,
                })
                .collect(),
            records: steps,
            steps: 0,
            deadlock: false,
            runaway: false,
        }
    }

    const V0: SchedResource = SchedResource::Version(0);
    const V1: SchedResource = SchedResource::Version(1);

    fn unit(tid: u32, rs: &[SchedResource]) -> HbUnit {
        HbUnit {
            tid,
            resources: rs.to_vec(),
        }
    }

    #[test]
    fn dependence_is_resource_overlap_or_same_thread() {
        let a = unit(0, &[V0]);
        let b = unit(1, &[V0]);
        let c = unit(1, &[V1]);
        assert!(dependent(&a, &b), "shared Version(0)");
        assert!(!dependent(&a, &c), "disjoint resources, distinct threads");
        assert!(dependent(&b, &c), "same thread");
    }

    #[test]
    fn happens_before_is_transitive() {
        // 0 —V0→ 1 —V1→ 2, but 0 and 2 share nothing directly.
        let units = vec![unit(0, &[V0]), unit(1, &[V0, V1]), unit(2, &[V1])];
        let hb = HappensBefore::compute(&units);
        assert!(hb.ordered(0, 1));
        assert!(hb.ordered(1, 2));
        assert!(hb.ordered(0, 2), "transitive closure");
        assert!(!hb.ordered(2, 0));
    }

    #[test]
    fn race_schedules_a_backtrack_point() {
        // Two threads touch V0 with nothing ordering them: a race. The
        // search must want to try thread 1 first at decision 0.
        let mut s = DporSearch::new();
        s.record(&trace_of(vec![
            step(0, &[0, 1], &[V0]),
            step(1, &[0, 1], &[V0]),
        ]));
        let next = s.advance().expect("race demands a second run");
        assert_eq!(next, vec![1], "try ready index 1 at the root");
    }

    #[test]
    fn forced_move_races_are_still_detected() {
        // Thread 1's conflicting access happened as a forced move folded
        // into thread 0's segment — the race must still surface.
        let mut s = DporSearch::new();
        let mut only = step(0, &[0, 1], &[V0]);
        only.events.push(SegEvent {
            tid: 1,
            resources: vec![V0],
        });
        s.record(&trace_of(vec![only]));
        let next = s.advance().expect("race demands a second run");
        assert_eq!(next, vec![1]);
    }

    /// Two clusters that never meet: e1 -> a(P), e2 -> c(R). Protocol
    /// indices: P = 0, R = 1.
    fn disjoint_relation() -> StaticIndependence {
        let mut bld = samoa_core::StackBuilder::new();
        let pp = bld.protocol("P");
        let pr = bld.protocol("R");
        let e1 = bld.event("e1");
        let e2 = bld.event("e2");
        bld.bind_with_triggers(e1, pp, "a", &[], |_, _| Ok(()));
        bld.bind_with_triggers(e2, pr, "c", &[], |_, _| Ok(()));
        let s = bld.build();
        let (m, _) = samoa_core::analysis::ConflictMatrix::analyze(&s, &[e1, e2]);
        StaticIndependence::from_matrix(&m)
    }

    #[test]
    fn static_independence_prunes_the_no_initiator_fallback() {
        // Race on V0 between threads 0 and 1, but thread 1 is not ready at
        // the decision that opened the race: the classic fallback schedules
        // every ready thread there, including bystander thread 2. With the
        // static relation and 2's seed naming only the other cluster, the
        // bystander is pruned and the reduced space is already exhausted.
        let vr = SchedResource::Version(1);
        let seeded = |chosen: u32, ready: &[u32], fp: &[SchedResource]| {
            let mut s = step(chosen, ready, fp);
            if let Some(i) = s.ready.iter().position(|&t| t == 2) {
                s.seeds[i] = vec![vr];
            }
            s
        };
        let steps = vec![seeded(0, &[0, 2], &[V0]), seeded(1, &[1, 2], &[V0])];

        let mut classic = DporSearch::new();
        classic.record(&trace_of(steps.clone()));
        assert_eq!(
            classic.advance(),
            Some(vec![1]),
            "classic fallback must still try the bystander"
        );
        assert_eq!(classic.fallback_pruned(), 0);

        let mut reduced = DporSearch::with_independence(Some(disjoint_relation()));
        reduced.record(&trace_of(steps));
        assert!(reduced.fallback_pruned() > 0, "bystander must be pruned");
        assert!(reduced.advance().is_none(), "nothing left to backtrack");
        assert!(reduced.exhausted());
    }

    #[test]
    fn independent_threads_need_one_run() {
        let mut s = DporSearch::new();
        s.record(&trace_of(vec![
            step(0, &[0, 1], &[V0]),
            step(1, &[0, 1], &[V1]),
        ]));
        assert!(s.advance().is_none(), "no race, nothing to backtrack");
        assert!(s.exhausted());
    }
}
