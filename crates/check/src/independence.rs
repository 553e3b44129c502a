//! The static independence relation: the bridge from `samoa_core`'s
//! whole-stack conflict analysis to the dynamic checker's DPOR search.
//!
//! [`ConflictMatrix`](samoa_core::analysis::ConflictMatrix) decides, from
//! trigger metadata alone, which microprotocol *pairs* can ever contend:
//! two protocols conflict only if two analyzed roots have overlapping
//! footprints covering them. [`StaticIndependence`] re-expresses the
//! complement of that relation over [`SchedResource`]s, which is the
//! vocabulary [`dpor`](crate::dpor) reasons in:
//!
//! * `Version(p)`/`Lock(p)` resources map to protocol `p`; two protocol
//!   resources are independent iff the matrix says `p` and `q` can never
//!   conflict. This is *coarser* than plain resource disjointness on
//!   purpose — it holds for the **entire future** of any computation
//!   declared over those protocols, not just the next announced action,
//!   which is what makes pruning at un-initiated races sound.
//! * Any other pair is independent iff the resources are distinct (two
//!   different task queues, completion flags, or sites are genuinely
//!   separate pieces of state; a shared one is not).
//!
//! The DPOR consumer ([`DporSearch::with_independence`]) uses the relation
//! where the classic algorithm is at its most conservative: when a race has
//! no ready initiator, instead of scheduling backtracks for *every* ready
//! thread it skips threads whose static seed footprint (announced at spawn,
//! an upper bound on everything the thread will ever touch) is independent
//! of the whole race window — such a thread commutes with the window and
//! can neither flip the race nor enable its initiator.
//!
//! [`DporSearch::with_independence`]: crate::dpor::DporSearch::with_independence

use samoa_core::analysis::ConflictMatrix;
use samoa_core::sched::SchedResource;

/// The statically-known independence relation over [`SchedResource`]s,
/// derived from a stack's [`ConflictMatrix`]. See the module docs.
#[derive(Debug, Clone)]
pub struct StaticIndependence {
    n: usize,
    /// Row-major copy of the matrix's may-conflict relation.
    conflict: Vec<bool>,
}

impl StaticIndependence {
    /// Export `matrix` as a resource-level independence relation.
    pub fn from_matrix(matrix: &ConflictMatrix) -> StaticIndependence {
        let n = matrix.protocol_count();
        let mut conflict = vec![false; n * n];
        for p in 0..n {
            for q in 0..n {
                conflict[p * n + q] = matrix.may_conflict_indices(p, q);
            }
        }
        StaticIndependence { n, conflict }
    }

    /// Can protocols with raw indices `p` and `q` ever contend?
    /// Out-of-range indices conservatively conflict.
    fn protos_conflict(&self, p: usize, q: usize) -> bool {
        if p >= self.n || q >= self.n {
            return true;
        }
        self.conflict[p * self.n + q]
    }

    /// The protocol index a resource stands for, if it is a protocol cell.
    fn proto_of(rs: SchedResource) -> Option<usize> {
        match rs {
            SchedResource::Version(p) | SchedResource::Lock(p) => Some(p as usize),
            _ => None,
        }
    }

    /// Are two resources *statically* independent — no execution can make
    /// their access order matter? Protocol cells defer to the matrix
    /// (`Version(p)` vs `Lock(q)` included: both stand for their protocol's
    /// whole admission state); everything else is independent iff distinct.
    pub fn resources_independent(&self, a: SchedResource, b: SchedResource) -> bool {
        match (Self::proto_of(a), Self::proto_of(b)) {
            (Some(p), Some(q)) => !self.protos_conflict(p, q),
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

    /// Two disjoint clusters: e1 -> a(P) -> eb -> b(Q), and e2 -> c(R).
    fn relation() -> StaticIndependence {
        let mut bld = StackBuilder::new();
        let pp = bld.protocol("P");
        let pq = bld.protocol("Q");
        let pr = bld.protocol("R");
        let e1 = bld.event("e1");
        let eb = bld.event("eb");
        let e2 = bld.event("e2");
        bld.bind_with_triggers(e1, pp, "a", &[eb], |_, _| Ok(()));
        bld.bind_with_triggers(eb, pq, "b", &[], |_, _| Ok(()));
        bld.bind_with_triggers(e2, pr, "c", &[], |_, _| Ok(()));
        let stack = bld.build();
        let (m, _) = samoa_core::analysis::ConflictMatrix::analyze(&stack, &[e1, e2]);
        StaticIndependence::from_matrix(&m)
    }

    const VP: SchedResource = SchedResource::Version(0);
    const VQ: SchedResource = SchedResource::Version(1);
    const VR: SchedResource = SchedResource::Version(2);

    #[test]
    fn protocol_pairs_follow_the_matrix() {
        let si = relation();
        assert!(!si.resources_independent(VP, VQ), "coupled in one root");
        assert!(
            !si.resources_independent(VP, VP),
            "a cell conflicts with itself"
        );
        assert!(si.resources_independent(VP, VR), "disjoint clusters");
        assert!(
            si.resources_independent(SchedResource::Lock(0), VR),
            "lock and version map to the same protocols"
        );
        assert!(
            !si.resources_independent(SchedResource::Version(99), VR),
            "out-of-range protocol indices conservatively conflict"
        );
    }

    #[test]
    fn non_protocol_resources_need_identity() {
        let si = relation();
        let q1 = SchedResource::Queue(1);
        let q2 = SchedResource::Queue(2);
        assert!(si.resources_independent(q1, q2), "distinct queues commute");
        assert!(!si.resources_independent(q1, q1), "a shared queue does not");
        assert!(!si.resources_independent(SchedResource::Quiesce, SchedResource::Quiesce));
    }

    #[test]
    fn set_independence_is_pairwise() {
        let si = relation();
        let seed = [SchedResource::Queue(3), SchedResource::Done(3), VR];
        assert!(si.sets_independent(&seed, &[VP, VQ, SchedResource::Queue(1)]));
        assert!(!si.sets_independent(&seed, &[VP, VR]), "VR meets VR");
        assert!(si.sets_independent(&[], &[VP]), "empty sets are vacuous");
    }
}
