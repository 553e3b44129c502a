//! Run recording and the isolation-property checker.
//!
//! The paper defines a *run* as the time-ordered list of `(event, handler)`
//! pairs, and the isolation property as equivalence to some serial execution
//! (§2). This module records runs and state accesses, and decides — after
//! the fact — whether an execution was *conflict-serializable*: it builds a
//! precedence graph over computations (an edge `k1 → k2` whenever `k1`
//! touched some microprotocol's state before `k2` did) and looks for a
//! topological order. Acyclic ⇒ the interleaved execution is equivalent to
//! the serial execution in that order; a cycle is a concrete witness that no
//! serial order explains what happened (the paper's run `r3`).
//!
//! Accesses carry a read/write flag: [`ProtocolState::with`] records a
//! write, [`ProtocolState::read_with`] a read, and two reads never conflict.
//! Reads come from `read_with` inside ordinary handlers, not from a
//! read-only kind of handler (the paper's §7 future work, which the runtime
//! does not implement); a stack that only calls `with` gets exactly the
//! conservative all-writes semantics of the original model.
//!
//! [`ProtocolState::with`]: crate::protocol::ProtocolState::with
//! [`ProtocolState::read_with`]: crate::protocol::ProtocolState::read_with

use std::collections::HashMap;

use parking_lot::Mutex;

use crate::error::CompId;
use crate::event::EventType;
use crate::handler::HandlerId;
use crate::protocol::ProtocolId;
use crate::stack::Stack;

/// One recorded state access: computation `comp` touched the local state of
/// `protocol`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// The accessing computation.
    pub comp: CompId,
    /// The microprotocol whose state was accessed.
    pub protocol: ProtocolId,
    /// Whether the access could mutate the state. Two reads never conflict;
    /// everything else does.
    pub write: bool,
}

impl Access {
    /// A write access (what [`ProtocolState::with`] records).
    ///
    /// [`ProtocolState::with`]: crate::protocol::ProtocolState::with
    pub fn write(comp: CompId, protocol: ProtocolId) -> Access {
        Access {
            comp,
            protocol,
            write: true,
        }
    }

    /// A read access (what [`ProtocolState::read_with`] records).
    ///
    /// [`ProtocolState::read_with`]: crate::protocol::ProtocolState::read_with
    pub fn read(comp: CompId, protocol: ProtocolId) -> Access {
        Access {
            comp,
            protocol,
            write: false,
        }
    }
}

/// One recorded handler commencement: computation `comp`'s event of type
/// `event` began executing `handler`. Together these form the paper's run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunEntry {
    /// The computation the event belongs to.
    pub comp: CompId,
    /// The event type that requested the handler.
    pub event: EventType,
    /// The handler that commenced.
    pub handler: HandlerId,
}

/// A snapshot of everything recorded since the last reset.
#[derive(Debug, Clone, Default)]
pub struct History {
    /// State accesses in global time order.
    pub accesses: Vec<Access>,
    /// Handler commencements in global time order (the run).
    pub run: Vec<RunEntry>,
}

impl History {
    /// Check the isolation property over the recorded accesses. See
    /// [`check_serializable`].
    pub fn check_isolation(&self) -> Result<Vec<CompId>, IsolationViolation> {
        check_serializable(&self.accesses)
    }

    /// Render the run with human-readable names, one `(event, handler)` pair
    /// per line, for experiment E1's output.
    pub fn format_run(&self, stack: &Stack) -> String {
        let mut out = String::new();
        for e in &self.run {
            out.push_str(&format!(
                "k{}: ({}, {})\n",
                e.comp,
                stack.event_name(e.event),
                stack.handler_name(e.handler)
            ));
        }
        out
    }

    /// The distinct computations that appear in the recorded run/accesses.
    pub fn computations(&self) -> Vec<CompId> {
        let mut ids: Vec<CompId> = self
            .accesses
            .iter()
            .map(|a| a.comp)
            .chain(self.run.iter().map(|r| r.comp))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

/// Witness that an execution violated the isolation property: a cycle in the
/// precedence graph over computations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IsolationViolation {
    /// The computations forming the cycle, in precedence order; the last
    /// precedes the first.
    pub cycle: Vec<CompId>,
}

impl std::fmt::Display for IsolationViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "isolation violated; precedence cycle: ")?;
        for (i, c) in self.cycle.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            write!(f, "k{c}")?;
        }
        write!(f, " -> k{}", self.cycle[0])
    }
}

impl std::error::Error for IsolationViolation {}

/// Decide whether the access sequence is conflict-serializable.
///
/// On success, returns an equivalent serial order of the computations. On
/// failure, returns a precedence cycle as the violation witness.
///
/// Adjacent-pair edges per protocol are sufficient: if `a` precedes `b`
/// anywhere on protocol `p`, the chain of consecutive distinct accessors of
/// `p` between them yields a path `a → … → b`, so any cycle in the full
/// precedence relation is also a cycle here.
pub fn check_serializable(accesses: &[Access]) -> Result<Vec<CompId>, IsolationViolation> {
    // Dense-index the computations.
    let mut index: HashMap<CompId, usize> = HashMap::new();
    let mut comps: Vec<CompId> = Vec::new();
    for a in accesses {
        index.entry(a.comp).or_insert_with(|| {
            comps.push(a.comp);
            comps.len() - 1
        });
    }
    let n = comps.len();

    // Conflict edges from per-protocol access orders: write-write,
    // write-read and read-write pairs conflict; read-read does not. Tracking
    // the last writer plus the readers since that write yields exactly the
    // transitive-reduction-enough edge set: any conflicting pair (a before
    // b) is connected by a path through these edges.
    #[derive(Default)]
    struct ProtoTrack {
        last_writer: Option<usize>,
        readers_since: Vec<usize>,
    }
    let mut track: HashMap<ProtocolId, ProtoTrack> = HashMap::new();
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indeg: Vec<usize> = vec![0; n];
    let add_edge = |succ: &mut Vec<Vec<usize>>, indeg: &mut Vec<usize>, from: usize, to: usize| {
        if from != to && !succ[from].contains(&to) {
            succ[from].push(to);
            indeg[to] += 1;
        }
    };
    for a in accesses {
        let ci = index[&a.comp];
        let t = track.entry(a.protocol).or_default();
        if a.write {
            if let Some(w) = t.last_writer {
                add_edge(&mut succ, &mut indeg, w, ci);
            }
            for &r in &t.readers_since {
                add_edge(&mut succ, &mut indeg, r, ci);
            }
            t.last_writer = Some(ci);
            t.readers_since.clear();
        } else {
            if let Some(w) = t.last_writer {
                add_edge(&mut succ, &mut indeg, w, ci);
            }
            if !t.readers_since.contains(&ci) {
                t.readers_since.push(ci);
            }
        }
    }

    // Kahn's algorithm; prefer lower comp ids for a stable, readable order.
    let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    ready.sort_by_key(|&i| std::cmp::Reverse(comps[i]));
    let mut order = Vec::with_capacity(n);
    let mut indeg_mut = indeg.clone();
    while let Some(i) = ready.pop() {
        order.push(comps[i]);
        for &j in &succ[i] {
            indeg_mut[j] -= 1;
            if indeg_mut[j] == 0 {
                ready.push(j);
                ready.sort_by_key(|&k| std::cmp::Reverse(comps[k]));
            }
        }
    }
    if order.len() == n {
        return Ok(order);
    }

    // A cycle exists among nodes with nonzero residual in-degree — but that
    // set also contains acyclic nodes *downstream* of a cycle (never
    // processed because a cyclic predecessor never released them). Prune
    // nodes with no successor inside the set until a fixpoint: what remains
    // is exactly the union of the cycles, where every node has an in-set
    // successor and the walk below must revisit one.
    let mut in_cycle: Vec<bool> = (0..n).map(|i| indeg_mut[i] > 0).collect();
    loop {
        let mut changed = false;
        for i in 0..n {
            if in_cycle[i] && !succ[i].iter().any(|&j| in_cycle[j]) {
                in_cycle[i] = false;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let start = (0..n).find(|&i| in_cycle[i]).expect("cycle node exists");
    let mut seen_at: HashMap<usize, usize> = HashMap::new();
    let mut path = vec![start];
    seen_at.insert(start, 0);
    let mut cur = start;
    loop {
        let next = *succ[cur]
            .iter()
            .find(|&&j| in_cycle[j])
            .expect("cycle node has successor in cycle set");
        if let Some(&pos) = seen_at.get(&next) {
            let cycle = path[pos..].iter().map(|&i| comps[i]).collect();
            return Err(IsolationViolation { cycle });
        }
        seen_at.insert(next, path.len());
        path.push(next);
        cur = next;
    }
}

/// Thread-safe recorder owned by the runtime. Recording is disabled by
/// default; when disabled every call is a cheap branch.
#[derive(Debug, Default)]
pub(crate) struct HistoryRecorder {
    enabled: bool,
    inner: Mutex<History>,
}

impl HistoryRecorder {
    pub(crate) fn new(enabled: bool) -> Self {
        HistoryRecorder {
            enabled,
            inner: Mutex::new(History::default()),
        }
    }

    #[inline]
    pub(crate) fn record_access(&self, comp: CompId, protocol: ProtocolId, write: bool) {
        if self.enabled {
            self.inner.lock().accesses.push(Access {
                comp,
                protocol,
                write,
            });
        }
    }

    #[inline]
    pub(crate) fn record_call(&self, comp: CompId, event: EventType, handler: HandlerId) {
        if self.enabled {
            self.inner.lock().run.push(RunEntry {
                comp,
                event,
                handler,
            });
        }
    }

    pub(crate) fn snapshot(&self) -> History {
        self.inner.lock().clone()
    }

    pub(crate) fn reset(&self) {
        let mut h = self.inner.lock();
        h.accesses.clear();
        h.run.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(comp: CompId, p: u32) -> Access {
        Access::write(comp, ProtocolId(p))
    }

    fn r(comp: CompId, p: u32) -> Access {
        Access::read(comp, ProtocolId(p))
    }

    #[test]
    fn empty_is_serializable() {
        assert_eq!(check_serializable(&[]), Ok(vec![]));
    }

    #[test]
    fn single_computation_serializable() {
        let log = [a(1, 0), a(1, 1), a(1, 0)];
        assert_eq!(check_serializable(&log), Ok(vec![1]));
    }

    #[test]
    fn paper_run_r1_serial() {
        // ka fully before kb on shared R(2) and S(3).
        let log = [a(1, 0), a(1, 2), a(1, 3), a(2, 1), a(2, 2), a(2, 3)];
        assert_eq!(check_serializable(&log), Ok(vec![1, 2]));
    }

    #[test]
    fn paper_run_r2_interleaved_but_isolated() {
        // (a0,P)(b0,Q)(a1,R)(a2,S)(b1,R)(b2,S): ka visits R,S before kb.
        let log = [a(1, 0), a(2, 1), a(1, 2), a(1, 3), a(2, 2), a(2, 3)];
        assert_eq!(check_serializable(&log), Ok(vec![1, 2]));
    }

    #[test]
    fn paper_run_r3_violates() {
        // (a0,P)(b0,Q)(a1,R)(b1,R)(b2,S)(a2,S):
        // ka before kb on R, kb before ka on S -> cycle.
        let log = [a(1, 0), a(2, 1), a(1, 2), a(2, 2), a(2, 3), a(1, 3)];
        let v = check_serializable(&log).unwrap_err();
        let mut cyc = v.cycle.clone();
        cyc.sort_unstable();
        assert_eq!(cyc, vec![1, 2]);
        assert!(v.to_string().contains("cycle"));
    }

    #[test]
    fn three_way_cycle_detected() {
        // k1<k2 on p0, k2<k3 on p1, k3<k1 on p2.
        let log = [a(1, 0), a(2, 0), a(2, 1), a(3, 1), a(3, 2), a(1, 2)];
        let v = check_serializable(&log).unwrap_err();
        assert_eq!(v.cycle.len(), 3);
    }

    #[test]
    fn interleaving_on_disjoint_protocols_serializable() {
        let log = [a(1, 0), a(2, 1), a(1, 0), a(2, 1)];
        let order = check_serializable(&log).unwrap();
        assert_eq!(order.len(), 2);
    }

    #[test]
    fn revisit_after_other_computation_is_violation() {
        // k1 touches p, k2 touches p, k1 touches p again.
        let log = [a(1, 0), a(2, 0), a(1, 0)];
        assert!(check_serializable(&log).is_err());
    }

    #[test]
    fn serial_order_respects_precedence_not_ids() {
        // k2 runs entirely before k1.
        let log = [a(2, 0), a(1, 0)];
        assert_eq!(check_serializable(&log), Ok(vec![2, 1]));
    }

    #[test]
    fn recorder_disabled_records_nothing() {
        let rec = HistoryRecorder::new(false);
        rec.record_access(1, ProtocolId(0), true);
        rec.record_call(1, EventType(0), HandlerId(0));
        let h = rec.snapshot();
        assert!(h.accesses.is_empty() && h.run.is_empty());
    }

    #[test]
    fn recorder_enabled_snapshot_and_reset() {
        let rec = HistoryRecorder::new(true);
        rec.record_access(1, ProtocolId(0), true);
        rec.record_call(1, EventType(2), HandlerId(3));
        let h = rec.snapshot();
        assert_eq!(h.accesses, vec![a(1, 0)]);
        assert_eq!(h.run.len(), 1);
        assert_eq!(h.computations(), vec![1]);
        rec.reset();
        assert!(rec.snapshot().accesses.is_empty());
    }

    // ---- read/write-aware conflict semantics ----

    #[test]
    fn interleaved_reads_do_not_conflict() {
        // r1 and r2 interleave on the same protocol: fine.
        let log = [r(1, 0), r(2, 0), r(1, 0), r(2, 0)];
        assert!(check_serializable(&log).is_ok());
    }

    #[test]
    fn read_write_interleaving_conflicts() {
        // k1 reads, k2 writes, k1 reads again: k1 < k2 and k2 < k1.
        let log = [r(1, 0), a(2, 0), r(1, 0)];
        assert!(check_serializable(&log).is_err());
    }

    #[test]
    fn reads_between_writes_order_the_writers() {
        // w1, r3, w2 on p0; and w2 before w1 on p1 -> cycle through the
        // reader path w1 -> r3 -> w2.
        let log = [a(1, 0), r(3, 0), a(2, 0), a(2, 1), a(1, 1)];
        assert!(check_serializable(&log).is_err());
        // Without the second protocol's reversal it is serializable.
        let log = [a(1, 0), r(3, 0), a(2, 0)];
        let order = check_serializable(&log).unwrap();
        let pos = |c: CompId| order.iter().position(|&x| x == c).unwrap();
        assert!(pos(1) < pos(3) && pos(3) < pos(2));
    }

    #[test]
    fn writer_then_many_readers_serializable() {
        let log = [a(1, 0), r(2, 0), r(3, 0), r(2, 0)];
        let order = check_serializable(&log).unwrap();
        assert_eq!(order[0], 1);
    }
}
