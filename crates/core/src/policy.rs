//! Concurrency-control policies and per-computation specifications.
//!
//! The paper's three versioning algorithms (`VCAbasic`, `VCAbound`,
//! `VCAroute`, §5) plus the comparators used by the evaluation:
//!
//! * [`Policy::Serial`] — Appia-style: each computation declares *all*
//!   microprotocols, so computations execute one after another.
//! * [`Policy::Unsync`] — Cactus-style with no programmer-supplied locks:
//!   no admission control at all; used to demonstrate isolation violations.
//! * [`Policy::TwoPhase`] — conservative two-phase locking over the declared
//!   set, the classical algorithm the paper's Related Work compares against.
//!
//! All versioning computations share one `(gv, lv)` counter machinery and
//! can safely run concurrently with each other (a `VCAbasic` computation is
//! a `VCAbound` computation with every bound = 1 that releases only at
//! completion); `TwoPhase` uses a separate lock table and must not be mixed
//! with versioning computations on overlapping microprotocols.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::graph::{RoutePattern, RouteState};
use crate::protocol::ProtocolId;
use crate::runtime::Decl;
use crate::version::ParkSeam;

/// The concurrency-control algorithm a computation runs under — the one
/// word the paper puts at the `isolated` construct (§4), as a value. The
/// only "which algorithm" enum in the workspace: [`Policy::decl`] turns it
/// into the [`Decl`] a spawn takes, [`Decl::policy`] reads it back,
/// [`TraceKind::Spawn`](crate::trace::TraceKind::Spawn) carries it, the
/// static conflict analysis is parameterised by it ([`Policy::cell`]), and
/// its `Display` is the label every report prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Cactus-without-locks baseline: no isolation at all.
    Unsync,
    /// Appia baseline: fully serial computations.
    Serial,
    /// The basic version-counting algorithm (`isolated M e`, paper §5.1).
    Basic,
    /// Version counting with least upper bounds (`isolated bound M e`, §5.2).
    Bound,
    /// Version counting with a routing pattern (`isolated route M e`, §5.3).
    Route,
    /// Conservative two-phase locking comparator.
    TwoPhase,
}

impl Policy {
    /// All policies: baselines, the 2PL comparator, then the paper's three.
    pub const ALL: [Policy; 6] = [
        Policy::Unsync,
        Policy::Serial,
        Policy::TwoPhase,
        Policy::Basic,
        Policy::Bound,
        Policy::Route,
    ];

    /// Does this policy guarantee the isolation property?
    pub fn isolating(self) -> bool {
        !matches!(self, Policy::Unsync)
    }

    /// The kind of per-microprotocol cell this policy contends on, if any
    /// — what the static conflict analysis
    /// ([`ConflictMatrix`](crate::analysis::ConflictMatrix)) uses to decide
    /// which handler pairs can meet on the same cell.
    pub fn cell(self) -> Option<CellKind> {
        match self {
            Policy::Unsync => None,
            Policy::Serial | Policy::Basic | Policy::Bound | Policy::Route => {
                Some(CellKind::Version)
            }
            Policy::TwoPhase => Some(CellKind::Lock),
        }
    }

    /// The declaration this policy makes for a computation that may visit
    /// `protocols`, at most `bounds` times each, along `route` — each
    /// algorithm takes the one argument it understands (`Serial` and
    /// `Unsync` none).
    pub fn decl<'a>(
        self,
        protocols: &'a [ProtocolId],
        bounds: &'a [(ProtocolId, u64)],
        route: &'a RoutePattern,
    ) -> Decl<'a> {
        match self {
            Policy::Unsync => Decl::Unsync,
            Policy::Serial => Decl::Serial,
            Policy::Basic => Decl::Basic(protocols),
            Policy::Bound => Decl::Bound(bounds),
            Policy::Route => Decl::Route(route),
            Policy::TwoPhase => Decl::TwoPhase(protocols),
        }
    }

    /// Can a computation under this policy start on a microprotocol while
    /// an older one that declared it is still running? `Serial`, `Basic` and
    /// `TwoPhase` hold what they declare to completion (Rule 3), so two
    /// computations that share a microprotocol run one after the other and
    /// a thread given to the younger can only wait; `Bound` and `Route`
    /// release early (Rule 4) and `Unsync` never waits. Read in one place,
    /// [`Runtime::external`](crate::Runtime::external): what cannot overlap
    /// runs to completion on the thread that brought it.
    pub(crate) fn overlaps(self) -> bool {
        matches!(self, Policy::Unsync | Policy::Bound | Policy::Route)
    }

    /// Short display label (`vca-basic`, `two-phase`, …).
    pub fn label(self) -> &'static str {
        match self {
            Policy::Unsync => "unsync",
            Policy::Serial => "serial",
            Policy::Basic => "vca-basic",
            Policy::Bound => "vca-bound",
            Policy::Route => "vca-route",
            Policy::TwoPhase => "two-phase",
        }
    }
}

/// The kind of per-microprotocol synchronisation cell a [`Policy`]'s
/// admission control waits on. Versioning policies share one `(gv, lv)`
/// counter pair per microprotocol; the two-phase comparator uses a separate
/// lock table (and the two must not be mixed on overlapping
/// microprotocols).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// A `(gv_p, lv_p)` version-counter pair (Rules 1–4).
    Version,
    /// A slot of the two-phase-locking lock table.
    Lock,
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Which admission/completion rules a spawned computation follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CompMode {
    Unsync,
    Basic,
    Bound,
    Route,
    Locked,
}

/// Private version bookkeeping for one declared microprotocol (`pv[p]_k`,
/// `bound[p]_k`, and the number of visits consumed so far).
#[derive(Debug)]
pub(crate) struct PvEntry {
    pub(crate) pid: ProtocolId,
    /// The private version this computation obtained in Rule 1.
    pub(crate) pv: u64,
    /// Declared least upper bound on visits (1 for basic/route).
    pub(crate) bound: u64,
    /// Visits consumed; admission reserves before calling so that concurrent
    /// threads of the same computation cannot overrun the bound.
    pub(crate) used: AtomicU64,
}

/// The resolved specification of a computation: its mode plus the version
/// snapshot produced by Rule 1 (and the routing state for `VCAroute`).
pub(crate) struct CompSpec {
    pub(crate) mode: CompMode,
    /// Sorted by `pid` for binary search. Empty for `Unsync`.
    pub(crate) entries: Vec<PvEntry>,
    pub(crate) route: Option<Mutex<RouteState>>,
}

impl CompSpec {
    pub(crate) fn entry(&self, pid: ProtocolId) -> Option<&PvEntry> {
        self.entries
            .binary_search_by_key(&pid, |e| e.pid)
            .ok()
            .map(|i| &self.entries[i])
    }
}

impl fmt::Debug for CompSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompSpec")
            .field("mode", &self.mode)
            .field("entries", &self.entries)
            .finish_non_exhaustive()
    }
}

/// One slot of the two-phase-locking lock table: a blocking binary lock
/// whose guard can be released from a different thread than the one that
/// acquired it (a computation's completion may run on any of its worker
/// threads).
///
/// An instance of the parking seam ([`crate::version`] module docs): the
/// uncontended paths are pure atomics — acquire is one CAS, release one
/// store — a thread parks only after the CAS still fails past the probe
/// window, and release takes the park lock only when someone is parked.
#[derive(Debug, Default)]
pub(crate) struct LockCell {
    /// 0 = free, 1 = held.
    held: AtomicU64,
    seam: ParkSeam,
}

impl LockCell {
    pub(crate) fn new() -> Self {
        LockCell::default()
    }

    /// Full blocking acquire: probe, then park. The runtime runs the two
    /// halves itself (the parked one is what its blocked-time accounting
    /// brackets).
    #[cfg(test)]
    pub(crate) fn acquire(&self) {
        if crate::version::probe(|| self.try_acquire().then_some(())).is_none() {
            self.park_acquire();
        }
    }

    /// The parking tail of an acquisition, for after a failed probe.
    pub(crate) fn park_acquire(&self) {
        self.seam.park(|| self.try_acquire().then_some(()), || {});
    }

    /// Non-blocking acquire — one CAS.
    pub(crate) fn try_acquire(&self) -> bool {
        self.held
            .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    pub(crate) fn release(&self) {
        let prev = self.held.swap(0, Ordering::SeqCst);
        debug_assert!(prev == 1, "releasing a lock that is not held");
        self.seam.wake();
    }
}

/// Remaining-budget view used by tests and diagnostics.
impl PvEntry {
    pub(crate) fn reserve(&self) -> bool {
        // fetch_add returns the previous value; previous < bound means this
        // reservation is within budget.
        self.used.fetch_add(1, Ordering::AcqRel) < self.bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn policy_display_names() {
        assert_eq!(Policy::Basic.to_string(), "vca-basic");
        assert_eq!(Policy::Serial.to_string(), "serial");
        assert!(Policy::Serial.isolating());
        assert!(!Policy::Unsync.isolating());
        assert_eq!(Policy::ALL.len(), 6);
    }

    #[test]
    fn policy_cell_kinds() {
        assert_eq!(Policy::Unsync.cell(), None);
        assert_eq!(Policy::TwoPhase.cell(), Some(CellKind::Lock));
        for p in [Policy::Serial, Policy::Basic, Policy::Bound, Policy::Route] {
            assert_eq!(p.cell(), Some(CellKind::Version), "{p}");
        }
    }

    #[test]
    fn only_early_release_and_no_isolation_overlap() {
        let overlapping: Vec<Policy> = Policy::ALL.into_iter().filter(|p| p.overlaps()).collect();
        assert_eq!(overlapping, [Policy::Unsync, Policy::Bound, Policy::Route]);
    }

    #[test]
    fn decl_and_policy_are_inverse() {
        let protocols = [ProtocolId(0), ProtocolId(1)];
        let bounds = [(ProtocolId(0), 2), (ProtocolId(1), 1)];
        let route = RoutePattern::new();
        for p in Policy::ALL {
            assert_eq!(p.decl(&protocols, &bounds, &route).policy(), p, "{p}");
        }
        // Each algorithm gets the argument it understands.
        assert!(matches!(
            Policy::TwoPhase.decl(&protocols, &bounds, &route),
            Decl::TwoPhase(m) if m == protocols
        ));
        assert!(matches!(
            Policy::Bound.decl(&protocols, &bounds, &route),
            Decl::Bound(m) if m == bounds
        ));
    }

    #[test]
    fn pv_entry_reserve_respects_bound() {
        let e = PvEntry {
            pid: ProtocolId(0),
            pv: 3,
            bound: 2,
            used: AtomicU64::new(0),
        };
        assert!(e.reserve());
        assert!(e.reserve());
        assert!(!e.reserve());
        assert!(!e.reserve());
    }

    #[test]
    fn lock_cell_mutual_exclusion() {
        let cell = Arc::new(LockCell::new());
        cell.acquire();
        let c2 = Arc::clone(&cell);
        let t = std::thread::spawn(move || {
            c2.acquire();
            c2.release();
            true
        });
        std::thread::sleep(Duration::from_millis(10));
        assert!(!t.is_finished(), "second acquire should block");
        cell.release();
        assert!(t.join().unwrap());
    }

    #[test]
    fn lock_cell_try_acquire() {
        let cell = LockCell::new();
        assert!(cell.try_acquire());
        assert!(!cell.try_acquire());
        cell.release();
        assert!(cell.try_acquire());
        cell.release();
    }

    #[test]
    fn lock_cell_cross_thread_release() {
        let cell = Arc::new(LockCell::new());
        cell.acquire();
        let c2 = Arc::clone(&cell);
        // Release from another thread, as completion may do.
        std::thread::spawn(move || c2.release()).join().unwrap();
        cell.acquire();
        cell.release();
    }

    #[test]
    fn comp_spec_entry_lookup() {
        let spec = CompSpec {
            mode: CompMode::Basic,
            entries: vec![
                PvEntry {
                    pid: ProtocolId(1),
                    pv: 1,
                    bound: 1,
                    used: AtomicU64::new(0),
                },
                PvEntry {
                    pid: ProtocolId(4),
                    pv: 2,
                    bound: 1,
                    used: AtomicU64::new(0),
                },
            ],
            route: None,
        };
        assert_eq!(spec.entry(ProtocolId(4)).unwrap().pv, 2);
        assert!(spec.entry(ProtocolId(2)).is_none());
    }
}
