//! Scheduling instrumentation: the hook a systematic-testing controller
//! plugs into the runtime.
//!
//! The runtime's observable nondeterminism comes from a handful of decision
//! points: who wins the global spawn lock (Rule 1 order), when a blocked
//! admission wait is woken (Rule 2), which queued task a worker dequeues,
//! and when an early release (VCAbound's per-visit bump, VCAroute's
//! reachability scan) hands a microprotocol to a successor. [`SchedHook`]
//! exposes exactly those points. A controller that implements it — the
//! `samoa-check` crate ships one — can serialise the runtime's threads into
//! cooperative turn-taking and *choose* each interleaving instead of leaving
//! it to the OS scheduler, which is what makes schedule exploration and
//! deterministic replay possible.
//!
//! ## Contract
//!
//! * Threads announce themselves: the runtime calls [`SchedHook::on_thread_spawn`]
//!   in the *spawning* thread (returning a token), then
//!   [`SchedHook::on_thread_start`] as the first action of the new thread and
//!   [`SchedHook::on_thread_exit`] as its last. A controller can therefore
//!   account for every runtime thread with no startup race. A "thread" here
//!   is one job of the runtime's executor: the OS thread under it may be a
//!   reused one, so the same `ThreadId` can start again after its exit — a
//!   controller keyed on `ThreadId` overwrites the entry at each start.
//! * [`SchedHook::yield_point`] marks a scheduling decision point. A
//!   controller typically parks the calling thread there until it is that
//!   thread's turn.
//! * Blocking is cooperative: where the uninstrumented runtime would wait on
//!   a condition variable, the instrumented runtime loops
//!   `check-predicate → SchedHook::block(resource)`. The hook returns once
//!   the controller re-schedules the thread (after a matching
//!   [`SchedHook::signal`]); the caller re-checks its predicate and blocks
//!   again if it still does not hold. Spurious wake-ups are therefore
//!   harmless, and a signal can never be lost as long as signals are only
//!   issued by the running thread.
//!
//! Production runtimes carry **no hook at all** (`Option::None`), so the
//! per-operation cost of this instrumentation is one well-predicted branch.

use crate::error::CompId;
use crate::protocol::ProtocolId;

/// A scheduling decision point inside the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPoint {
    /// Rule 1 is about to run for a new computation: the calling thread is
    /// about to take the global spawn lock and allocate versions.
    Spawn,
    /// A worker thread of `comp` dequeued a task and is about to run it.
    TaskDequeue {
        /// The computation whose task was dequeued.
        comp: CompId,
    },
    /// `comp` is about to run the Rule 2 admission check for a handler of
    /// `protocol` (for `Unsync` computations: about to call the handler —
    /// there is no admission, but the interleaving point still exists).
    Admission {
        /// The computation requesting admission.
        comp: CompId,
        /// The microprotocol owning the handler about to run.
        protocol: ProtocolId,
    },
    /// `comp` just released `protocol` to its successors *before*
    /// completing — Rule 4 of VCAbound (a visit was consumed) or VCAroute
    /// (the microprotocol became unreachable from active handlers).
    EarlyRelease {
        /// The releasing computation.
        comp: CompId,
        /// The released microprotocol.
        protocol: ProtocolId,
        /// Which rule triggered the release.
        reason: ReleaseReason,
    },
}

/// Why a microprotocol was released before its computation completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReleaseReason {
    /// VCAbound Rule 4: a handler call finished, consuming one declared
    /// visit; the local version advanced by one.
    BoundVisit,
    /// VCAroute: the microprotocol is no longer active or reachable from an
    /// active handler in the declared routing pattern.
    RouteUnreachable,
}

/// A waitable resource inside the runtime, identifying *what* a
/// cooperatively blocked thread is waiting for — and, for dependence-aware
/// exploration (DPOR), *what shared state* a scheduling step touches. The
/// `Version`/`Lock` variants stand for the microprotocol as a whole (its
/// version counters *and* its local state, which admission guards), so two
/// steps conflict exactly when they name a common resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SchedResource {
    /// The local version counter (`lv_p`) of the microprotocol with this
    /// index: admission waits (Rule 2) and completion upgrades (Rule 3).
    Version(u32),
    /// The 2PL lock-table slot of the microprotocol with this index.
    Lock(u32),
    /// The task queue of a computation: workers waiting for work.
    Queue(CompId),
    /// Completion of a computation: `join`/blocking-run waiters.
    Done(CompId),
    /// The runtime's active-computation count: `quiesce` waiters.
    Quiesce,
    /// Rule 1's atomicity domain: the global spawn lock and the `gv`
    /// counters it allocates pre-versions from. Every pair of spawns
    /// conflicts (their order decides computation age).
    SpawnLock,
    /// The network fate of one site: its inbound/outbound channel state and
    /// its liveness. Sends to a site, deliveries at it, and the decision to
    /// crash or isolate it all name this resource, so they are mutually
    /// ordered by dependence-aware exploration.
    NetSite(u16),
    /// One in-flight datagram, by the transport's monotone send sequence
    /// number. The alternatives for a single message (deliver it, drop it,
    /// duplicate it) conflict with each other through this resource.
    Msg(u64),
    /// The scenario's fault budget: every budget-consuming fault decision
    /// (crash, drop, duplicate, partition) names it, so faults are totally
    /// ordered — which alternatives remain depends on what was spent.
    FaultBudget,
    /// The virtual timer wheel of a fault scenario: advancing time (and the
    /// retransmission/failure-detector ticks it fires) conflicts with every
    /// other tick.
    TimeWheel,
}

/// One alternative of an *external* decision point: an environment move —
/// deliver this in-flight datagram, drop it, crash that site, advance the
/// timer wheel — that a fault-exploring scenario offers to the controller.
///
/// `id` is a pseudo-thread identity: it must be *stable* (the same physical
/// alternative gets the same id in every run that shares the decision
/// prefix) and must never collide with a real controller thread id, so a
/// dependence-aware explorer can treat environment moves exactly like
/// thread steps. `footprint` is the move's [`SchedResource`] set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExternalChoice {
    /// Stable pseudo-thread id of this alternative (disjoint from real
    /// controller thread ids).
    pub id: u32,
    /// The shared state this move touches, in DPOR's resource vocabulary.
    pub footprint: Vec<SchedResource>,
}

impl ExternalChoice {
    /// Convenience constructor.
    pub fn new(id: u32, footprint: Vec<SchedResource>) -> ExternalChoice {
        ExternalChoice { id, footprint }
    }
}

/// Instrumentation hook for schedule control (see module docs).
///
/// Every method has a no-op default, so a hook only overrides what it needs.
/// Implementations must be `Send + Sync`; methods are called concurrently
/// from runtime threads.
pub trait SchedHook: Send + Sync {
    /// A new runtime thread is about to be spawned by the calling thread.
    /// Returns a token passed to [`SchedHook::on_thread_start`] by the new
    /// thread, letting the controller tie the two ends together.
    fn on_thread_spawn(&self) -> u64 {
        0
    }

    /// [`SchedHook::on_thread_spawn`] with a *static seed*: an upper bound,
    /// known before the thread runs, on every [`SchedResource`] it can ever
    /// touch. The runtime derives the seed from the computation's resolved
    /// declaration (its version/lock entries plus its queue, completion and
    /// quiesce resources) and only announces one when it is sound — never
    /// for `Unsync` computations, which declare nothing. (A computation's
    /// code cannot start another, so its declaration is the bound; see
    /// [`crate::ctx`]. A computation started by one of its
    /// [`after_completion`](crate::Ctx::after_completion) effects is not
    /// inside that bound, and no hooked scenario starts one that way.) A
    /// dependence-aware controller can treat the seed as the
    /// thread's pending footprint before its first real announcement, which
    /// lets DPOR prove steps of statically disjoint computations
    /// independent without exploring both orders. The default discards the
    /// seed and forwards to [`SchedHook::on_thread_spawn`].
    fn on_thread_spawn_with(&self, static_footprint: &[SchedResource]) -> u64 {
        let _ = static_footprint;
        self.on_thread_spawn()
    }

    /// First action of a newly spawned runtime thread.
    fn on_thread_start(&self, token: u64) {
        let _ = token;
    }

    /// Last action of a runtime thread before it terminates.
    fn on_thread_exit(&self) {}

    /// A scheduling decision point was reached by the calling thread.
    fn yield_point(&self, point: SchedPoint) {
        let _ = point;
    }

    /// A scheduling decision point, annotated with its resource footprint:
    /// the [`SchedResource`]s the surrounding action touches. Two steps of
    /// different threads are *dependent* — their order can matter — iff
    /// their footprints intersect; that relation is what a partial-order-
    /// reducing explorer prunes with. Whether the footprint describes the
    /// action *before* or *after* the yield is fixed per [`SchedPoint`]
    /// (e.g. `Admission` announces the upcoming handler's protocol,
    /// `TaskDequeue` reports the queue pop that just happened); a consumer
    /// that cares — the `samoa-check` controller — attributes it
    /// accordingly. The default forwards to [`SchedHook::yield_point`], so
    /// footprint-oblivious hooks need not change.
    fn yield_point_with(&self, point: SchedPoint, footprint: &[SchedResource]) {
        let _ = footprint;
        self.yield_point(point);
    }

    /// A silent resource touch: the calling thread accessed `resource`
    /// *without* reaching a scheduling decision point — e.g. a handler
    /// body reading or writing a microprotocol's local state between
    /// yields. Dependence-aware exploration needs these accesses in the
    /// current step's footprint (two unsynchronised handlers touching the
    /// same state conflict even though no yield separates the accesses),
    /// but they must never reschedule, so this is not a yield.
    fn note(&self, resource: SchedResource) {
        let _ = resource;
    }

    /// Cooperative block: the calling thread found its wait predicate false
    /// and yields until `resource` is signalled. Callers re-check their
    /// predicate on return and call `block` again if it still fails.
    fn block(&self, resource: SchedResource) {
        let _ = resource;
    }

    /// `resource` changed in a way that may unblock waiters.
    fn signal(&self, resource: SchedResource) {
        let _ = resource;
    }

    /// An *external* decision point: the calling thread (which currently
    /// holds the turn, under a serialising controller) offers `alts` —
    /// environment moves such as message delivery, fault injection, or a
    /// timer tick — and the hook picks one. Returns an index into `alts`.
    ///
    /// Callers must pass the alternatives in a canonical order that is a
    /// pure function of the decision history (sorted by
    /// [`ExternalChoice::id`] is the convention), so replaying a recorded
    /// choice sequence re-offers the identical slice. The default picks the
    /// first alternative, which makes uninstrumented runs deterministic.
    fn choose_external(&self, alts: &[ExternalChoice]) -> usize {
        let _ = alts;
        0
    }
}

/// The do-nothing hook; useful as a placeholder in tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopHook;

impl SchedHook for NoopHook {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_hook_defaults() {
        let h = NoopHook;
        assert_eq!(h.on_thread_spawn(), 0);
        h.on_thread_start(0);
        h.yield_point(SchedPoint::Spawn);
        h.block(SchedResource::Quiesce);
        h.signal(SchedResource::Version(0));
        h.on_thread_exit();
    }

    #[test]
    fn resources_are_hashable_and_distinct() {
        use std::collections::HashSet;
        let set: HashSet<SchedResource> = [
            SchedResource::Version(0),
            SchedResource::Version(1),
            SchedResource::Lock(0),
            SchedResource::Queue(1),
            SchedResource::Done(1),
            SchedResource::Quiesce,
            SchedResource::SpawnLock,
            SchedResource::NetSite(0),
            SchedResource::NetSite(1),
            SchedResource::Msg(0),
            SchedResource::Msg(1),
            SchedResource::FaultBudget,
            SchedResource::TimeWheel,
        ]
        .into_iter()
        .collect();
        assert_eq!(set.len(), 13);
    }

    #[test]
    fn choose_external_defaults_to_first_alternative() {
        let h = NoopHook;
        let alts = [
            ExternalChoice::new(4096, vec![SchedResource::Msg(0)]),
            ExternalChoice::new(4100, vec![SchedResource::Msg(1)]),
        ];
        assert_eq!(h.choose_external(&alts), 0);
    }

    #[test]
    fn seeded_spawn_defaults_to_plain_spawn() {
        struct Tok;
        impl SchedHook for Tok {
            fn on_thread_spawn(&self) -> u64 {
                7
            }
        }
        let h = Tok;
        assert_eq!(h.on_thread_spawn_with(&[SchedResource::Version(0)]), 7);
    }

    #[test]
    fn yield_point_with_defaults_to_plain_yield() {
        // A hook that only overrides `yield_point` still sees annotated
        // yields through the default forwarding.
        use std::sync::atomic::{AtomicU32, Ordering};
        struct Count(AtomicU32);
        impl SchedHook for Count {
            fn yield_point(&self, _point: SchedPoint) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let h = Count(AtomicU32::new(0));
        h.yield_point_with(SchedPoint::Spawn, &[SchedResource::SpawnLock]);
        assert_eq!(h.0.load(Ordering::Relaxed), 1);
    }
}
