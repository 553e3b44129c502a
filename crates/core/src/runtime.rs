//! The SAMOA runtime: spawning computations and enforcing isolation.
//!
//! [`Runtime`] owns the immutable [`Stack`], the per-microprotocol version
//! cells (`lv_p`), the global version counters (`gv_p`, under one spawn lock
//! so Rule 1 is atomic), the 2PL lock table for the comparator policy, and
//! the optional history recorder.
//!
//! A computation is started, under the [`Decl`] it is given, either
//! *blocking* ([`Runtime::run`] — the calling thread becomes the computation's
//! root worker and the call returns after the computation has completed) or
//! *detached* ([`Runtime::spawn`] — Rule 1 still executes synchronously in
//! the caller, so spawn order determines version order, then the body is
//! handed as a root job to a thread of the executor — a cached worker, or a
//! new thread if none is idle, never a queue — and the caller gets a
//! [`CompHandle`], whose `join` runs the job itself if it gets there before
//! the worker does).
//!
//! A computation starts only at an external event (§4): called by the code
//! of a running computation — its closure body, a handler, a [`Ctx::spawn`]
//! closure — both refuse with [`SamoaError::NestedSpawn`] (`spawn` by
//! panicking). A computation another one *causes* (§2) is started after its
//! cause has completed, from an effect queued with [`Ctx::after_completion`].
//!
//! A *host* — a node with sockets, timers and clients around a runtime —
//! picks neither: it hands each external event to [`Runtime::external`],
//! which holds the ingress rule (see [`crate::external`]).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::computation::{panic_message, ComputationInner, PostAction};
use crate::ctx::Ctx;
use crate::error::{CompId, Result, SamoaError};
use crate::exec::Handed;
use crate::external::{ExtGate, External};
use crate::graph::{RoutePattern, RouteState};
use crate::handler::HandlerId;
use crate::history::{History, HistoryRecorder, IsolationViolation};
use crate::policy::{CompMode, CompSpec, LockCell, Policy, PvEntry};
use crate::protocol::ProtocolId;
use crate::sched::{SchedHook, SchedPoint, SchedResource};
use crate::stack::Stack;
use crate::trace::{TraceCtl, TraceKind, TraceSink, WaitForGraph};
use crate::version::{CachePadded, ParkSeam, VersionCell};

/// Tunables of a [`Runtime`].
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Record runs and state accesses for the isolation checker
    /// ([`Runtime::history`]). Off by default; recording adds a global
    /// mutex acquisition per handler call and state access.
    pub record_history: bool,
    /// Upper limit on worker threads per computation (≥ 1). The root worker
    /// always exists; extra workers are spawned on demand for asynchronous
    /// events and `Ctx::spawn` closures.
    pub max_threads_per_computation: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            record_history: false,
            max_threads_per_computation: 4,
        }
    }
}

impl RuntimeConfig {
    /// A config with history recording enabled — what the isolation tests
    /// and `samoa-check`'s scenarios run under.
    pub fn recording() -> Self {
        RuntimeConfig {
            record_history: true,
            ..RuntimeConfig::default()
        }
    }
}

/// Declaration of a computation: which concurrency-control algorithm it runs
/// under and what it declares a priori (paper §4).
///
/// What [`Runtime::run`] and [`Runtime::spawn`] take, the one way to start
/// a computation in the process; hosts ([`Runtime::external`]) make one from
/// a [`Policy`] with [`Policy::decl`].
#[derive(Debug, Clone)]
pub enum Decl<'a> {
    /// `isolated M e` (§5.1) — VCAbasic over the microprotocols in `M`,
    /// each released when the computation completes.
    Basic(&'a [ProtocolId]),
    /// `isolated bound M e` (§5.2) — VCAbound: each microprotocol is declared
    /// with a least upper bound on visits and released to successors as soon
    /// as its budget is exhausted.
    ///
    /// ```
    /// # use samoa_core::prelude::*;
    /// let mut b = StackBuilder::new();
    /// let p = b.protocol("P");
    /// let e = b.event("E");
    /// b.bind(e, p, "h", |_, _| Ok(()));
    /// let rt = Runtime::new(b.build());
    /// let twice = |ctx: &Ctx| {
    ///     ctx.trigger(e, EventData::empty())?;
    ///     ctx.trigger(e, EventData::empty())
    /// };
    /// // Two visits declared, two performed: fine.
    /// rt.run(Decl::Bound(&[(p, 2)]), twice).unwrap();
    /// // A visit beyond the bound is a BoundExhausted error:
    /// let err = rt.run(Decl::Bound(&[(p, 1)]), twice).unwrap_err();
    /// assert!(matches!(err, SamoaError::BoundExhausted { .. }));
    /// ```
    Bound(&'a [(ProtocolId, u64)]),
    /// `isolated route M e` (§5.3) — VCAroute over a routing pattern: which
    /// handlers the closure body may call (roots) and which handler may call
    /// which (edges). A microprotocol is released as soon as none of its
    /// handlers is active or reachable from an active handler.
    ///
    /// ```
    /// # use samoa_core::prelude::*;
    /// let mut b = StackBuilder::new();
    /// let (p, q) = (b.protocol("P"), b.protocol("Q"));
    /// let (e1, e2) = (b.event("E1"), b.event("E2"));
    /// let h2 = b.bind(e2, q, "h2", |_, _| Ok(()));
    /// let h1 = b.bind(e1, p, "h1", move |ctx, _| ctx.trigger(e2, EventData::empty()));
    /// let rt = Runtime::new(b.build());
    /// let pattern = RoutePattern::new().root(h1).edge(h1, h2);
    /// rt.run(Decl::Route(&pattern), |ctx| ctx.trigger(e1, EventData::empty()))
    ///     .unwrap();
    /// ```
    Route(&'a RoutePattern),
    /// The paper's Appia baseline: purely serial handling of external
    /// events, `M` = every microprotocol in the stack.
    Serial,
    /// The paper's Cactus baseline without programmer-supplied locks: no
    /// admission control, so isolation can be violated.
    Unsync,
    /// Conservative two-phase locking over `M`, the classical blocking
    /// comparator of §6 (do not mix with versioning computations on
    /// overlapping microprotocols).
    TwoPhase(&'a [ProtocolId]),
}

impl Decl<'_> {
    /// The algorithm this declaration runs under — the inverse of
    /// [`Policy::decl`].
    pub fn policy(&self) -> Policy {
        match self {
            Decl::Basic(_) => Policy::Basic,
            Decl::Bound(_) => Policy::Bound,
            Decl::Route(_) => Policy::Route,
            Decl::Serial => Policy::Serial,
            Decl::Unsync => Policy::Unsync,
            Decl::TwoPhase(_) => Policy::TwoPhase,
        }
    }
}

/// Point-in-time runtime counters (see [`Runtime::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RuntimeStats {
    /// Computations spawned so far.
    pub computations_spawned: u64,
    /// Computations fully completed (Rule 3 done).
    pub computations_completed: u64,
    /// Handler calls executed.
    pub handler_calls: u64,
    /// Total time computations spent *descheduled* in admission — parked
    /// on a version or lock cell (or cooperatively blocked under a
    /// `SchedHook`) in Rule 2 waits and 2PL lock acquisition. The direct
    /// cost of isolation. The bounded probe that precedes parking (64 busy
    /// spins, then 32 yields) is the fast path and is not counted: a
    /// probing waiter is still runnable, and at fine grain most conflicts
    /// resolve inside it without the thread ever leaving the CPU. Summed
    /// across threads, so under coarse-grain contention it can exceed
    /// wall-clock time.
    ///
    /// Because only the parked phase counts, this (and the process-wide
    /// `version::parks`) *rises* when waiters give the CPU up sooner: on
    /// `rt-pipeline-io` the same ~400 µs waits behind a sleeping stage were
    /// spent runnable, yielding, while the probe ran for up to 1 ms, and are
    /// spent parked since it ends after 32 yields (PR 25) — a higher
    /// count, a faster pipeline.
    pub admission_wait: std::time::Duration,
    /// Rule 4 early releases by VCAbound computations: one per handler call
    /// whose completion advanced `lv_p` before the computation finished.
    pub bound_releases: u64,
    /// Microprotocols released early by VCAroute computations (released by
    /// the reachability scan, before Rule 3 completion).
    pub route_releases: u64,
    /// Times a thread blocked on a version cell woke up and re-checked its
    /// admission/completion predicate — how "churny" the version waits are.
    pub version_wait_wakeups: u64,
    /// External computations ([`Runtime::external`]) that ended in an error,
    /// wherever in the computation it was raised. Nobody joins them, so this
    /// count is the only place a host's swallowed error shows; 0 on a
    /// healthy stack.
    pub external_errors: u64,
}

impl std::fmt::Display for RuntimeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} computations ({} completed), {} handler calls, \
             admission wait {:.3}ms, {} bound / {} route early releases, \
             {} version-wait wakeups, {} external errors",
            self.computations_spawned,
            self.computations_completed,
            self.handler_calls,
            self.admission_wait.as_secs_f64() * 1e3,
            self.bound_releases,
            self.route_releases,
            self.version_wait_wakeups,
            self.external_errors,
        )
    }
}

#[derive(Default)]
pub(crate) struct StatCounters {
    completed: AtomicU64,
    handler_calls: AtomicU64,
    admission_wait_ns: AtomicU64,
    bound_releases: AtomicU64,
    route_releases: AtomicU64,
    /// Shared with every `VersionCell` of the runtime (each cell increments
    /// this same counter on waiter wake-ups), so the stats snapshot is a
    /// single load.
    version_wait_wakeups: Arc<AtomicU64>,
    external_errors: AtomicU64,
}

impl StatCounters {
    pub(crate) fn note_handler_call(&self) {
        self.handler_calls.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_admission_wait(&self, d: std::time::Duration) {
        self.admission_wait_ns
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    pub(crate) fn note_bound_release(&self) {
        self.bound_releases.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_route_releases(&self, n: u64) {
        self.route_releases.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn note_external_error(&self) {
        self.external_errors.fetch_add(1, Ordering::Relaxed);
    }
}

/// The gate bit of a `gv` word: bit 0 marks the cell as held by a Rule-1
/// sweep; the version value lives in the upper 63 bits.
const GV_GATE: u64 = 1;

pub(crate) struct RuntimeInner {
    pub(crate) stack: Stack,
    /// Per-microprotocol `lv_p` cells, cache-line padded so neighbouring
    /// protocols never false-share.
    pub(crate) versions: Vec<CachePadded<VersionCell>>,
    /// The 2PL lock table — one padded slot per microprotocol.
    pub(crate) locks: Vec<CachePadded<LockCell>>,
    pub(crate) history: HistoryRecorder,
    pub(crate) config: RuntimeConfig,
    pub(crate) stats: StatCounters,
    /// Schedule-control hook ([`Runtime::with_parts`]); `None` in production,
    /// so the instrumented paths cost one branch.
    pub(crate) hook: Option<Arc<dyn SchedHook>>,
    /// Trace sink + wait-for registry ([`Runtime::with_trace`]); `None` when
    /// untraced, so — like `hook` — every trace site costs one branch.
    pub(crate) trace: Option<TraceCtl>,
    /// Global version counters, one padded atomic per microprotocol with an
    /// embedded gate bit ([`GV_GATE`]). Rule 1's atomicity domain: a spawn
    /// gates every *declared* cell (ascending pid, strict two-phase) instead
    /// of one global mutex, so disjoint spawns never serialise.
    gv: Vec<CachePadded<AtomicU64>>,
    /// Computations spawned so far: the last id handed out.
    comp_seq: AtomicU64,
    /// Computations spawned but not yet completed. Plain atomic; `quiesce`
    /// parks on the `quiesce` seam only while this is nonzero.
    active: AtomicU64,
    quiesce: ParkSeam,
    /// Bounds the detached computations of [`Runtime::external`].
    pub(crate) ext_gate: Arc<ExtGate>,
    /// What each entry event of the stack declares ([`Runtime::enter`]),
    /// derived when the runtime is built.
    pub(crate) entries: Vec<External>,
}

/// A condition a thread of this runtime can be descheduled on — as data,
/// so that [`RuntimeInner::wait`] can try it, park on it and name it to a
/// [`SchedHook`] without a closure per call site.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Wait {
    /// `lv + k >= pv` on version cell `idx` (the cell's admission pair,
    /// see [`VersionCell`]).
    Version { idx: usize, pv: u64, k: u64 },
    /// 2PL lock slot `idx`, taken by the waiter when the wait ends.
    Lock(usize),
    /// No computation is active.
    Quiesce,
}

impl Wait {
    fn resource(self) -> SchedResource {
        match self {
            Wait::Version { idx, .. } => SchedResource::Version(idx as u32),
            Wait::Lock(idx) => SchedResource::Lock(idx as u32),
            Wait::Quiesce => SchedResource::Quiesce,
        }
    }
}

impl RuntimeInner {
    pub(crate) fn computation_finished(&self) {
        self.stats.completed.fetch_add(1, Ordering::Relaxed);
        if self.active.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.quiesce.wake();
            if let Some(h) = &self.hook {
                h.signal(SchedResource::Quiesce);
            }
        }
    }

    /// Active (spawned, not yet completed) computations right now.
    pub(crate) fn active_count(&self) -> u64 {
        self.active.load(Ordering::SeqCst)
    }

    // ---- blocking ----
    //
    // Every wait on a version cell, a lock slot or the quiesce gate goes
    // through `wait`, in the seam's three steps (`version.rs` module docs):
    // try, probe, deschedule. Free-running, "deschedule" parks on the seam;
    // with a hook installed it is a try → `SchedHook::block` loop, so the
    // controller owns the interleaving — and every change of a waited-on
    // word signals the matching resource.

    /// One non-blocking try of `w`.
    fn attempt(&self, w: Wait) -> bool {
        match w {
            Wait::Version { idx, pv, k } => self.versions[idx].try_admit(pv, k).is_some(),
            Wait::Lock(idx) => self.locks[idx].try_acquire(),
            Wait::Quiesce => self.active_count() == 0,
        }
    }

    /// The descheduled phase of a wait, after a failed probe. The one place
    /// that knows whether the runtime is free-running or hooked.
    fn block(&self, w: Wait) {
        match (&self.hook, w) {
            (None, Wait::Version { idx, pv, k }) => {
                self.versions[idx].park_admit(pv, k);
            }
            (None, Wait::Lock(idx)) => self.locks[idx].park_acquire(),
            (None, Wait::Quiesce) => self.quiesce.park(|| self.attempt(w).then_some(()), || {}),
            (Some(h), _) => {
                while !self.attempt(w) {
                    h.block(w.resource());
                    if let Wait::Version { idx, .. } = w {
                        self.versions[idx].note_wakeup();
                    }
                }
            }
        }
    }

    /// Wait until `w` holds. The probe — 64 spins and 32 yields when
    /// free-running, a single try under a hook (spinning would perturb the
    /// cooperative schedule) — resolves most waits without descheduling;
    /// only a wait that outlives it blocks, which is every wait on a holder
    /// that is off the CPU (asleep in a handler, blocked on a socket).
    ///
    /// `admitting` names the computation when the wait is an *admission*
    /// (Rule 2, 2PL growing phase; not Rule 3, not `quiesce`). Admissions
    /// own the `admission_wait` accounting and the trace's view of
    /// blocking, both with the same parked-only definition: the clock and
    /// the `WaitBegin`/`WaitEnd` span (with the blocking computation's
    /// identity) bracket only the descheduled phase, and only then does the
    /// waiter appear in the wait-for graph of `Runtime::waiters`. A probing
    /// waiter is runnable, not blocked: an admission that resolves in the
    /// probe reads no clock, takes no lock and records nothing (a waiter
    /// headed for a real block shows up at most 64 spins and 32 yields
    /// late).
    pub(crate) fn wait(&self, w: Wait, admitting: Option<CompId>) {
        let passed = match &self.hook {
            None => crate::version::probe(|| self.attempt(w).then_some(())).is_some(),
            Some(_) => self.attempt(w),
        };
        if passed {
            return;
        }
        let Some(comp) = admitting else {
            return self.block(w);
        };
        let clock = std::time::Instant::now();
        let span = self.trace.as_ref().map(|t| {
            let (idx, blocker) = match w {
                // The blocker is the oldest holder in `(lv, pv]` other than
                // the waiter, which skips its own hold at `pv`.
                Wait::Version { idx, pv, .. } => {
                    let lv = self.versions[idx].get();
                    (idx, t.wait_begin(comp, idx, pv + 1, lv))
                }
                // The lock table does not track owners: no blocker.
                Wait::Lock(idx) => {
                    t.lock_wait_begin(comp, idx);
                    (idx, None)
                }
                Wait::Quiesce => unreachable!("quiesce admits no computation"),
            };
            let protocol = ProtocolId(idx as u32);
            let t0 = t.now_ns();
            t.emit_at(
                t0,
                TraceKind::WaitBegin {
                    comp,
                    protocol,
                    blocker,
                },
            );
            (t, protocol, blocker, t0)
        });
        self.block(w);
        self.stats.note_admission_wait(clock.elapsed());
        if let Some((t, protocol, blocker, t0)) = span {
            let t1 = t.now_ns();
            t.wait_end(comp, protocol.index());
            t.emit_at(
                t1,
                TraceKind::WaitEnd {
                    comp,
                    protocol,
                    wait_ns: t1.saturating_sub(t0),
                    blocker,
                },
            );
        }
    }

    /// Rule-3 completion step for one cell: wait until `lv + k >= pv`, then
    /// raise `lv` to at least `pv`. Every completion action is a monotone
    /// raise, so an unlocked check + `fetch_max` is linearizable against
    /// concurrent bumps (see `version.rs` module docs).
    pub(crate) fn raise_when_admitted(&self, idx: usize, pv: u64, k: u64) {
        self.wait(Wait::Version { idx, pv, k }, None);
        self.versions[idx].raise_to(pv);
        self.vsignal(idx);
    }

    /// Wake cooperative waiters of version cell `idx` (no-op without hook).
    pub(crate) fn vsignal(&self, idx: usize) {
        if let Some(h) = &self.hook {
            h.signal(SchedResource::Version(idx as u32));
        }
    }

    /// Release 2PL lock `idx` and wake waiters.
    pub(crate) fn lock_release(&self, idx: usize) {
        self.locks[idx].release();
        if let Some(h) = &self.hook {
            h.signal(SchedResource::Lock(idx as u32));
        }
    }
}

/// The entry point of the framework. Cheap to clone (`Arc` inside).
#[derive(Clone)]
pub struct Runtime {
    pub(crate) inner: Arc<RuntimeInner>,
}

impl Runtime {
    /// Create a runtime over a finished stack with default configuration.
    pub fn new(stack: Stack) -> Self {
        Runtime::with_config(stack, RuntimeConfig::default())
    }

    /// Create a runtime with explicit configuration.
    pub fn with_config(stack: Stack, config: RuntimeConfig) -> Self {
        Runtime::with_parts(stack, config, None, None)
    }

    /// Create a runtime with a [`TraceSink`] attached (see
    /// [`Runtime::with_parts`] and [`crate::trace`]).
    pub fn with_trace(stack: Stack, config: RuntimeConfig, sink: Arc<dyn TraceSink>) -> Self {
        Runtime::with_parts(stack, config, None, Some(sink))
    }

    /// The general constructor: a configuration plus the two optional
    /// attachments, in any combination.
    ///
    /// * `hook` — schedule control (see [`crate::sched`]): every scheduling
    ///   decision point and blocking wait in this runtime reports to — and
    ///   is controlled by — the hook; the `samoa-check` crate uses this to
    ///   explore thread interleavings systematically.
    /// * `sink` — structured tracing (see [`crate::trace`]): every
    ///   computation lifecycle point — spawn, Rule 2 admission waits with
    ///   the blocking computation's identity, handler enter/exit, Rule 4
    ///   early releases, Rule 3 completion — is delivered to the sink as a
    ///   timestamped event, and [`Runtime::waiters`] reports live wait-for
    ///   edges.
    ///
    /// Both together give a controlled exploration that also records the
    /// trace; `samoa-check`'s trace-guided search steers schedule
    /// perturbation toward the microprotocols where admission waits
    /// concentrate.
    pub fn with_parts(
        stack: Stack,
        config: RuntimeConfig,
        hook: Option<Arc<dyn SchedHook>>,
        sink: Option<Arc<dyn TraceSink>>,
    ) -> Self {
        let n = stack.protocol_count();
        let entries = stack.inner.entries.iter();
        let entries = entries.map(|&e| External::new(&stack, e)).collect();
        let stats = StatCounters::default();
        Runtime {
            inner: Arc::new(RuntimeInner {
                versions: (0..n)
                    .map(|_| {
                        CachePadded(VersionCell::with_counter(Arc::clone(
                            &stats.version_wait_wakeups,
                        )))
                    })
                    .collect(),
                locks: (0..n).map(|_| CachePadded(LockCell::new())).collect(),
                history: HistoryRecorder::new(config.record_history),
                stats,
                hook,
                trace: sink.map(|s| TraceCtl::new(s, n)),
                gv: (0..n).map(|_| CachePadded(AtomicU64::new(0))).collect(),
                comp_seq: AtomicU64::new(0),
                active: AtomicU64::new(0),
                quiesce: ParkSeam::default(),
                ext_gate: Arc::default(),
                entries,
                stack,
                config,
            }),
        }
    }

    /// The stack this runtime executes.
    pub fn stack(&self) -> &Stack {
        &self.inner.stack
    }

    /// Current local version of a microprotocol (diagnostics/tests).
    pub fn local_version(&self, p: ProtocolId) -> u64 {
        self.inner.versions[p.index()].get()
    }

    /// A human-readable snapshot of the runtime's version state — one line
    /// per microprotocol with its global version (`gv`) and local version
    /// (`lv`), plus the number of active computations.
    /// For debugging stuck stacks: a protocol with `lv < gv` is held by
    /// `gv - lv` not-yet-released computations.
    pub fn debug_snapshot(&self) -> String {
        let active = self.inner.active_count();
        let mut out = format!("active computations: {active}\n");
        for (i, name) in (0..self.inner.stack.protocol_count())
            .map(|i| (i, self.inner.stack.protocol_name(ProtocolId(i as u32))))
        {
            let gv = self.inner.gv[i].load(Ordering::SeqCst) >> 1;
            let lv = self.inner.versions[i].get();
            out.push_str(&format!(
                "  {name:<16} gv={gv:<6} lv={lv:<6} pending={}\n",
                gv.saturating_sub(lv),
            ));
        }
        out
    }

    // ---- Rule 1: spawning ----

    fn spawn_comp(&self, decl: &Decl<'_>) -> Arc<ComputationInner> {
        if let Some(h) = &self.inner.hook {
            h.yield_point_with(SchedPoint::Spawn, &[SchedResource::SpawnLock]);
        }
        let id = self.inner.comp_seq.fetch_add(1, Ordering::SeqCst) + 1;
        let spec = self.make_spec(decl);
        if let Some(t) = &self.inner.trace {
            // Register this computation's holds (the versions Rule 1 just
            // allocated) so later waiters can name it as their blocker.
            let holds = match spec.mode {
                CompMode::Locked => &[][..],
                _ => &spec.entries[..],
            };
            t.on_spawn(id, holds.iter().map(|e| (e.pid.index(), e.pv)));
            t.emit(TraceKind::Spawn {
                comp: id,
                algo: decl.policy(),
            });
        }
        if spec.mode == CompMode::Locked {
            // Conservative 2PL growing phase: every declared slot before the
            // computation starts, in ascending order (`entries` is sorted
            // and deduplicated: deadlock-free; contended time feeds
            // `admission_wait`).
            for e in &spec.entries {
                self.inner.wait(Wait::Lock(e.pid.index()), Some(id));
            }
        }
        self.inner.active.fetch_add(1, Ordering::SeqCst);
        ComputationInner::new(id, Arc::clone(&self.inner), spec)
    }

    fn make_spec(&self, decl: &Decl<'_>) -> CompSpec {
        let mut route = None;
        let (mode, mut entries) = match decl {
            Decl::Unsync => (CompMode::Unsync, Vec::new()),
            Decl::Basic(pids) => (CompMode::Basic, declared(pids.iter().map(|&p| (p, 1)))),
            Decl::Serial => {
                let all = (0..self.inner.gv.len() as u32).map(|i| (ProtocolId(i), 1));
                (CompMode::Basic, declared(all))
            }
            Decl::Bound(entries) => (CompMode::Bound, declared(entries.iter().copied())),
            Decl::TwoPhase(pids) => (CompMode::Locked, declared(pids.iter().map(|&p| (p, 0)))),
            Decl::Route(pattern) => {
                let rs = RouteState::new(pattern, |h| self.inner.stack.handler_protocol(h));
                let entries = declared(rs.protocols().iter().map(|&p| (p, 1)));
                route = Some(Mutex::new(rs));
                (CompMode::Route, entries)
            }
        };
        self.allocate_versions(mode, &mut entries);
        CompSpec {
            mode,
            entries,
            route,
        }
    }

    /// Rule 1: atomically bump `gv_p` for each declared microprotocol and
    /// snapshot the private versions into `entries`, as one **ordered
    /// two-phase CAS sweep** instead of a global spawn mutex. Phase 1
    /// CAS-acquires the gate bit of every *declared* cell in ascending pid
    /// order (`entries` is sorted, see [`declared`]); phase 2 bumps,
    /// snapshots and releases. This is strict 2PL over the declared cells,
    /// so overlapping spawns are conflict-serialised — the per-cell `pv`
    /// orders stay consistent with one total spawn order, which is what the
    /// paper's deadlock-freedom argument (§6, younger always waits on
    /// strictly older) needs — while disjoint spawns proceed fully in
    /// parallel, one uncontended CAS plus one store per declared cell and
    /// no allocation.
    ///
    /// A gate is a spin lock and is ordered as one: taken with an `Acquire`
    /// CAS, let go with a `Release` store. That is all 2PL needs: a sweep
    /// whose CAS reads another sweep's release sees the bump stored with it
    /// and everything that sweep did before — it had taken all its gates
    /// by then — so on every later cell the two share it finds the gate
    /// still held or the bump made, and the two are ordered alike on every
    /// cell. Nothing else reads `gv` but `debug_snapshot`, and no thread
    /// waits on it: Rule 2 waits on `lv`, whose Dekker-style handshake with
    /// the parking seam (`version.rs`) is `SeqCst` and does not involve
    /// `gv`.
    fn allocate_versions(&self, mode: CompMode, entries: &mut [PvEntry]) {
        // Phase 1: gate every declared cell, ascending.
        for e in entries.iter() {
            assert!(
                e.pid.index() < self.inner.gv.len(),
                "declared unknown protocol {:?}",
                e.pid
            );
            let cell = &self.inner.gv[e.pid.index()];
            let mut spins = 0u32;
            loop {
                let cur = cell.load(Ordering::Relaxed);
                if cur & GV_GATE == 0
                    && cell
                        .compare_exchange_weak(
                            cur,
                            cur | GV_GATE,
                            Ordering::Acquire,
                            Ordering::Relaxed,
                        )
                        .is_ok()
                {
                    break;
                }
                crate::version::note_gate_spin();
                spins += 1;
                if spins < crate::version::SPIN_LIMIT {
                    std::hint::spin_loop();
                } else {
                    // A sweep holds its gates for nanoseconds; yielding is
                    // only reachable under heavy oversubscription. (Under a
                    // SchedHook only one thread runs between yield points
                    // and the sweep contains none, so hooked runs never
                    // spin here at all.)
                    std::thread::yield_now();
                }
            }
        }
        // Phase 2: bump + snapshot + release, in the same order. Releasing
        // cell i before computing cell j is safe — the growing phase is
        // over, which is all 2PL serializability needs.
        for e in entries {
            let cell = &self.inner.gv[e.pid.index()];
            let increment = if mode == CompMode::Locked { 0 } else { e.bound };
            e.pv = (cell.load(Ordering::Relaxed) >> 1) + increment;
            cell.store(e.pv << 1, Ordering::Release);
        }
    }

    // ---- running computations ----

    /// Run a computation *blocking*: the calling thread executes the closure
    /// body, helps drain the computation's asynchronous work, runs Rule 3
    /// and then the effects queued with [`Ctx::after_completion`], and
    /// returns the closure's value once the computation has completed.
    ///
    /// Fails with [`SamoaError::NestedSpawn`], starting nothing, when called
    /// by the code of a running computation (see the [module docs](crate::runtime)).
    pub fn run<R>(&self, decl: Decl<'_>, f: impl FnOnce(&Ctx<'_>) -> Result<R>) -> Result<R> {
        crate::ctx::outside_computation()?;
        let comp = self.spawn_comp(&decl);
        let out = root_execute(&comp, f);
        comp.worker_loop();
        comp.worker_exit();
        comp.wait_done();
        // The first error, wherever raised, wins over the body's value (a
        // body that failed raised it).
        comp.first_error().map_or(out, Err)
    }

    /// Start a computation *detached* and return a handle. Rule 1 executes
    /// synchronously here, so the caller's spawn order fixes the version
    /// (i.e. serialisation) order; the body is a root job handed to an idle
    /// cached worker, which is woken at once, or, if there is none, to a new
    /// thread. It runs there, or on the thread that calls
    /// [`CompHandle::join`] if that gets to the job before the woken worker
    /// does. The job never queues, so the computation owns a thread from here
    /// until Rule 3, however many other computations are blocked. Under
    /// [`Decl::TwoPhase`] the 2PL growing phase runs in the caller too, so
    /// this blocks until every declared lock is acquired.
    ///
    /// # Panics
    ///
    /// With [`SamoaError::NestedSpawn`], starting nothing, when called by the
    /// code of a running computation (there is no error channel before the
    /// handle exists); the running computation fails with that panic.
    pub fn spawn(
        &self,
        decl: Decl<'_>,
        f: impl FnOnce(&Ctx<'_>) -> Result<()> + Send + 'static,
    ) -> CompHandle {
        self.spawn_guarded(decl, |_| {}, f)
    }

    /// [`Runtime::spawn`], calling `on_end` with the computation's first
    /// error (what [`CompHandle::join`] would report, an error raised in the
    /// asynchronous drain included) when its root job ends — body and drain
    /// done, and with them Rule 3 and the [`Ctx::after_completion`] effects
    /// wherever the root job is the worker that completes the computation
    /// (always, in a single-threaded one; a helper worker that leaves first
    /// completes it instead, and `join` is then what waits for it) — before
    /// the thread that ran the job can take another. The detached arm of
    /// [`Runtime::external`]: it counts the failure there and uses the call
    /// (or, should the job panic, the drop of what `on_end` captured) as
    /// the completion signal for backpressure. Signalling when the *body*
    /// returns would under-count: the job can still block in the drain phase
    /// long after (see the worker loop), and unbounded spawn rates then
    /// exhaust OS threads regardless of any body-scoped accounting.
    pub(crate) fn spawn_guarded(
        &self,
        decl: Decl<'_>,
        on_end: impl FnOnce(Option<&SamoaError>) + Send + 'static,
        f: impl FnOnce(&Ctx<'_>) -> Result<()> + Send + 'static,
    ) -> CompHandle {
        if let Err(e) = crate::ctx::outside_computation() {
            panic!("{e}");
        }
        let comp = self.spawn_comp(&decl);
        let handed = comp.start_worker(|comp| drop(root_execute(comp, f)), on_end);
        // A hook ties the job to the thread announced in `on_thread_spawn`:
        // run anywhere else, it would start on the joiner.
        let handed = handed.filter(|_| self.inner.hook.is_none());
        CompHandle { comp, handed }
    }

    // ---- observation ----

    /// Block until every computation spawned so far has completed. Already
    /// quiescent is one atomic load, no lock.
    pub fn quiesce(&self) {
        self.inner.wait(Wait::Quiesce, None);
    }

    /// Snapshot the runtime counters: computations, handler calls, and the
    /// total time spent blocked in admission — the direct, measurable cost
    /// of the isolation machinery.
    pub fn stats(&self) -> RuntimeStats {
        RuntimeStats {
            computations_spawned: self.inner.comp_seq.load(Ordering::Relaxed),
            computations_completed: self.inner.stats.completed.load(Ordering::Relaxed),
            handler_calls: self.inner.stats.handler_calls.load(Ordering::Relaxed),
            admission_wait: std::time::Duration::from_nanos(
                self.inner.stats.admission_wait_ns.load(Ordering::Relaxed),
            ),
            bound_releases: self.inner.stats.bound_releases.load(Ordering::Relaxed),
            route_releases: self.inner.stats.route_releases.load(Ordering::Relaxed),
            version_wait_wakeups: self
                .inner
                .stats
                .version_wait_wakeups
                .load(Ordering::Relaxed),
            external_errors: self.inner.stats.external_errors.load(Ordering::Relaxed),
        }
    }

    /// A point-in-time snapshot of the wait-for graph: which computations
    /// are blocked in Rule 2 admission right now, on which microprotocol,
    /// and — for versioning waits — which older computation they are waiting
    /// for. Requires a trace sink ([`Runtime::with_trace`]); untraced
    /// runtimes keep no wait registry and always return an empty graph.
    pub fn waiters(&self) -> WaitForGraph {
        match &self.inner.trace {
            None => WaitForGraph::default(),
            Some(t) => WaitForGraph {
                edges: t.snapshot_waits(),
            },
        }
    }

    /// Snapshot the recorded history (empty unless
    /// [`RuntimeConfig::record_history`] is set).
    pub fn history(&self) -> History {
        self.inner.history.snapshot()
    }

    /// Clear the recorded history.
    pub fn reset_history(&self) {
        self.inner.history.reset()
    }

    /// Check the isolation property over everything recorded so far,
    /// returning an equivalent serial order of computations on success.
    pub fn check_isolation(&self) -> std::result::Result<Vec<CompId>, IsolationViolation> {
        self.history().check_isolation()
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("stack", &self.inner.stack)
            .field("active", &self.inner.active_count())
            .finish()
    }
}

/// Handle to a detached computation.
pub struct CompHandle {
    comp: Arc<ComputationInner>,
    /// The root job's hand-off to a parked worker; `None` under a
    /// [`SchedHook`] or when the job went to a new thread.
    handed: Option<Handed>,
}

impl CompHandle {
    /// The computation's id (its position in global spawn order).
    pub fn comp_id(&self) -> CompId {
        self.comp.id
    }

    /// Block until the computation completes; report its first error.
    ///
    /// If the worker the root job was handed to has not picked it up yet,
    /// the job is taken back and runs on the calling thread (the paper's
    /// `isolated M e` is evaluated by the thread that reaches it). A joiner
    /// that holds something the root needs then meets it itself: if it
    /// holds a [`ProtocolState`](crate::ProtocolState) borrow the root
    /// takes, the root fails with [`SamoaError::HandlerPanic`] from the
    /// `RefCell`, where a worker running the root would block forever.
    pub fn join(self) -> Result<()> {
        if let Some(job) = self.handed.and_then(Handed::reclaim) {
            // As the worker runs it: a panic that escapes the job's own
            // catching (a guard's `Drop`) is not the joiner's.
            let _ = catch_unwind(AssertUnwindSafe(job));
        }
        self.comp.wait_done();
        match self.comp.first_error() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl std::fmt::Debug for CompHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CompHandle(k{})", self.comp.id)
    }
}

/// Execute the computation's closure body on the current thread, tying
/// route-root release to the body *and* the threads it spawned, and return
/// what the body returned. A body that fails (or panics) records its error
/// as the computation's.
fn root_execute<R>(
    comp: &Arc<ComputationInner>,
    f: impl FnOnce(&Ctx<'_>) -> Result<R>,
) -> Result<R> {
    let ctx = Ctx::new(comp, None, OnceLock::new());
    let out = catch_unwind(AssertUnwindSafe(|| f(&ctx))).unwrap_or_else(|payload| {
        Err(SamoaError::HandlerPanic {
            handler: HandlerId(u32::MAX),
            message: panic_message(payload),
        })
    });
    if let Err(e) = &out {
        comp.set_error(e.clone());
    }
    if ctx.body_returned() {
        comp.run_post(PostAction::Root);
    }
    comp.release_pending();
    out
}

/// A declaration's entries, `pv` not yet allocated: sorted by protocol id
/// (the order of Rule 1's sweep and of `PvEntry` lookup), one per protocol
/// with the largest bound declared for it. One allocation, the entry vector
/// itself; a declaration already sorted and free of duplicates (every
/// [`External`]'s) is taken as it stands, with no sort.
fn declared(pairs: impl Iterator<Item = (ProtocolId, u64)>) -> Vec<PvEntry> {
    let mut v: Vec<PvEntry> = pairs
        .map(|(pid, bound)| PvEntry {
            pid,
            pv: 0,
            bound,
            used: AtomicU64::new(0),
        })
        .collect();
    if !v.is_sorted_by(|a, b| a.pid < b.pid) {
        v.sort_unstable_by_key(|e| e.pid);
        v.dedup_by(|later, earlier| {
            let same = later.pid == earlier.pid;
            if same {
                earlier.bound = earlier.bound.max(later.bound);
            }
            same
        });
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventData;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    #[test]
    fn a_declaration_is_sorted_and_merged_keeping_the_largest_bound() {
        let pairs = |v: Vec<PvEntry>| v.iter().map(|e| (e.pid.0, e.bound)).collect::<Vec<_>>();
        let v = declared(
            [(2, 1), (0, 3), (2, 5), (0, 1), (7, 1)]
                .map(|(p, b)| (ProtocolId(p), b))
                .into_iter(),
        );
        assert_eq!(pairs(v), [(0, 3), (2, 5), (7, 1)]);
        let v = declared(
            [(0, 1), (3, 2), (5, 1)]
                .map(|(p, b)| (ProtocolId(p), b))
                .into_iter(),
        );
        assert_eq!(pairs(v), [(0, 1), (3, 2), (5, 1)], "taken as it stands");
    }

    #[test]
    fn config_defaults() {
        let c = RuntimeConfig::default();
        assert!(!c.record_history);
        assert!(c.max_threads_per_computation >= 1);
        assert!(RuntimeConfig::recording().record_history);
    }

    /// A `SchedHook` that records every `block`/`signal` and, on `block`,
    /// runs the next scripted step — the change the blocked thread waits
    /// for — on the caller's own thread. Nothing runs concurrently, so the
    /// recorded call sequence is exact.
    #[derive(Default)]
    struct Script {
        calls: Mutex<Vec<String>>,
        steps: Mutex<std::collections::VecDeque<Box<dyn FnOnce() + Send>>>,
    }

    impl SchedHook for Script {
        fn block(&self, resource: SchedResource) {
            self.calls.lock().push(format!("block {resource:?}"));
            let step = self.steps.lock().pop_front();
            step.expect("blocked with the script exhausted")();
        }

        fn signal(&self, resource: SchedResource) {
            self.calls.lock().push(format!("signal {resource:?}"));
        }
    }

    impl Script {
        fn then(&self, step: impl FnOnce() + Send + 'static) {
            self.steps.lock().push_back(Box::new(step));
        }

        fn take_calls(&self) -> Vec<String> {
            std::mem::take(&mut self.calls.lock())
        }
    }

    fn scripted_runtime() -> (Arc<Script>, Runtime) {
        use crate::stack::StackBuilder;
        let mut b = StackBuilder::new();
        let p = b.protocol("P");
        let e = b.event("e");
        b.bind(e, p, "h", |_, _| Ok(()));
        let script = Arc::new(Script::default());
        let hook = Arc::clone(&script) as Arc<dyn SchedHook>;
        let rt = Runtime::with_parts(b.build(), RuntimeConfig::default(), Some(hook), None);
        (script, rt)
    }

    #[test]
    fn hooked_version_wait_blocks_and_signals_in_order() {
        let (script, rt) = scripted_runtime();
        let advance = |script: &Script| {
            let inner = Arc::clone(&rt.inner);
            script.then(move || {
                inner.versions[0].bump();
                inner.vsignal(0);
            });
        };
        // Rule 2 for pv = 3, k = 1 needs lv >= 2: two blocks, each ended by
        // one advance.
        advance(&script);
        advance(&script);
        let (idx, pv, k) = (0, 3, 1);
        rt.inner.wait(Wait::Version { idx, pv, k }, Some(7));
        assert_eq!(
            script.take_calls(),
            [
                "block Version(0)",
                "signal Version(0)",
                "block Version(0)",
                "signal Version(0)"
            ]
        );
        assert_eq!(rt.stats().version_wait_wakeups, 2);
        let admission_wait = rt.stats().admission_wait;
        assert!(admission_wait > std::time::Duration::ZERO);

        // Rule 3 with the admission already holding: no block, one signal
        // for the raise.
        rt.inner.raise_when_admitted(idx, pv, k);
        assert_eq!(script.take_calls(), ["signal Version(0)"]);
        assert_eq!(rt.local_version(ProtocolId(0)), 3);

        // Rule 3 that has to wait (pv = 5 needs lv >= 4) blocks the same
        // way, but is not an admission: `admission_wait` stays put.
        advance(&script);
        rt.inner.raise_when_admitted(idx, 5, k);
        assert_eq!(
            script.take_calls(),
            ["block Version(0)", "signal Version(0)", "signal Version(0)"]
        );
        assert_eq!(rt.local_version(ProtocolId(0)), 5);
        assert_eq!(rt.stats().version_wait_wakeups, 3);
        assert_eq!(rt.stats().admission_wait, admission_wait);
    }

    #[test]
    fn hooked_lock_and_quiesce_waits_block_and_signal_in_order() {
        let (script, rt) = scripted_runtime();
        assert!(rt.inner.locks[0].try_acquire());
        let inner = Arc::clone(&rt.inner);
        script.then(move || inner.lock_release(0));
        rt.inner.wait(Wait::Lock(0), Some(1));
        assert_eq!(script.take_calls(), ["block Lock(0)", "signal Lock(0)"]);
        assert!(
            !rt.inner.locks[0].try_acquire(),
            "the waiter holds the lock"
        );
        assert!(rt.stats().admission_wait > std::time::Duration::ZERO);

        rt.inner.active.fetch_add(1, Ordering::SeqCst);
        let inner = Arc::clone(&rt.inner);
        script.then(move || inner.computation_finished());
        rt.quiesce();
        assert_eq!(script.take_calls(), ["block Quiesce", "signal Quiesce"]);
        // Only version waits count as version-wait wake-ups.
        assert_eq!(rt.stats().version_wait_wakeups, 0);
    }

    /// One microprotocol whose handler (on the one event) runs `f`.
    fn flat_stack(
        f: impl Fn() + Send + Sync + 'static,
    ) -> (Runtime, [ProtocolId; 1], crate::EventType) {
        use crate::stack::StackBuilder;
        let mut b = StackBuilder::new();
        let p = b.protocol("P0");
        let e = b.event("E0");
        b.bind(e, p, "h0", move |_, _| {
            f();
            Ok(())
        });
        (Runtime::new(b.build()), [p], e)
    }

    /// A `spawn_guarded` guard that counts itself and remembers being dropped.
    struct Slot {
        live: Arc<AtomicUsize>,
        dropped: Arc<AtomicBool>,
    }

    impl Drop for Slot {
        fn drop(&mut self) {
            self.dropped.store(true, Ordering::SeqCst);
            self.live.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn the_guard_ends_with_the_root_job_before_the_worker_is_reused() {
        let (rt, protocols, e) = flat_stack(|| {});
        let live = Arc::new(AtomicUsize::new(0));
        // Per worker thread: the guard of the last job it ran.
        let last_guard = Arc::new(Mutex::new(HashMap::<ThreadId, Arc<AtomicBool>>::new()));
        let early_reuse = Arc::new(AtomicUsize::new(0));
        for _ in 0..500 {
            let dropped = Arc::new(AtomicBool::new(false));
            live.fetch_add(1, Ordering::SeqCst);
            let guard = Slot {
                live: Arc::clone(&live),
                dropped: Arc::clone(&dropped),
            };
            let (last_guard, early_reuse) = (Arc::clone(&last_guard), Arc::clone(&early_reuse));
            rt.spawn_guarded(
                Decl::Basic(&protocols),
                move |_| drop(guard),
                move |ctx| {
                    let previous = last_guard
                        .lock()
                        .insert(std::thread::current().id(), dropped);
                    if previous.is_some_and(|p| !p.load(Ordering::SeqCst)) {
                        early_reuse.fetch_add(1, Ordering::SeqCst);
                    }
                    // Asynchronous work keeps the root job going past the body.
                    ctx.async_trigger(e, EventData::empty())
                },
            )
            .join()
            .unwrap();
        }
        assert_eq!(
            early_reuse.load(Ordering::SeqCst),
            0,
            "a worker took a new job while still holding the previous job's guard"
        );
        // `quiesce` (like `join`) returns at Rule 3; the root jobs drop their
        // guards right after, on their way back into the cache.
        rt.quiesce();
        let deadline = Instant::now() + Duration::from_secs(60);
        while live.load(Ordering::SeqCst) > 0 {
            assert!(Instant::now() < deadline, "guards outlived their jobs");
            std::thread::yield_now();
        }
    }

    #[test]
    fn on_end_is_told_of_an_error_raised_in_the_asynchronous_drain() {
        let (rt, protocols, e) = flat_stack(|| panic!("down in the drain"));
        let (told, told_rx) = std::sync::mpsc::channel();
        let handle = rt.spawn_guarded(
            Decl::Basic(&protocols),
            move |first_error| told.send(first_error.cloned()).expect("the test listens"),
            // The body itself succeeds; the queued call fails after it returned.
            move |ctx| ctx.async_trigger(e, EventData::empty()),
        );
        let first_error = told_rx.recv().expect("on_end ran");
        assert!(
            matches!(&first_error, Some(SamoaError::HandlerPanic { message, .. }) if message == "down in the drain"),
            "{first_error:?}"
        );
        assert_eq!(handle.join().err(), first_error, "join reports the same");
        // And a computation that ends well is reported as such.
        let (told, told_rx) = std::sync::mpsc::channel();
        rt.spawn_guarded(
            Decl::Basic(&protocols),
            move |first_error| told.send(first_error.cloned()).expect("the test listens"),
            |_| Ok(()),
        );
        assert_eq!(told_rx.recv(), Ok(None));
    }
}
