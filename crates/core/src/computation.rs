//! Computations: the unit of isolation.
//!
//! An external event spawns a *computation* — the event plus everything it
//! causally triggers (paper §2). Each computation has:
//!
//! * a resolved `CompSpec` (its private version snapshot from Rule 1),
//! * a task queue of asynchronously triggered handler calls and explicitly
//!   spawned closures,
//! * a small, demand-grown set of workers — the root job plus up to
//!   `max_threads_per_computation - 1` helpers, each holding one thread of
//!   the executor (`exec.rs`) until the computation has no work left,
//! * an error slot (the paper throws; we record and report on join).
//!
//! A computation *completes* when its closure body returned and every task —
//! including threads spawned by handlers — has terminated; the completing
//! worker then runs Rule 3 (upgrade local versions / release locks) exactly
//! once, then the effects handlers queued with [`Ctx::after_completion`] —
//! what the computation tells threads outside it — and only then lets
//! joiners go. An effect therefore never wakes anyone into a computation
//! that still holds versions: the paper's `isolated M e` is atomic to the
//! outside up to Rule 3, and the outside hears of it after.
//!
//! ## Why a capped set of workers cannot deadlock here
//!
//! Workers block while waiting for version admission, but version waits
//! always point from younger computations to strictly older ones (Rule 1
//! hands out versions in spawn order: overlapping spawns are serialised by
//! the per-cell gates of the `gv` sweep in `runtime.rs`), so the oldest
//! computation always makes progress — and each computation keeps at least
//! its root job, on a thread of its own, until its own task count reaches
//! zero: the worker the job was handed to, or a joiner that took the job
//! back before that worker picked it up (`exec.rs`, "Why a reclaimed root
//! keeps §6"). The executor never queues a job behind another, so "a thread
//! of its own" holds however many computations are blocked. This is the
//! deadlock-freedom argument of paper §6 made operational.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Condvar, Mutex};

use crate::ctx::Ctx;
use crate::error::{CompId, Result, SamoaError};
use crate::event::{EventData, EventType};
use crate::exec::Handed;
use crate::graph::RouteCheck;
use crate::handler::HandlerId;
use crate::policy::{CompMode, CompSpec, PvEntry};
use crate::protocol::ProtocolId;
use crate::runtime::{RuntimeInner, Wait};
use crate::sched::{ReleaseReason, SchedPoint, SchedResource};
use crate::trace::TraceKind;

/// Boxed task body type (a closure run by a computation worker).
pub(crate) type TaskFn = Box<dyn FnOnce(&Ctx<'_>) -> Result<()> + Send>;

/// An effect queued by [`Ctx::after_completion`].
pub(crate) type EffectFn = Box<dyn FnOnce() + Send>;

/// A unit of queued work inside a computation.
pub(crate) enum Task {
    /// Execution of an asynchronously triggered handler.
    Call {
        event: EventType,
        handler: HandlerId,
        data: EventData,
        /// The handler that issued the event (for route bookkeeping and
        /// diagnostics); `None` when issued by the closure body.
        issuer: Option<(HandlerId, ProtocolId)>,
    },
    /// An explicitly spawned closure (`Ctx::spawn`); it executes with the
    /// identity of the handler that spawned it and delays that handler's
    /// completion (paper Rule 4: "any threads spawned by the handler
    /// terminated").
    Closure {
        origin: Option<(HandlerId, ProtocolId)>,
        exec: Arc<ExecState>,
        f: TaskFn,
    },
}

/// Tracks one handler execution (or the closure body) that spawned threads:
/// the function itself plus those threads, transitively. The *post* action
/// — Rule 4's per-call release — runs only when all of them have finished.
/// Created by the call's first [`Ctx::spawn`]; a call that never spawns has
/// none and runs its post action when it returns.
pub(crate) struct ExecState {
    /// `(fn_done, live_children)`.
    state: Mutex<(bool, usize)>,
    pub(crate) post: PostAction,
}

#[derive(Clone, Copy, Debug)]
pub(crate) enum PostAction {
    /// Rule 4 for handler `h` of protocol `p`.
    Handler(HandlerId, ProtocolId),
    /// End of the closure body's direct-call privilege (`VCAroute` root).
    Root,
}

impl ExecState {
    pub(crate) fn new(post: PostAction) -> Self {
        ExecState {
            state: Mutex::new((false, 0)),
            post,
        }
    }

    pub(crate) fn add_child(&self) {
        self.state.lock().1 += 1;
    }

    /// The function body returned; post-action is due if no children remain.
    pub(crate) fn finish_fn(&self) -> bool {
        let mut s = self.state.lock();
        debug_assert!(!s.0);
        s.0 = true;
        s.1 == 0
    }

    /// A child thread finished; post-action is due if it was the last and
    /// the function body already returned.
    fn finish_child(&self) -> bool {
        let mut s = self.state.lock();
        debug_assert!(s.1 > 0);
        s.1 -= 1;
        s.0 && s.1 == 0
    }
}

/// Shared state of one running computation.
pub(crate) struct ComputationInner {
    pub(crate) id: CompId,
    pub(crate) rt: Arc<RuntimeInner>,
    pub(crate) spec: CompSpec,
    queue: Mutex<VecDeque<Task>>,
    queue_cv: Condvar,
    /// Tasks queued or running, plus one for the closure body until it (and
    /// its spawned children) finish.
    pending: AtomicUsize,
    workers: AtomicUsize,
    idle: AtomicUsize,
    completion_claimed: AtomicBool,
    /// The first error; set once, read without a lock.
    error: OnceLock<SamoaError>,
    /// What [`Ctx::after_completion`] queued, in push order; run by
    /// `complete` once everything declared is released. Empty — and never
    /// allocated — for a computation that queues nothing.
    effects: Mutex<Vec<EffectFn>>,
    /// Rule 3 and the effects are done: what a joiner reads, with no lock
    /// once it is set. Stored with `Release` in `complete` and loaded with
    /// `Acquire` in `wait_done`, so a joiner that reads it set also sees the
    /// error slot and the counts written before it. Set before `done_cv` is
    /// notified, passing through `done_lock`: a joiner that read it clear
    /// still holds that lock, so the notify comes after its wait, never
    /// into the gap; one that takes the lock later reads it set.
    done: AtomicBool,
    done_lock: Mutex<()>,
    done_cv: Condvar,
}

impl ComputationInner {
    pub(crate) fn new(id: CompId, rt: Arc<RuntimeInner>, spec: CompSpec) -> Arc<Self> {
        Arc::new(ComputationInner {
            id,
            rt,
            spec,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            pending: AtomicUsize::new(1), // the root closure's slot
            workers: AtomicUsize::new(1), // the root worker
            idle: AtomicUsize::new(0),
            completion_claimed: AtomicBool::new(false),
            error: OnceLock::new(),
            effects: Mutex::new(Vec::new()),
            done: AtomicBool::new(false),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
        })
    }

    /// A static upper bound on every [`SchedResource`] any thread of this
    /// computation can ever touch, used to seed the dynamic checker's
    /// dependence tracking before the thread has announced anything
    /// ([`SchedHook::on_thread_spawn_with`](crate::sched::SchedHook::on_thread_spawn_with)).
    ///
    /// `None` when no sound bound exists: `Unsync` computations declare
    /// nothing. Callers must fall back to the unseeded announcement then.
    /// (No computation starts another while it runs — see [`crate::ctx`] —
    /// so nothing grows a footprint beyond its declaration.)
    pub(crate) fn static_seed(&self) -> Option<Vec<SchedResource>> {
        if self.spec.mode == CompMode::Unsync {
            return None;
        }
        let mut seed = vec![
            SchedResource::Queue(self.id),
            SchedResource::Done(self.id),
            SchedResource::Quiesce,
        ];
        for e in &self.spec.entries {
            seed.push(SchedResource::Version(e.pid.index() as u32));
            if self.spec.mode == CompMode::Locked {
                seed.push(SchedResource::Lock(e.pid.index() as u32));
            }
        }
        Some(seed)
    }

    /// Record the first error of the computation; later ones are dropped.
    pub(crate) fn set_error(&self, e: SamoaError) {
        let _ = self.error.set(e);
    }

    /// The first error recorded so far (final once the computation is done).
    pub(crate) fn first_error(&self) -> Option<SamoaError> {
        self.error.get().cloned()
    }

    /// Queue `f` to run once the computation has released everything it
    /// declared ([`Ctx::after_completion`]).
    pub(crate) fn push_effect(&self, f: EffectFn) {
        self.effects.lock().push(f);
    }

    /// Enqueue a task, waking or growing workers as needed.
    pub(crate) fn enqueue(self: &Arc<Self>, task: Task) {
        self.pending.fetch_add(1, Ordering::SeqCst);
        self.queue.lock().push_back(task);
        if let Some(h) = &self.rt.hook {
            h.signal(SchedResource::Queue(self.id));
        }
        if self.idle.load(Ordering::SeqCst) > 0 {
            self.queue_cv.notify_one();
        } else {
            // Reserve the worker slot in one step: a separate check and
            // increment lets concurrent issuers overshoot the cap.
            let cap = self.rt.config.max_threads_per_computation;
            let reserve = |w| (w < cap).then_some(w + 1);
            if self
                .workers
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, reserve)
                .is_ok()
            {
                // Nobody waits for a helper: its hand-off is never taken back.
                drop(self.start_worker(|_| {}, |_| {}));
            }
            // Otherwise an existing (busy) worker will drain the queue; the
            // root worker stays alive until pending == 0, so progress is
            // guaranteed even if no new thread could be spawned.
        }
    }

    /// Give the computation one more thread of the executor: it runs
    /// `first` (the root job's closure body; nothing for a helper), drains
    /// tasks until the computation has none left, and takes part in
    /// completion. `on_end` is handed the computation's first error — final
    /// by then: no task is pending — when the job ends, before the thread
    /// can serve anything else (and is dropped uncalled if the job panics).
    /// Returns what [`execute`](crate::exec::execute) returned: the hand-off,
    /// if the job went to a parked worker.
    pub(crate) fn start_worker(
        self: &Arc<Self>,
        first: impl FnOnce(&Arc<Self>) + Send + 'static,
        on_end: impl FnOnce(Option<&SamoaError>) + Send + 'static,
    ) -> Option<Handed> {
        let comp = Arc::clone(self);
        let hook = self.rt.hook.clone();
        let token = hook.as_ref().map(|h| match self.static_seed() {
            Some(seed) => h.on_thread_spawn_with(&seed),
            None => h.on_thread_spawn(),
        });
        crate::exec::execute(move || {
            if let (Some(h), Some(t)) = (&hook, token) {
                h.on_thread_start(t);
            }
            first(&comp);
            comp.worker_loop();
            comp.worker_exit();
            if let Some(h) = &hook {
                h.on_thread_exit();
            }
            on_end(comp.error.get());
        })
    }

    fn next_task(&self) -> Option<Task> {
        // No task is queued or can be once `pending` is 0: a task counts
        // itself there before it is queued, and is done before it leaves.
        if self.pending.load(Ordering::SeqCst) == 0 {
            return None;
        }
        match &self.rt.hook {
            None => {
                let mut q = self.queue.lock();
                loop {
                    if let Some(t) = q.pop_front() {
                        return Some(t);
                    }
                    if self.pending.load(Ordering::SeqCst) == 0 {
                        return None;
                    }
                    self.idle.fetch_add(1, Ordering::SeqCst);
                    self.queue_cv.wait(&mut q);
                    self.idle.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Some(h) => loop {
                {
                    let mut q = self.queue.lock();
                    if let Some(t) = q.pop_front() {
                        return Some(t);
                    }
                    if self.pending.load(Ordering::SeqCst) == 0 {
                        return None;
                    }
                }
                self.idle.fetch_add(1, Ordering::SeqCst);
                h.block(SchedResource::Queue(self.id));
                self.idle.fetch_sub(1, Ordering::SeqCst);
            },
        }
    }

    /// Release one `pending` slot; wake sleepers when it was the last so
    /// they can exit.
    pub(crate) fn release_pending(&self) {
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Every caller is a worker of this computation. With no other
            // worker, nobody sleeps on the queue: one that did would have
            // read `pending != 0` before the decrement above, after its
            // reservation, so `workers` counts it until it leaves.
            if self.workers.load(Ordering::SeqCst) > 1 {
                // A worker that has read `pending != 0` and not yet parked
                // still holds the queue lock; passing through it puts the
                // notify after that worker's wait instead of into the gap.
                drop(self.queue.lock());
                self.queue_cv.notify_all();
            }
            if let Some(h) = &self.rt.hook {
                h.signal(SchedResource::Queue(self.id));
            }
        }
    }

    /// Drain tasks until the computation has none left.
    pub(crate) fn worker_loop(self: &Arc<Self>) {
        while let Some(task) = self.next_task() {
            if let Some(h) = &self.rt.hook {
                h.yield_point_with(
                    SchedPoint::TaskDequeue { comp: self.id },
                    &[SchedResource::Queue(self.id)],
                );
            }
            self.run_task(task);
            self.release_pending();
        }
    }

    /// Called when a worker leaves `worker_loop`; the first worker to leave
    /// runs completion (Rule 3).
    pub(crate) fn worker_exit(self: &Arc<Self>) {
        self.workers.fetch_sub(1, Ordering::SeqCst);
        debug_assert_eq!(self.pending.load(Ordering::SeqCst), 0);
        if !self.completion_claimed.swap(true, Ordering::SeqCst) {
            self.complete();
        }
    }

    fn run_task(self: &Arc<Self>, task: Task) {
        match task {
            Task::Call {
                event,
                handler,
                data,
                issuer,
            } => {
                if let Err(e) = self.call_handler(issuer, event, handler, &data, true) {
                    self.set_error(e);
                }
            }
            Task::Closure { origin, exec, f } => {
                let ctx = Ctx::new(self, origin, OnceLock::from(Arc::clone(&exec)));
                let result = catch_unwind(AssertUnwindSafe(|| f(&ctx)));
                match result {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => self.set_error(e),
                    Err(payload) => self.set_error(SamoaError::HandlerPanic {
                        handler: origin.map(|(h, _)| h).unwrap_or(HandlerId(u32::MAX)),
                        message: panic_message(payload),
                    }),
                }
                if exec.finish_child() {
                    self.run_post(exec.post);
                }
            }
        }
    }

    /// The computation's entry for `pid`, or the declaration error.
    fn declared(&self, pid: ProtocolId) -> Result<&PvEntry> {
        self.spec.entry(pid).ok_or(SamoaError::UndeclaredProtocol {
            comp: self.id,
            protocol: pid,
        })
    }

    /// Admission check when an *asynchronous* event is issued: surface
    /// declaration errors in the issuing thread, as the paper's exceptions
    /// do. (A synchronous call makes the same check at the top of
    /// `call_handler`, on the same thread.)
    pub(crate) fn check_issue(
        &self,
        issuer: Option<(HandlerId, ProtocolId)>,
        handler: HandlerId,
    ) -> Result<()> {
        match self.spec.mode {
            CompMode::Unsync => Ok(()),
            CompMode::Basic | CompMode::Bound | CompMode::Locked => self
                .declared(self.rt.stack.handler_protocol(handler))
                .map(drop),
            CompMode::Route => {
                // Marked pending here, so the mark exists from issue to
                // execution; synchronous calls are admitted (and marked
                // active) inside `call_handler`.
                let rs = self.spec.route.as_ref().expect("route spec");
                let check = rs.lock().admit(issuer.map(|(h, _)| h), handler, true);
                self.route_check_to_result(check, issuer, handler)
            }
        }
    }

    fn route_check_to_result(
        &self,
        check: RouteCheck,
        issuer: Option<(HandlerId, ProtocolId)>,
        handler: HandlerId,
    ) -> Result<()> {
        match check {
            RouteCheck::Ok => Ok(()),
            RouteCheck::NotInPattern => Err(SamoaError::NotInPattern {
                comp: self.id,
                handler,
            }),
            RouteCheck::NoRoute => Err(SamoaError::NoRoute {
                comp: self.id,
                from: issuer.map(|(h, _)| h),
                to: handler,
            }),
        }
    }

    /// Execute one handler call: admission (Rule 2), execution, per-call
    /// release (Rule 4). `from_async` distinguishes execution of a queued
    /// asynchronous event (whose route admission happened at issue).
    pub(crate) fn call_handler(
        self: &Arc<Self>,
        caller: Option<(HandlerId, ProtocolId)>,
        event: EventType,
        handler: HandlerId,
        data: &EventData,
        from_async: bool,
    ) -> Result<()> {
        let target = self.rt.stack.entry(handler);
        let pid = target.protocol;
        // The one declaration lookup of the call. An undeclared target is
        // an error before the admission decision point, raised in the
        // calling thread (`Route` reports its own, from the pattern, below).
        let declared = match self.spec.mode {
            CompMode::Unsync => None,
            CompMode::Route => self.spec.entry(pid),
            CompMode::Basic | CompMode::Bound | CompMode::Locked => Some(self.declared(pid)?),
        };
        if let Some(h) = &self.rt.hook {
            // Admission is a decision point even for Unsync (no wait, but
            // the handler-boundary interleaving is what exploration needs).
            // The footprint names the protocol about to be entered — its
            // version cell for the versioning family, its lock slot for
            // 2PL — standing for the handler's state accesses too.
            let fp = if self.spec.mode == CompMode::Locked {
                SchedResource::Lock(pid.index() as u32)
            } else {
                SchedResource::Version(pid.index() as u32)
            };
            h.yield_point_with(
                SchedPoint::Admission {
                    comp: self.id,
                    protocol: pid,
                },
                &[fp],
            );
        }

        // ---- Rule 2: admission ----
        // Every versioning wait is `lv + k >= pv`: `k` is 1 (basic, route)
        // or the declared bound. Blocked-time accounting lives inside
        // `RuntimeInner::wait` and brackets only the parked phase, so an
        // admission that never deschedules reads no clock at all.
        let admit = |pv: u64, k: u64| {
            let idx = pid.index();
            self.rt.wait(Wait::Version { idx, pv, k }, Some(self.id));
        };
        match (self.spec.mode, declared) {
            (CompMode::Basic, Some(e)) => admit(e.pv, 1),
            (CompMode::Bound, Some(e)) => {
                if !e.reserve() {
                    return Err(SamoaError::BoundExhausted {
                        comp: self.id,
                        protocol: pid,
                        bound: e.bound,
                    });
                }
                admit(e.pv, e.bound);
            }
            (CompMode::Route, _) => {
                let rs = self.spec.route.as_ref().expect("route spec");
                if from_async {
                    rs.lock().activate_pending(handler);
                } else {
                    let check = rs.lock().admit(caller.map(|(h, _)| h), handler, false);
                    self.route_check_to_result(check, caller, handler)?;
                }
                let e = declared.expect("pattern protocol declared");
                admit(e.pv, 1);
            }
            // Nothing to wait for: no admission control, or every declared
            // lock was acquired at spawn.
            (CompMode::Unsync | CompMode::Locked, _) | (_, None) => {}
        }

        // ---- execute ----
        self.rt.stats.note_handler_call();
        self.rt.history.record_call(self.id, event, handler);
        let ctx = Ctx::new(self, Some((handler, pid)), OnceLock::new());
        let func = &target.func;
        let enter_ns = self.rt.trace.as_ref().map(|t| {
            let t0 = t.now_ns();
            t.emit_at(
                t0,
                TraceKind::HandlerEnter {
                    comp: self.id,
                    handler,
                    protocol: pid,
                },
            );
            t0
        });
        let outcome = catch_unwind(AssertUnwindSafe(|| func(&ctx, data)));
        if let (Some(t), Some(t0)) = (&self.rt.trace, enter_ns) {
            let t1 = t.now_ns();
            t.emit_at(
                t1,
                TraceKind::HandlerExit {
                    comp: self.id,
                    handler,
                    protocol: pid,
                    service_ns: t1.saturating_sub(t0),
                },
            );
        }
        let result = match outcome {
            Ok(r) => r,
            Err(payload) => Err(SamoaError::HandlerPanic {
                handler,
                message: panic_message(payload),
            }),
        };

        // ---- Rule 4: per-call release, deferred past spawned children ----
        if ctx.body_returned() {
            self.run_post(PostAction::Handler(handler, pid));
        }
        result
    }

    /// Rule 4 actions once a handler execution (function + spawned threads)
    /// or the closure body has fully finished.
    pub(crate) fn run_post(&self, post: PostAction) {
        match post {
            PostAction::Handler(h, pid) => match self.spec.mode {
                CompMode::Bound => {
                    self.rt.versions[pid.index()].bump();
                    self.rt.stats.note_bound_release();
                    self.rt.vsignal(pid.index());
                    if let Some(t) = &self.rt.trace {
                        t.emit(TraceKind::EarlyRelease {
                            comp: self.id,
                            protocol: pid,
                            reason: ReleaseReason::BoundVisit,
                        });
                    }
                    if let Some(hk) = &self.rt.hook {
                        hk.yield_point_with(
                            SchedPoint::EarlyRelease {
                                comp: self.id,
                                protocol: pid,
                                reason: ReleaseReason::BoundVisit,
                            },
                            &[SchedResource::Version(pid.index() as u32)],
                        );
                    }
                }
                CompMode::Route => {
                    let rs = self.spec.route.as_ref().expect("route spec");
                    let released = {
                        let mut g = rs.lock();
                        g.deactivate(h);
                        g.release_scan()
                    };
                    self.release_protocols(&released);
                }
                _ => {}
            },
            PostAction::Root => {
                if self.spec.mode == CompMode::Route {
                    let rs = self.spec.route.as_ref().expect("route spec");
                    let released = {
                        let mut g = rs.lock();
                        g.finish_root();
                        g.release_scan()
                    };
                    self.release_protocols(&released);
                }
            }
        }
    }

    /// Release microprotocols ahead of completion (VCAroute's reachability
    /// scan found them finished with).
    fn release_protocols(&self, released: &[ProtocolId]) {
        self.rt.stats.note_route_releases(released.len() as u64);
        for &p in released {
            let e = self.spec.entry(p).expect("released protocol declared");
            self.rt.versions[p.index()].raise_to(e.pv);
            self.rt.vsignal(p.index());
            if let Some(t) = &self.rt.trace {
                t.on_release(self.id, p.index());
                t.emit(TraceKind::EarlyRelease {
                    comp: self.id,
                    protocol: p,
                    reason: ReleaseReason::RouteUnreachable,
                });
            }
            if let Some(hk) = &self.rt.hook {
                hk.yield_point_with(
                    SchedPoint::EarlyRelease {
                        comp: self.id,
                        protocol: p,
                        reason: ReleaseReason::RouteUnreachable,
                    },
                    &[SchedResource::Version(p.index() as u32)],
                );
            }
        }
    }

    /// Rule 3: after the computation has completed, upgrade the local
    /// versions of every declared microprotocol (or release the 2PL locks),
    /// run the effects it queued ([`Ctx::after_completion`]), then signal
    /// joiners.
    fn complete(self: &Arc<Self>) {
        match self.spec.mode {
            CompMode::Unsync => {}
            CompMode::Locked => {
                for e in &self.spec.entries {
                    self.rt.lock_release(e.pid.index());
                }
            }
            CompMode::Basic | CompMode::Bound => {
                for e in &self.spec.entries {
                    self.rt.raise_when_admitted(e.pid.index(), e.pv, e.bound);
                }
            }
            CompMode::Route => {
                let remaining = self
                    .spec
                    .route
                    .as_ref()
                    .expect("route spec")
                    .lock()
                    .unreleased_protocols();
                for p in remaining {
                    let e = self.spec.entry(p).expect("pattern protocol declared");
                    self.rt.raise_when_admitted(p.index(), e.pv, 1);
                }
            }
        }
        if let Some(t) = &self.rt.trace {
            t.on_complete(self.id);
            t.emit(TraceKind::Complete { comp: self.id });
        }
        // Everything declared is released and no task is left to push: the
        // queue is final. Whoever an effect wakes finds nothing of this
        // computation in its way, and `run`/`join`/`quiesce` return only
        // after the last effect has.
        let effects = std::mem::take(&mut *self.effects.lock());
        for f in effects {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                self.set_error(SamoaError::HandlerPanic {
                    handler: HandlerId(u32::MAX),
                    message: panic_message(payload),
                });
            }
        }
        // Counter/active bookkeeping first, so that a joiner woken by the
        // done flag observes the completed count already updated.
        self.rt.computation_finished();
        self.done.store(true, Ordering::Release);
        drop(self.done_lock.lock());
        self.done_cv.notify_all();
        if let Some(h) = &self.rt.hook {
            h.signal(SchedResource::Done(self.id));
        }
    }

    /// Block until the computation has fully completed (Rule 3 done).
    pub(crate) fn wait_done(&self) {
        let done = || self.done.load(Ordering::Acquire);
        match &self.rt.hook {
            None if done() => {}
            None => {
                let mut lock = self.done_lock.lock();
                while !done() {
                    self.done_cv.wait(&mut lock);
                }
            }
            Some(h) => {
                while !done() {
                    h.block(SchedResource::Done(self.id));
                }
            }
        }
    }
}

pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_state_fn_only() {
        let e = ExecState::new(PostAction::Root);
        assert!(e.finish_fn());
    }

    #[test]
    fn exec_state_waits_for_children() {
        let e = ExecState::new(PostAction::Root);
        e.add_child();
        e.add_child();
        assert!(!e.finish_fn());
        assert!(!e.finish_child());
        assert!(e.finish_child());
    }

    #[test]
    fn exec_state_child_finishing_before_fn() {
        let e = ExecState::new(PostAction::Root);
        e.add_child();
        assert!(!e.finish_child());
        assert!(e.finish_fn());
    }

    #[test]
    fn panic_message_extracts_strings() {
        assert_eq!(panic_message(Box::new("boom")), "boom".to_string());
        assert_eq!(
            panic_message(Box::new(String::from("kaboom"))),
            "kaboom".to_string()
        );
        assert_eq!(panic_message(Box::new(17u8)), "non-string panic payload");
    }
}
