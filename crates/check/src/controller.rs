//! The cooperative scheduler: serialises the runtime's threads into
//! turn-taking and records every scheduling choice.
//!
//! A [`Controller`] is installed into one or more runtimes as their
//! [`SchedHook`] ([`Runtime::with_parts`](samoa_core::Runtime::with_parts)).
//! From then on exactly one controlled thread executes at a time:
//!
//! * At every [`SchedPoint`] the running thread offers its turn back; the
//!   controller asks its [`Decider`] which *ready* thread runs next.
//! * Cooperative blocking ([`SchedHook::block`]) parks the thread until a
//!   matching [`SchedHook::signal`] makes it ready again — the caller then
//!   re-checks its wait predicate, so spurious wake-ups (e.g. two runtimes
//!   sharing a controller and colliding on a resource id) are harmless.
//! * A choice is only *recorded* when at least two threads are ready;
//!   forced moves don't contribute to the trace, which keeps witnesses
//!   short and makes exhaustive enumeration tractable.
//!
//! Thread identity is registration order: the main thread registers as
//! thread 0 ([`Controller::register_main`]), every runtime thread gets the
//! next id at its `on_thread_spawn`. Because spawning happens while the
//! spawner holds the turn, ids — and with them the whole schedule — are a
//! pure function of the choice sequence.
//!
//! ## Deadlock and runaway handling
//!
//! If no thread is ready and at least one is blocked, the schedule is stuck:
//! the controller flags a deadlock and *aborts* — every controlled thread is
//! released into free-running mode (blocking becomes spin-yield) so the
//! scenario can unwind, and the run is reported as a deadlock failure. The
//! versioning algorithms are deadlock-free by construction (waits point from
//! younger to older computations), so this fires only on genuine framework
//! bugs — which is exactly what an explorer is for. A `max_steps` guard
//! aborts runaway schedules the same way.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread::ThreadId;

use parking_lot::{Condvar, Mutex};
use samoa_core::sched::{ExternalChoice, SchedHook, SchedPoint, SchedResource};

use crate::strategy::Decider;

/// One recorded scheduling decision: which of the ready threads ran, out of
/// how many. Only decisions with ≥ 2 alternatives are recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChoiceRecord {
    /// Index of the chosen thread in the sorted ready list.
    pub chosen: u32,
    /// Number of ready threads at this decision point.
    pub alternatives: u32,
}

/// One contiguous run of resource accesses by a single thread inside a
/// segment. A segment usually holds one event (the chosen thread's), but
/// *forced moves* — granted when only one thread was ready, so nothing was
/// recorded — fold other threads' accesses into the same segment, and race
/// detection must still know **who** touched **what**.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegEvent {
    /// The thread that performed these accesses.
    pub tid: u32,
    /// The resources it touched, deduplicated, in first-touch order.
    pub resources: Vec<SchedResource>,
}

/// The resource view of one recorded decision, parallel to
/// [`ChoiceRecord`]: who was ready (and what each announced as its next
/// action), who ran, and everything the resulting *segment* — the chosen
/// thread's action plus every forced move, cooperative block, and signal up
/// to the next recorded decision — touched, split per acting thread. This
/// is the raw material of the DPOR dependence relation
/// (`samoa_check::dpor`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StepRecord {
    /// Sorted ids of the threads that were ready at this decision.
    pub ready: Vec<u32>,
    /// The announced next-action footprint of each ready thread, parallel
    /// to `ready`. Empty means *unknown* (a freshly spawned thread that has
    /// not reached its first annotated yield) — consumers must treat an
    /// unknown footprint as conflicting with everything.
    pub pending: Vec<Vec<SchedResource>>,
    /// The *static seed* of each ready thread, parallel to `ready`: the
    /// upper bound, announced at spawn
    /// ([`SchedHook::on_thread_spawn_with`]), on every resource the thread
    /// can ever touch. Empty means no seed. Unlike `pending` this bounds
    /// the thread's **entire future**, not just its next action — the
    /// stronger guarantee DPOR's static backtrack pruning needs.
    pub seeds: Vec<Vec<SchedResource>>,
    /// Id of the thread that ran.
    pub chosen: u32,
    /// 0-based index of this decision on the scheduling-*step* clock (the
    /// [`Decider::note_step`] clock —
    /// every yield point, forced moves included). Recorded decisions are a
    /// subsequence of that clock; this field is the exact position, which is
    /// what lets trace-guided PCT aim change points at specific decisions.
    pub step: u64,
    /// Per-thread access runs of the segment after this decision, in
    /// execution order.
    pub events: Vec<SegEvent>,
}

impl StepRecord {
    /// The announced footprint of ready thread `tid`, if any.
    pub fn pending_of(&self, tid: u32) -> Option<&[SchedResource]> {
        self.ready
            .iter()
            .position(|&t| t == tid)
            .map(|i| self.pending[i].as_slice())
    }

    /// The static seed of ready thread `tid`: `None` when `tid` was not
    /// ready here or spawned without a seed.
    pub fn seed_of(&self, tid: u32) -> Option<&[SchedResource]> {
        self.ready
            .iter()
            .position(|&t| t == tid)
            .map(|i| self.seeds[i].as_slice())
            .filter(|s| !s.is_empty())
    }

    /// The best known *next-action* footprint of ready thread `tid`: the
    /// announced pending if non-empty, else the static seed (a sound
    /// stand-in — the seed over-approximates every action, the next one
    /// included). `None`/empty means genuinely unknown.
    pub fn announced_or_seed(&self, tid: u32) -> Option<&[SchedResource]> {
        match self.pending_of(tid) {
            Some(p) if !p.is_empty() => Some(p),
            _ => self.seed_of(tid),
        }
    }

    /// Every resource the whole segment touched, across all its events.
    pub fn footprint(&self) -> Vec<SchedResource> {
        let mut all = Vec::new();
        for ev in &self.events {
            for &rs in &ev.resources {
                if !all.contains(&rs) {
                    all.push(rs);
                }
            }
        }
        all
    }
}

/// Scheduling state of one controlled thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThState {
    /// Runnable, waiting for a turn.
    Ready,
    /// Currently holding the turn.
    Running,
    /// Cooperatively blocked on a resource.
    Blocked(SchedResource),
    /// Exited.
    Done,
}

struct CtrlState {
    threads: Vec<ThState>,
    /// OS thread → controlled thread id.
    os: HashMap<ThreadId, usize>,
    /// Spawn tokens handed out but not yet claimed by `on_thread_start`.
    tokens: HashMap<u64, usize>,
    next_token: u64,
    current: Option<usize>,
    decider: Box<dyn Decider>,
    trace: Vec<ChoiceRecord>,
    /// Resource view of each recorded decision, parallel to `trace`.
    records: Vec<StepRecord>,
    /// Per-thread announced next-action footprint, consumed when the thread
    /// is next granted the turn.
    pending: Vec<Vec<SchedResource>>,
    /// Per-thread *static seed*: the upper bound on every resource the
    /// thread can ever touch, announced at spawn via
    /// [`SchedHook::on_thread_spawn_with`]. Unlike `pending` it is never
    /// consumed into a segment — it is snapshotted verbatim into every
    /// [`StepRecord`], which is what lets DPOR prove freshly spawned but
    /// statically disjoint computations independent.
    static_pending: Vec<Vec<SchedResource>>,
    steps: u64,
    max_steps: u64,
    /// Free-run: all control is released (deadlock, runaway, or shutdown).
    abort: bool,
    deadlock: bool,
    runaway: bool,
}

impl CtrlState {
    /// Attribute `rs`, accessed by thread `tid`, to the currently executing
    /// segment (the span since the last recorded decision). Touches before
    /// the first recorded decision belong to the deterministic common
    /// prefix of every schedule and are dropped.
    fn touch(&mut self, tid: usize, rs: SchedResource) {
        if let Some(rec) = self.records.last_mut() {
            match rec.events.last_mut() {
                Some(ev) if ev.tid == tid as u32 => {
                    if !ev.resources.contains(&rs) {
                        ev.resources.push(rs);
                    }
                }
                _ => rec.events.push(SegEvent {
                    tid: tid as u32,
                    resources: vec![rs],
                }),
            }
        }
    }

    fn touch_all(&mut self, tid: usize, rss: &[SchedResource]) {
        for &rs in rss {
            self.touch(tid, rs);
        }
    }

    /// The chosen thread starts executing its announced action: consume its
    /// pending footprint into the current segment.
    fn consume_pending(&mut self, tid: usize) {
        let fp = std::mem::take(&mut self.pending[tid]);
        self.touch_all(tid, &fp);
    }
}

/// What a finished run looked like, extracted by [`Controller::finish`].
#[derive(Debug, Clone)]
pub struct ScheduleTrace {
    /// The recorded choice sequence (replayable via
    /// [`PrefixDecider`](crate::strategy::PrefixDecider)).
    pub choices: Vec<ChoiceRecord>,
    /// The resource view of each recorded decision, parallel to `choices`:
    /// ready sets, announced footprints, and per-segment touched resources.
    pub records: Vec<StepRecord>,
    /// Scheduling steps taken (including forced moves).
    pub steps: u64,
    /// The schedule wedged: no thread ready, at least one blocked.
    pub deadlock: bool,
    /// The `max_steps` guard fired.
    pub runaway: bool,
}

/// The cooperative turn-taking scheduler. Implements [`SchedHook`];
/// install with `Runtime::with_parts(stack, cfg, Some(ctrl.clone()), None)`.
pub struct Controller {
    st: Mutex<CtrlState>,
    cv: Condvar,
}

impl Controller {
    /// A controller driving schedules with `decider`, aborting any schedule
    /// longer than `max_steps` scheduling steps.
    pub fn new(decider: Box<dyn Decider>, max_steps: u64) -> Arc<Controller> {
        Arc::new(Controller {
            st: Mutex::new(CtrlState {
                threads: Vec::new(),
                os: HashMap::new(),
                tokens: HashMap::new(),
                next_token: 1,
                current: None,
                decider,
                trace: Vec::new(),
                records: Vec::new(),
                pending: Vec::new(),
                static_pending: Vec::new(),
                steps: 0,
                max_steps,
                abort: false,
                deadlock: false,
                runaway: false,
            }),
            cv: Condvar::new(),
        })
    }

    /// Register the calling thread as controlled thread 0 and hand it the
    /// turn. Must be called exactly once, before the scenario starts any
    /// hooked runtime activity.
    pub fn register_main(&self) {
        let mut st = self.st.lock();
        assert!(st.threads.is_empty(), "register_main called twice");
        st.threads.push(ThState::Running);
        st.pending.push(Vec::new());
        st.static_pending.push(Vec::new());
        st.os.insert(std::thread::current().id(), 0);
        st.current = Some(0);
    }

    /// Release every controlled thread into free-running mode and collect
    /// the trace. Call after the scenario has finished (all computations
    /// quiesced): stragglers still between their last release and thread
    /// exit stop waiting for turns and run out naturally, so no thread ever
    /// waits on a dropped controller.
    pub fn finish(&self) -> ScheduleTrace {
        let mut st = self.st.lock();
        st.abort = true;
        self.cv.notify_all();
        ScheduleTrace {
            choices: st.trace.clone(),
            records: st.records.clone(),
            steps: st.steps,
            deadlock: st.deadlock,
            runaway: st.runaway,
        }
    }

    fn lookup(&self, st: &CtrlState) -> Option<usize> {
        st.os.get(&std::thread::current().id()).copied()
    }

    /// Pick and grant the next turn. Caller must have set `current = None`.
    fn schedule(&self, st: &mut CtrlState) {
        debug_assert_eq!(st.current, None);
        let ready: Vec<usize> = st
            .threads
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == ThState::Ready)
            .map(|(i, _)| i)
            .collect();
        if ready.is_empty() {
            if st.threads.iter().any(|s| matches!(s, ThState::Blocked(_))) {
                // Wedged: nobody can run, somebody is waiting. Abort into
                // free-running so the scenario can unwind and report.
                st.deadlock = true;
                st.abort = true;
                self.cv.notify_all();
            }
            return;
        }
        st.steps += 1;
        if st.steps > st.max_steps {
            st.runaway = true;
            st.abort = true;
            self.cv.notify_all();
            return;
        }
        // Every scheduling step — forced moves included — ticks the
        // decider, so step-indexed strategies (PCT change points) see the
        // same clock the step budget counts.
        st.decider.note_step();
        let idx = if ready.len() == 1 {
            0
        } else {
            let step = st.trace.len();
            let idx = st.decider.choose(&ready, step).min(ready.len() - 1);
            st.trace.push(ChoiceRecord {
                chosen: idx as u32,
                alternatives: ready.len() as u32,
            });
            // Open a new segment: snapshot who was ready, what each had
            // announced, and each thread's static seed; the segment
            // footprint accumulates from here until the next recorded
            // decision. Announced pendings describe only the next action —
            // the seeds bound the thread's whole future, which is what the
            // DPOR backtrack pruning needs.
            let record = StepRecord {
                ready: ready.iter().map(|&t| t as u32).collect(),
                pending: ready.iter().map(|&t| st.pending[t].clone()).collect(),
                seeds: ready
                    .iter()
                    .map(|&t| st.static_pending[t].clone())
                    .collect(),
                chosen: ready[idx] as u32,
                step: st.steps - 1,
                events: Vec::new(),
            };
            st.records.push(record);
            idx
        };
        let tid = ready[idx];
        // The granted thread now performs its announced action; its
        // footprint lands in the segment just opened (recorded decision) or
        // the ongoing one (forced move).
        st.consume_pending(tid);
        st.threads[tid] = ThState::Running;
        st.current = Some(tid);
        self.cv.notify_all();
    }

    /// Register a new controlled thread carrying `seed` as its static
    /// footprint (empty = unknown); returns the start token.
    fn spawn_with_seed(&self, seed: Vec<SchedResource>) -> u64 {
        let mut st = self.st.lock();
        if st.abort {
            return 0;
        }
        let tid = st.threads.len();
        st.threads.push(ThState::Ready);
        st.pending.push(Vec::new());
        st.static_pending.push(seed);
        let token = st.next_token;
        st.next_token += 1;
        st.tokens.insert(token, tid);
        token
    }

    /// Park until granted the turn (or the controller aborted).
    fn wait_turn(&self, st: &mut parking_lot::MutexGuard<'_, CtrlState>, tid: usize) {
        loop {
            if st.abort {
                return;
            }
            if st.current == Some(tid) {
                st.threads[tid] = ThState::Running;
                return;
            }
            self.cv.wait(st);
        }
    }
}

/// How a [`SchedPoint`]'s announced footprint relates to its yield: `true`
/// if it describes the action *just performed* (attribute to the current
/// segment), `false` if it describes the action the thread performs *when
/// next granted* (announce as pending).
fn attribution(point: SchedPoint) -> bool {
    match point {
        // Yield precedes taking the spawn lock / running admission.
        SchedPoint::Spawn | SchedPoint::Admission { .. } => false,
        // The queue pop / version bump already happened.
        SchedPoint::TaskDequeue { .. } | SchedPoint::EarlyRelease { .. } => true,
    }
}

impl SchedHook for Controller {
    fn on_thread_spawn(&self) -> u64 {
        self.spawn_with_seed(Vec::new())
    }

    fn on_thread_spawn_with(&self, static_footprint: &[SchedResource]) -> u64 {
        self.spawn_with_seed(static_footprint.to_vec())
    }

    fn on_thread_start(&self, token: u64) {
        let mut st = self.st.lock();
        if st.abort {
            return;
        }
        let Some(tid) = st.tokens.remove(&token) else {
            return; // spawned during abort: free-run
        };
        st.os.insert(std::thread::current().id(), tid);
        self.wait_turn(&mut st, tid);
    }

    fn on_thread_exit(&self) {
        let mut st = self.st.lock();
        if st.abort {
            return;
        }
        let Some(tid) = self.lookup(&st) else { return };
        st.threads[tid] = ThState::Done;
        if st.current == Some(tid) {
            st.current = None;
            self.schedule(&mut st);
        }
    }

    fn yield_point(&self, point: SchedPoint) {
        self.yield_point_with(point, &[]);
    }

    fn yield_point_with(&self, point: SchedPoint, footprint: &[SchedResource]) {
        let mut st = self.st.lock();
        if st.abort {
            return;
        }
        let Some(tid) = self.lookup(&st) else { return };
        debug_assert_eq!(
            st.current,
            Some(tid),
            "yield from a thread without the turn"
        );
        if attribution(point) {
            st.touch_all(tid, footprint);
        } else {
            st.pending[tid] = footprint.to_vec();
        }
        st.threads[tid] = ThState::Ready;
        st.current = None;
        self.schedule(&mut st);
        self.wait_turn(&mut st, tid);
    }

    fn note(&self, resource: SchedResource) {
        let mut st = self.st.lock();
        if st.abort {
            return;
        }
        let Some(tid) = self.lookup(&st) else { return };
        // A silent access between yields: part of the ongoing segment's
        // footprint, no rescheduling.
        st.touch(tid, resource);
    }

    fn block(&self, resource: SchedResource) {
        let mut st = self.st.lock();
        if st.abort {
            drop(st);
            std::thread::yield_now();
            return;
        }
        let Some(tid) = self.lookup(&st) else {
            drop(st);
            std::thread::yield_now();
            return;
        };
        debug_assert_eq!(
            st.current,
            Some(tid),
            "block from a thread without the turn"
        );
        // The failed predicate check read the resource now; the re-check on
        // wake-up reads it again, so it is also the announced next action.
        st.touch(tid, resource);
        st.pending[tid] = vec![resource];
        st.threads[tid] = ThState::Blocked(resource);
        st.current = None;
        self.schedule(&mut st);
        self.wait_turn(&mut st, tid);
    }

    fn signal(&self, resource: SchedResource) {
        let mut st = self.st.lock();
        if st.abort {
            self.cv.notify_all();
            return;
        }
        // The signaller keeps its turn; woken threads become ready and will
        // re-check their predicates when scheduled.
        if let Some(tid) = self.lookup(&st) {
            st.touch(tid, resource);
        }
        for s in st.threads.iter_mut() {
            if *s == ThState::Blocked(resource) {
                *s = ThState::Ready;
            }
        }
    }

    /// An external (environment) decision: the calling thread keeps the
    /// turn — no rescheduling happens — but the choice among `alts` is
    /// recorded exactly like a thread decision, with each alternative
    /// appearing as a *pseudo-thread*: its [`ExternalChoice::id`] lands in
    /// the [`StepRecord::ready`] set, its footprint in the parallel
    /// `pending` list, and the chosen move's footprint opens the new
    /// segment's first [`SegEvent`]. DPOR then reasons about environment
    /// moves (deliver/drop/duplicate a message, crash a site, advance the
    /// timer wheel) with the same machinery it uses for threads: races
    /// against an external move schedule backtracks at the decision where
    /// its pseudo-id was ready.
    ///
    /// Pseudo-ids must be stable across runs sharing the decision prefix
    /// (the scenario derives them from transport sequence numbers and site
    /// ids) and disjoint from real thread ids, which are small registration
    /// indices. A single alternative is a *forced move*: taken without
    /// recording, its footprint folded into the ongoing segment — the same
    /// rule that keeps thread traces short.
    fn choose_external(&self, alts: &[ExternalChoice]) -> usize {
        let mut st = self.st.lock();
        if st.abort || alts.is_empty() {
            return 0;
        }
        if let Some(tid) = self.lookup(&st) {
            debug_assert_eq!(
                st.current,
                Some(tid),
                "external choice from a thread without the turn"
            );
        }
        // Canonical order: sorted by pseudo-id, so the recorded ready set —
        // and therefore the meaning of a replayed choice index — is a pure
        // function of the alternatives offered, never of the caller's
        // enumeration order.
        let mut order: Vec<usize> = (0..alts.len()).collect();
        order.sort_by_key(|&i| alts[i].id);
        st.steps += 1;
        if st.steps > st.max_steps {
            st.runaway = true;
            st.abort = true;
            self.cv.notify_all();
            return 0;
        }
        st.decider.note_step();
        if alts.len() == 1 {
            let fp = alts[0].footprint.clone();
            st.touch_all(alts[0].id as usize, &fp);
            return 0;
        }
        let ready: Vec<usize> = order.iter().map(|&i| alts[i].id as usize).collect();
        let step = st.trace.len();
        let idx = st.decider.choose(&ready, step).min(ready.len() - 1);
        st.trace.push(ChoiceRecord {
            chosen: idx as u32,
            alternatives: ready.len() as u32,
        });
        let winner = &alts[order[idx]];
        let step_idx = st.steps - 1;
        st.records.push(StepRecord {
            ready: order.iter().map(|&i| alts[i].id).collect(),
            pending: order.iter().map(|&i| alts[i].footprint.clone()).collect(),
            seeds: vec![Vec::new(); alts.len()],
            chosen: winner.id,
            step: step_idx,
            events: vec![SegEvent {
                tid: winner.id,
                resources: winner.footprint.clone(),
            }],
        });
        order[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::PrefixDecider;

    #[test]
    fn single_thread_run_records_no_choices() {
        let ctrl = Controller::new(Box::new(PrefixDecider::new(Vec::new())), 1000);
        ctrl.register_main();
        ctrl.yield_point(SchedPoint::Spawn);
        ctrl.yield_point(SchedPoint::Spawn);
        let trace = ctrl.finish();
        assert!(trace.choices.is_empty(), "forced moves are not recorded");
        assert!(!trace.deadlock);
        assert_eq!(trace.steps, 2);
    }

    #[test]
    fn two_threads_alternate_under_prefix() {
        // Main spawns one helper; choices decide who runs at each yield.
        let ctrl = Controller::new(Box::new(PrefixDecider::new(vec![1, 0])), 1000);
        ctrl.register_main();
        let token = ctrl.on_thread_spawn();
        let h2 = ctrl.clone();
        let order = Arc::new(Mutex::new(Vec::new()));
        let o2 = Arc::clone(&order);
        let t = std::thread::spawn(move || {
            h2.on_thread_start(token);
            o2.lock().push("helper");
            h2.yield_point(SchedPoint::Spawn);
            o2.lock().push("helper2");
            h2.on_thread_exit();
        });
        // First choice (index 1 in ready=[0,1]) hands the turn to the
        // helper; main parks until chosen again.
        ctrl.yield_point(SchedPoint::Spawn);
        order.lock().push("main");
        let trace = ctrl.finish();
        t.join().unwrap();
        assert_eq!(order.lock()[0], "helper", "prefix [1] ran helper first");
        assert!(!trace.choices.is_empty());
        assert_eq!(
            trace.choices[0],
            ChoiceRecord {
                chosen: 1,
                alternatives: 2
            }
        );
    }

    #[test]
    fn blocked_everyone_is_deadlock() {
        let ctrl = Controller::new(Box::new(PrefixDecider::new(Vec::new())), 1000);
        ctrl.register_main();
        // Main blocks with nobody to signal: the controller must abort
        // rather than hang.
        ctrl.block(SchedResource::Quiesce);
        let trace = ctrl.finish();
        assert!(trace.deadlock);
    }

    #[test]
    fn step_records_carry_footprints() {
        // Main spawns a helper; both yield at annotated points. The
        // recorded decisions must carry ready sets, announced pendings,
        // and segment footprints.
        let pid = {
            let mut b = samoa_core::StackBuilder::new();
            b.protocol("P")
        };
        let ctrl = Controller::new(Box::new(PrefixDecider::new(vec![1, 1])), 1000);
        ctrl.register_main();
        let token = ctrl.on_thread_spawn();
        let h2 = ctrl.clone();
        let t = std::thread::spawn(move || {
            h2.on_thread_start(token);
            // Announces Version(0) as the helper's next action.
            h2.yield_point_with(
                SchedPoint::Admission {
                    comp: 1,
                    protocol: pid,
                },
                &[SchedResource::Version(0)],
            );
            h2.signal(SchedResource::Version(0));
            h2.on_thread_exit();
        });
        // Main: an annotated pre-action yield (Spawn → SpawnLock pending).
        ctrl.yield_point_with(SchedPoint::Spawn, &[SchedResource::SpawnLock]);
        ctrl.yield_point_with(SchedPoint::Spawn, &[SchedResource::SpawnLock]);
        ctrl.yield_point_with(SchedPoint::Spawn, &[SchedResource::SpawnLock]);
        let trace = ctrl.finish();
        t.join().unwrap();
        assert_eq!(trace.records.len(), trace.choices.len());
        // Every recorded decision has parallel ready/pending lists and a
        // chosen thread drawn from the ready set.
        for r in &trace.records {
            assert_eq!(r.ready.len(), r.pending.len());
            assert!(r.ready.contains(&r.chosen));
            assert!(r.ready.len() >= 2);
        }
        // The SpawnLock announcements were consumed into segments where
        // main ran, and the helper's Version(0) shows up both as an
        // announced pending and in an executed footprint (signal).
        let all_fp: Vec<SchedResource> = trace.records.iter().flat_map(|r| r.footprint()).collect();
        assert!(all_fp.contains(&SchedResource::SpawnLock));
        assert!(all_fp.contains(&SchedResource::Version(0)));
        assert!(trace.records.iter().any(|r| r
            .pending
            .iter()
            .any(|p| p.contains(&SchedResource::Version(0)))));
    }

    #[test]
    fn static_seed_stands_in_for_unannounced_pending() {
        // A thread spawned with a static seed has announced nothing yet;
        // recorded decisions must snapshot the seed as its pending
        // footprint instead of "unknown".
        let ctrl = Controller::new(Box::new(PrefixDecider::new(vec![0, 0])), 1000);
        ctrl.register_main();
        let token = ctrl.on_thread_spawn_with(&[SchedResource::Version(7)]);
        let h2 = ctrl.clone();
        let t = std::thread::spawn(move || {
            h2.on_thread_start(token);
            h2.yield_point(SchedPoint::Spawn);
            h2.on_thread_exit();
        });
        ctrl.yield_point(SchedPoint::Spawn);
        ctrl.yield_point(SchedPoint::Spawn);
        let trace = ctrl.finish();
        t.join().unwrap();
        let rec = trace.records.first().expect("two ready threads: recorded");
        assert_eq!(
            rec.pending_of(1),
            Some(&[][..]),
            "announced pending stays empty until the first annotated yield"
        );
        assert_eq!(
            rec.seed_of(1),
            Some(&[SchedResource::Version(7)][..]),
            "the spawn-time seed must be snapshotted"
        );
        assert_eq!(
            rec.announced_or_seed(1),
            Some(&[SchedResource::Version(7)][..]),
            "seed must stand in for the unannounced pending"
        );
    }

    #[test]
    fn external_choices_record_pseudo_threads_and_fold_forced_moves() {
        let ctrl = Controller::new(Box::new(PrefixDecider::new(vec![1])), 1000);
        ctrl.register_main();
        // Deliberately unsorted: the controller must canonicalise by id, so
        // the replayed choice index means the same alternative every run.
        let alts = vec![
            ExternalChoice::new(4100, vec![SchedResource::Msg(2)]),
            ExternalChoice::new(4096, vec![SchedResource::Msg(1)]),
        ];
        let picked = ctrl.choose_external(&alts);
        // Prefix choice 1 = second entry of the *sorted* ready set
        // [4096, 4100] = id 4100 = index 0 of the caller's slice.
        assert_eq!(picked, 0);
        // A single alternative is a forced move: taken, not recorded, its
        // footprint folded into the ongoing segment.
        let forced =
            ctrl.choose_external(&[ExternalChoice::new(1600, vec![SchedResource::TimeWheel])]);
        assert_eq!(forced, 0);
        let trace = ctrl.finish();
        assert_eq!(trace.choices.len(), 1);
        assert_eq!(
            trace.choices[0],
            ChoiceRecord {
                chosen: 1,
                alternatives: 2
            }
        );
        let rec = &trace.records[0];
        assert_eq!(rec.ready, vec![4096, 4100]);
        assert_eq!(rec.chosen, 4100);
        assert_eq!(rec.pending_of(4096), Some(&[SchedResource::Msg(1)][..]));
        let fp = rec.footprint();
        assert!(fp.contains(&SchedResource::Msg(2)), "winner's footprint");
        assert!(fp.contains(&SchedResource::TimeWheel), "forced tick folded");
        assert!(!fp.contains(&SchedResource::Msg(1)), "loser stayed pending");
    }

    #[test]
    fn runaway_guard_aborts() {
        let ctrl = Controller::new(Box::new(PrefixDecider::new(Vec::new())), 3);
        ctrl.register_main();
        for _ in 0..10 {
            ctrl.yield_point(SchedPoint::Spawn);
        }
        let trace = ctrl.finish();
        assert!(trace.runaway);
        assert!(trace.steps <= 4);
    }
}
