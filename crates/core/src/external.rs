//! The one way in from outside: how an external event becomes a computation.
//!
//! The paper has a single construct for it — an external event is handled in
//! `isolated M e` (§4). A *host* (something with a socket, a timer or a
//! client API around a [`Runtime`]: `samoa_proto::Node`,
//! `samoa_transport::Endpoint`) names its stack's entry events once
//! ([`StackBuilder::entry_events`](crate::StackBuilder::entry_events)) and
//! hands every arrival to [`Runtime::enter`] with the entry event it starts
//! at. What a kind of event triggers and declares — an [`External`], derived
//! from the stack's call graph and the entry event alone — is derived by the
//! runtime when it is built and kept there, so no host holds a table of
//! them. Which thread runs the computation, how many may be in flight and
//! who counts the ones that fail is decided in [`Runtime::external`] and
//! nowhere else.

use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::analysis::{infer_bounds, infer_m, infer_route};
use crate::ctx::Ctx;
use crate::error::SamoaError;
use crate::event::{EventData, EventType};
use crate::graph::RoutePattern;
use crate::policy::Policy;
use crate::protocol::ProtocolId;
use crate::runtime::Runtime;
use crate::stack::Stack;

/// What one kind of external event triggers and declares, resolved once:
/// the event, and the three arguments of [`Policy::decl`].
#[derive(Debug, Clone)]
pub struct External {
    /// The event the computation's root triggers.
    pub event: EventType,
    /// `M` of `isolated M e` (and of the 2PL comparator).
    pub protocols: Vec<ProtocolId>,
    /// `M` of `isolated bound M e`: a visit bound per microprotocol.
    pub bounds: Vec<(ProtocolId, u64)>,
    /// `M` of `isolated route M e`.
    pub route: RoutePattern,
}

impl External {
    /// `event` entering `stack`, with all three declarations derived from
    /// the stack's static call graph at the event: `M` is every reachable
    /// microprotocol ([`infer_m`]), the bounds their worst-case visit counts
    /// ([`infer_bounds`]: exact above a fan-out edge, the fallback below one
    /// or on a cycle), the route every reachable call edge
    /// ([`infer_route`]). A kind of traffic the host tells apart at the door
    /// — so that it can declare less — is an entry event of its own.
    pub fn new(stack: &Stack, event: EventType) -> External {
        debug_assert!(stack.has_full_trigger_metadata());
        External {
            event,
            protocols: infer_m(stack, event),
            bounds: infer_bounds(stack, event).0,
            route: infer_route(stack, event),
        }
    }
}

/// Most detached external computations in flight per runtime ([`ExtGate`]).
const MAX_INFLIGHT_EXTERNAL: usize = 64;

/// Counting gate holding detached external computations to
/// [`MAX_INFLIGHT_EXTERNAL`] threads: the entry point blocks at the limit,
/// so what real sockets deliver faster than it can run waits as bytes in the
/// network, not as threads until none can be created.
#[derive(Default)]
pub(crate) struct ExtGate {
    count: Mutex<usize>,
    cv: Condvar,
}

impl ExtGate {
    fn acquire(self: &Arc<Self>) -> ExtSlot {
        let mut g = self.count.lock();
        while *g >= MAX_INFLIGHT_EXTERNAL {
            self.cv.wait(&mut g);
        }
        *g += 1;
        ExtSlot(Arc::clone(self))
    }
}

/// RAII slot in the gate, held until the computation's root job has ended.
struct ExtSlot(Arc<ExtGate>);

impl Drop for ExtSlot {
    fn drop(&mut self) {
        *self.0.count.lock() -= 1;
        self.0.cv.notify_one();
    }
}

impl Runtime {
    /// Handle one external event entering the stack at `event`, one of its
    /// entry events: [`Runtime::external`] under the declaration
    /// [`External::new`] derived at `event` when the runtime was built. At
    /// an event that is not an entry event nothing starts, and it counts as
    /// a failed external computation.
    pub fn enter(&self, policy: Policy, event: EventType, data: EventData) {
        match self.inner.entries.iter().find(|ext| ext.event == event) {
            Some(ext) => self.external(policy, ext, data),
            None => self.inner.stats.note_external_error(),
        }
    }

    /// Handle one external event: run the computation `isolated M e` that
    /// triggers `ext.event` with `data`, declaring `ext` as `policy`
    /// understands it ([`Policy::decl`]). The ingress rule, in full:
    ///
    /// * **Which thread.** The paper's `isolated M e` is evaluated by the
    ///   thread that reaches it, and so it is here when computations cannot
    ///   overlap — `Serial`, `Basic` and `TwoPhase` hold what they declare
    ///   to completion, so a thread given to a younger computation could
    ///   only wait: the entry thread (a network's delivery or reader thread,
    ///   a timer, a client) runs the computation itself ([`Runtime::run`])
    ///   and the call returns once it has completed; Rule 2 orders the entry
    ///   threads, in arrival order. `Unsync`, `Bound` and `Route`
    ///   computations can overlap, and every computation under a
    ///   [`SchedHook`](crate::SchedHook) belongs to the controller: those
    ///   are detached onto a thread of the executor ([`Runtime::spawn`]'s
    ///   path; Rule 1 still runs here, so arrival order is version order)
    ///   and the call returns at once.
    /// * **How many.** At most 64 detached external computations are in
    ///   flight per runtime; the call blocks for a slot, which the root job
    ///   gives back as it ends — body and asynchronous drain done, and also
    ///   if it panics. An inline computation needs no slot (its entry thread
    ///   is the bound), and under a hook none is taken: a wait the
    ///   controller cannot see would stall the schedule.
    /// * **Who counts.** Nobody joins these computations, so one that ends
    ///   in an error (`BoundExhausted`, a handler panic, ...) — wherever it
    ///   was raised, the asynchronous drain included — is counted as it
    ///   ends, in [`RuntimeStats::external_errors`](crate::RuntimeStats):
    ///   from what `run` returns, or by the detached root job on its way out.
    ///   A call made by the code of a running computation is one too
    ///   ([`SamoaError::NestedSpawn`]): it starts nothing, takes no slot and
    ///   never waits.
    ///
    /// Deadlock freedom (§6) carries over to the inline path: an entry
    /// thread waits only on strictly older computations, each of which owns
    /// a thread — its own entry thread or a worker of the executor, which
    /// never queues — and nothing inside a computation waits on an entry
    /// point: a network send only enqueues, and a computation's own code
    /// cannot enter here (the rule in [`crate::ctx`]), so no wait leads back
    /// to the waiter. What the caller gives up is its own progress, never
    /// someone else's thread.
    pub fn external(&self, policy: Policy, ext: &External, data: EventData) {
        if crate::ctx::outside_computation().is_err() {
            self.inner.stats.note_external_error();
            return;
        }
        let decl = policy.decl(&ext.protocols, &ext.bounds, &ext.route);
        let event = ext.event;
        let root = move |ctx: &Ctx<'_>| ctx.trigger(event, data);
        let hooked = self.inner.hook.is_some();
        if !hooked && !policy.overlaps() {
            if self.run(decl, root).is_err() {
                self.inner.stats.note_external_error();
            }
        } else {
            let slot = (!hooked).then(|| self.inner.ext_gate.acquire());
            let inner = Arc::clone(&self.inner);
            let on_end = move |e: Option<&SamoaError>| {
                if e.is_some() {
                    inner.stats.note_external_error();
                }
                drop(slot);
            };
            self.spawn_guarded(decl, on_end, root);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RuntimeConfig;
    use crate::sched::SchedHook;
    use crate::stack::StackBuilder;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    #[test]
    fn every_slot_up_to_the_limit_is_there_for_the_taking() {
        let gate: Arc<ExtGate> = Arc::default();
        let slots: Vec<ExtSlot> = (0..MAX_INFLIGHT_EXTERNAL).map(|_| gate.acquire()).collect();
        assert_eq!(*gate.count.lock(), MAX_INFLIGHT_EXTERNAL);
        drop(slots);
        assert_eq!(*gate.count.lock(), 0);
    }

    #[test]
    fn acquire_at_the_limit_waits_for_a_slot_to_drop() {
        let gate: Arc<ExtGate> = Arc::default();
        let mut held: Vec<ExtSlot> = (0..MAX_INFLIGHT_EXTERNAL).map(|_| gate.acquire()).collect();
        let released = Arc::new(AtomicBool::new(false));
        let (at_gate, at_gate_rx) = mpsc::channel();
        let (through, through_rx) = mpsc::channel();
        let waiter = {
            let (gate, released) = (Arc::clone(&gate), Arc::clone(&released));
            std::thread::spawn(move || {
                let _ = at_gate.send(());
                let _over = gate.acquire();
                let _ = through.send(released.load(Ordering::SeqCst));
            })
        };
        assert_eq!(at_gate_rx.recv(), Ok(()), "waiter never started");
        assert!(through_rx.try_recv().is_err(), "admitted past a full gate");
        released.store(true, Ordering::SeqCst);
        held.pop();
        assert_eq!(
            through_rx.recv(),
            Ok(true),
            "acquire returned while every slot was held"
        );
        assert!(waiter.join().is_ok());
        drop(held);
        assert_eq!(*gate.count.lock(), 0);
    }

    /// A latch handlers park on until the test opens it.
    #[derive(Default)]
    struct Latch {
        open: Mutex<bool>,
        cv: Condvar,
    }

    impl Latch {
        fn wait(&self) {
            let mut open = self.open.lock();
            while !*open {
                self.cv.wait(&mut open);
            }
        }

        fn open(&self) {
            *self.open.lock() = true;
            self.cv.notify_all();
        }
    }

    /// One microprotocol whose handler counts itself in, then runs `body`.
    fn one_handler(
        hook: Option<Arc<dyn SchedHook>>,
        body: impl Fn() + Send + Sync + 'static,
    ) -> (Runtime, External, Arc<AtomicUsize>) {
        let entered = Arc::new(AtomicUsize::new(0));
        let mut b = StackBuilder::new();
        let p = b.protocol("P");
        let e = b.event("e");
        let count = Arc::clone(&entered);
        b.bind_with_triggers(e, p, "h", &[], move |_, _| {
            count.fetch_add(1, Ordering::SeqCst);
            body();
            Ok(())
        });
        let stack = b.build();
        let ext = External::new(&stack, e);
        let rt = Runtime::with_parts(stack, RuntimeConfig::default(), hook, None);
        (rt, ext, entered)
    }

    #[test]
    fn enter_starts_a_computation_only_at_an_entry_event() {
        let mut b = StackBuilder::new();
        let p = b.protocol("P");
        let (entry, inner) = (b.event("entry"), b.event("inner"));
        let ran = Arc::new(AtomicUsize::new(0));
        for (e, name) in [(entry, "at entry"), (inner, "at inner")] {
            let ran = Arc::clone(&ran);
            b.bind_with_triggers(e, p, name, &[], move |_, _| {
                ran.fetch_add(1, Ordering::SeqCst);
                Ok(())
            });
        }
        b.entry_events(&[entry]);
        let rt = Runtime::new(b.build());
        rt.enter(Policy::Basic, entry, EventData::empty());
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        assert_eq!(rt.stats().external_errors, 0);
        rt.enter(Policy::Basic, inner, EventData::empty());
        assert_eq!(ran.load(Ordering::SeqCst), 1, "ran at a non-entry event");
        assert_eq!(rt.stats().external_errors, 1);
    }

    fn eventually(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(60);
        while !cond() {
            assert!(Instant::now() < deadline, "{what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn the_sixty_fifth_detached_external_waits_for_one_to_end() {
        let latch = Arc::new(Latch::default());
        let (rt, ext, entered) = one_handler(None, {
            let latch = Arc::clone(&latch);
            move || latch.wait()
        });
        for _ in 0..MAX_INFLIGHT_EXTERNAL {
            rt.external(Policy::Unsync, &ext, EventData::empty());
        }
        eventually("64 handlers never got a thread each", || {
            entered.load(Ordering::SeqCst) == MAX_INFLIGHT_EXTERNAL
        });
        assert_eq!(*rt.inner.ext_gate.count.lock(), MAX_INFLIGHT_EXTERNAL);
        let opened = Arc::new(AtomicBool::new(false));
        let (at_gate, at_gate_rx) = mpsc::channel();
        let (through, through_rx) = mpsc::channel();
        let over = {
            let (rt, ext, opened) = (rt.clone(), ext.clone(), Arc::clone(&opened));
            std::thread::spawn(move || {
                let _ = at_gate.send(());
                rt.external(Policy::Unsync, &ext, EventData::empty());
                let _ = through.send(opened.load(Ordering::SeqCst));
            })
        };
        assert_eq!(at_gate_rx.recv(), Ok(()), "the 65th caller never started");
        assert!(through_rx.try_recv().is_err(), "admitted past a full gate");
        opened.store(true, Ordering::SeqCst);
        latch.open();
        assert_eq!(
            through_rx.recv(),
            Ok(true),
            "`external` returned while every slot was held"
        );
        assert!(over.join().is_ok());
        rt.quiesce();
        // Root jobs give their slots back on their way out, after Rule 3.
        eventually("slots outlived their jobs", || {
            *rt.inner.ext_gate.count.lock() == 0
        });
        assert_eq!(entered.load(Ordering::SeqCst), MAX_INFLIGHT_EXTERNAL + 1);
        assert_eq!(rt.stats().external_errors, 0);
    }

    #[test]
    fn a_root_job_that_fails_gives_its_slot_back() {
        let (rt, ext, _) = one_handler(None, || panic!("on the way in"));
        // One more than the gate holds: a leaked slot would hang this loop.
        for _ in 0..=MAX_INFLIGHT_EXTERNAL {
            rt.external(Policy::Unsync, &ext, EventData::empty());
        }
        let all = MAX_INFLIGHT_EXTERNAL as u64 + 1;
        eventually("a failure went uncounted", || {
            rt.stats().external_errors == all
        });
        eventually("slots outlived their jobs", || {
            *rt.inner.ext_gate.count.lock() == 0
        });
    }

    #[test]
    fn under_a_hook_no_slot_is_taken_and_nothing_runs_inline() {
        /// Every method at its no-op default: threads run free, but the
        /// runtime sees a hook.
        struct Passive;
        impl SchedHook for Passive {}

        let latch = Arc::new(Latch::default());
        let (rt, ext, entered) = one_handler(Some(Arc::new(Passive)), {
            let latch = Arc::clone(&latch);
            move || latch.wait()
        });
        // `Unsync` past the limit, then a policy that would run inline —
        // and so park this thread on the latch — without the hook.
        for _ in 0..=MAX_INFLIGHT_EXTERNAL {
            rt.external(Policy::Unsync, &ext, EventData::empty());
        }
        rt.external(Policy::Basic, &ext, EventData::empty());
        assert_eq!(*rt.inner.ext_gate.count.lock(), 0);
        latch.open();
        eventually("a hooked external was lost", || {
            entered.load(Ordering::SeqCst) == MAX_INFLIGHT_EXTERNAL + 2
        });
        assert_eq!(rt.stats().external_errors, 0);
    }

    /// An event declared without the microprotocol that only the handler its
    /// *asynchronous* continuation runs calls into — so the error is raised
    /// in the drain, not in the root's own cascade. It is counted whether the
    /// computation ran inline (`Basic`) or detached (`Route`).
    #[test]
    fn an_error_raised_in_the_drain_is_counted_on_both_ingress_paths() {
        for policy in [Policy::Basic, Policy::Route] {
            let mut b = StackBuilder::new();
            let (lower, upper, app) = (b.protocol("Lower"), b.protocol("Upper"), b.protocol("App"));
            let (arrive, deliver, hand) = (b.event("arrive"), b.event("deliver"), b.event("hand"));
            let delivered = Arc::new(AtomicUsize::new(0));
            let count = Arc::clone(&delivered);
            b.bind_with_triggers(hand, app, "app", &[], move |_, _| {
                count.fetch_add(1, Ordering::SeqCst);
                Ok(())
            });
            let h_up = b.bind_with_triggers(deliver, upper, "up", &[hand], move |ctx, _| {
                ctx.trigger(hand, EventData::empty())
            });
            let h_low = b.bind_with_triggers(arrive, lower, "low", &[deliver], move |ctx, _| {
                ctx.async_trigger(deliver, EventData::empty())
            });
            let stack = b.build();
            let full = External::new(&stack, arrive);
            let under_declared = External {
                event: arrive,
                protocols: vec![lower, upper],
                bounds: vec![(lower, 1), (upper, 1)],
                route: RoutePattern::new().root(h_low).edge(h_low, h_up),
            };
            let rt = Runtime::new(stack);
            rt.external(policy, &under_declared, EventData::empty());
            // A detached root job counts on its way out, after Rule 3.
            eventually("the error was lost", || rt.stats().external_errors > 0);
            assert_eq!(rt.stats().external_errors, 1, "{policy}");
            assert_eq!(delivered.load(Ordering::SeqCst), 0, "{policy}");
            rt.external(policy, &full, EventData::empty());
            rt.quiesce();
            assert_eq!(delivered.load(Ordering::SeqCst), 1, "{policy}");
            assert_eq!(rt.stats().external_errors, 1, "{policy}");
        }
    }
}
