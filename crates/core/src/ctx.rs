//! The computation context handed to handlers and `isolated` closures.
//!
//! [`Ctx`] carries the computation identity and exposes the paper's event
//! primitives: synchronous `trigger` / `triggerAll` and asynchronous
//! `asyncTrigger` / `asyncTriggerAll` (§3), plus explicit thread creation
//! within the computation (§4: "new threads can be created dynamically")
//! and the one way out of it: [`Ctx::after_completion`] queues an effect on
//! the outside world — a reply, a wake-up — to run once the computation has
//! let go of everything it declared.
//!
//! The code a `Ctx` is handed to cannot start a computation (§4: a
//! computation starts at an external event): while a `Ctx` is live on a
//! thread, every way in refuses there with [`SamoaError::NestedSpawn`],
//! before it starts anything. [`Ctx::after_completion`] effects run with
//! none live, so a computation that another causes (§2) starts from there.

use std::cell::Cell;
use std::sync::{Arc, OnceLock};

use crate::computation::{ComputationInner, ExecState, PostAction, Task};
use crate::error::{CompId, Result, SamoaError};
use crate::event::{EventData, EventType};
use crate::handler::HandlerId;
use crate::protocol::ProtocolId;
use crate::stack::Stack;

thread_local! {
    /// How many [`Ctx`]s are live on this thread: non-zero exactly while a
    /// closure body, a handler or a [`Ctx::spawn`] closure runs here.
    static LIVE: Cell<u32> = const { Cell::new(0) };
}

/// [`SamoaError::NestedSpawn`] while the code of a computation runs on this
/// thread (see the [module docs](crate::ctx)).
pub(crate) fn outside_computation() -> Result<()> {
    match LIVE.with(Cell::get) {
        0 => Ok(()),
        _ => Err(SamoaError::NestedSpawn),
    }
}

/// Execution context of a handler (or of the `isolated` closure body).
///
/// A `Ctx` is bound to one computation and one call site; nested handler
/// calls get fresh contexts. It is not `Clone` — pass `&Ctx` down, or use
/// [`Ctx::spawn`] to move work to another thread of the same computation.
/// It borrows the computation for as long as the call runs (`'a`), so a
/// handler call takes no reference count of its own.
pub struct Ctx<'a> {
    comp: &'a Arc<ComputationInner>,
    /// The handler currently executing, and its microprotocol; `None` in the
    /// closure body.
    current: Option<(HandlerId, ProtocolId)>,
    /// Execution-state of the current handler call (or closure body), tying
    /// spawned threads to the call's completion (paper Rule 4). Created by
    /// the call's first [`Ctx::spawn`]: a call that spawns nothing — nearly
    /// every call — allocates nothing and releases as soon as it returns.
    exec: OnceLock<Arc<ExecState>>,
    /// Debug builds: the events this call has triggered so far, checked
    /// against its handler's declaration ([`Ctx::check_declared`]).
    #[cfg(debug_assertions)]
    fired: parking_lot::Mutex<Vec<EventType>>,
}

impl<'a> Ctx<'a> {
    /// The context of a fresh call (`exec` empty) or of a closure spawned
    /// by one (`exec` the spawning call's).
    pub(crate) fn new(
        comp: &'a Arc<ComputationInner>,
        current: Option<(HandlerId, ProtocolId)>,
        exec: OnceLock<Arc<ExecState>>,
    ) -> Self {
        LIVE.with(|n| n.set(n.get() + 1));
        Ctx {
            comp,
            current,
            exec,
            #[cfg(debug_assertions)]
            fired: parking_lot::Mutex::new(Vec::new()),
        }
    }

    /// Debug builds: panic, naming both, if the current handler's
    /// declaration does not allow it to trigger `event` once more — a
    /// trigger the call graph does not show makes every derived declaration
    /// unsound. The closure body and undeclared handlers are exempt.
    #[cfg(debug_assertions)]
    fn check_declared(&self, event: EventType) {
        let Some(h) = self.current_handler() else {
            return;
        };
        let stack = self.stack();
        let Some(declared) = stack.handler_triggers(h) else {
            return;
        };
        if stack.handler_fan_outs(h).contains(&event) {
            return;
        }
        let mut fired = self.fired.lock();
        fired.push(event);
        let times = fired.iter().filter(|&&e| e == event).count();
        let allowed = declared.iter().filter(|&&e| e == event).count();
        assert!(
            times <= allowed,
            "handler \"{}\" triggered \"{}\" {times} time(s) in one invocation; it declares {allowed}",
            stack.handler_name(h),
            stack.event_name(event)
        );
    }

    /// The call's own function returned: is its Rule-4 post action due now?
    /// Yes if it never spawned, or if everything it spawned has finished;
    /// otherwise the last spawned closure to finish runs it.
    pub(crate) fn body_returned(&self) -> bool {
        self.exec.get().is_none_or(|exec| exec.finish_fn())
    }

    /// The id of the computation this context belongs to.
    pub fn comp_id(&self) -> CompId {
        self.comp.id
    }

    /// The microprotocol of the currently executing handler, if any.
    pub fn current_protocol(&self) -> Option<ProtocolId> {
        self.current.map(|(_, p)| p)
    }

    /// The currently executing handler, if any.
    pub fn current_handler(&self) -> Option<HandlerId> {
        self.current.map(|(h, _)| h)
    }

    /// The stack this computation runs over.
    pub fn stack(&self) -> &Stack {
        &self.comp.rt.stack
    }

    /// Record a state access for the isolation checker (called by
    /// [`ProtocolState::with`](crate::protocol::ProtocolState::with) and
    /// [`ProtocolState::read_with`](crate::protocol::ProtocolState::read_with)).
    pub(crate) fn note_state_access(&self, pid: ProtocolId, write: bool) {
        self.comp.rt.history.record_access(self.comp.id, pid, write);
        if let Some(h) = &self.comp.rt.hook {
            // Dependence instrumentation: the access belongs to the current
            // scheduling step's footprint (the state lives under the
            // microprotocol's version resource), but it is not a yield.
            h.note(crate::sched::SchedResource::Version(pid.index() as u32));
        }
    }

    /// The handlers `event` calls — asked once by each trigger primitive.
    fn handlers_for(&self, event: EventType) -> &[HandlerId] {
        #[cfg(debug_assertions)]
        self.check_declared(event);
        self.comp.rt.stack.bound_handlers(event)
    }

    /// Synchronously call *the* handler bound to `event` (paper `trigger`).
    ///
    /// Errors if zero or more than one handler is bound, if the target
    /// microprotocol is undeclared, the visit bound is exhausted, or the
    /// routing pattern has no route from the current handler.
    pub fn trigger(&self, event: EventType, data: impl Into<EventData>) -> Result<()> {
        let handlers = self.handlers_for(event);
        match handlers {
            [] => Err(SamoaError::NoHandler { event }),
            [h] => self
                .comp
                .call_handler(self.current, event, *h, &data.into(), false),
            many => Err(SamoaError::MultipleHandlers {
                event,
                count: many.len(),
            }),
        }
    }

    /// Synchronously call *all* handlers bound to `event`, in bind order
    /// (paper `triggerAll`). Zero bound handlers is a no-op. Stops at the
    /// first failing handler.
    pub fn trigger_all(&self, event: EventType, data: impl Into<EventData>) -> Result<()> {
        let data = data.into();
        for &h in self.handlers_for(event) {
            self.comp
                .call_handler(self.current, event, h, &data, false)?;
        }
        Ok(())
    }

    /// Asynchronously request *the* handler bound to `event` (paper
    /// `asyncTrigger`): the call is queued and executed by a thread of this
    /// computation. Declaration/routing errors surface here, in the issuing
    /// thread; execution errors are reported when the computation is joined.
    pub fn async_trigger(&self, event: EventType, data: impl Into<EventData>) -> Result<()> {
        let handlers = self.handlers_for(event);
        match handlers {
            [] => Err(SamoaError::NoHandler { event }),
            [h] => {
                self.comp.check_issue(self.current, *h)?;
                self.comp.enqueue(Task::Call {
                    event,
                    handler: *h,
                    data: data.into(),
                    issuer: self.current,
                });
                Ok(())
            }
            many => Err(SamoaError::MultipleHandlers {
                event,
                count: many.len(),
            }),
        }
    }

    /// Asynchronously request *all* handlers bound to `event` (paper
    /// `asyncTriggerAll`).
    pub fn async_trigger_all(&self, event: EventType, data: impl Into<EventData>) -> Result<()> {
        let data = data.into();
        for &h in self.handlers_for(event) {
            self.comp.check_issue(self.current, h)?;
            self.comp.enqueue(Task::Call {
                event,
                handler: h,
                data: data.clone(),
                issuer: self.current,
            });
        }
        Ok(())
    }

    /// Run `f` on another thread of this computation.
    ///
    /// The closure executes with the identity of the current handler: it may
    /// access the current microprotocol's state, and the current handler
    /// call is not considered complete (for Rule 4 release purposes) until
    /// the closure finishes — the paper's "any threads spawned by the
    /// handler terminated".
    pub fn spawn(&self, f: impl FnOnce(&Ctx<'_>) -> Result<()> + Send + 'static) {
        let exec = self.exec.get_or_init(|| {
            Arc::new(ExecState::new(match self.current {
                Some((h, p)) => PostAction::Handler(h, p),
                None => PostAction::Root,
            }))
        });
        exec.add_child();
        self.comp.enqueue(Task::Closure {
            origin: self.current,
            exec: Arc::clone(exec),
            f: Box::new(f),
        });
    }

    /// Run `f` after this computation has completed: once every
    /// microprotocol it declared is released (Rule 3 — the version raises,
    /// or the 2PL unlocks), and before [`Runtime::run`](crate::Runtime::run),
    /// [`CompHandle::join`](crate::CompHandle::join) or
    /// [`Runtime::quiesce`](crate::Runtime::quiesce) can return for it.
    ///
    /// This is where a handler puts what leaves the computation for a thread
    /// outside it — completing a client's request, signalling a waiter. Done
    /// inside the handler, the thread it wakes can be back with its next
    /// request while this computation still holds what that request
    /// declares, and waits; done here, it finds nothing of this computation
    /// in its way. The computation is atomic to the outside either way;
    /// *when* the outside is told is the framework's business, not the
    /// handler's.
    ///
    /// Effects run exactly once, in the order they were queued, on the
    /// thread that completes the computation, whether or not the computation
    /// recorded an error (what the handler did to its state stands). `f` has
    /// no [`Ctx`]: the computation is over, and `f` may start the
    /// computations it caused. A panic in `f` is contained and
    /// recorded like a handler panic. A computation that queues nothing
    /// allocates nothing for this and pays one emptiness check.
    pub fn after_completion(&self, f: impl FnOnce() + Send + 'static) {
        self.comp.push_effect(Box::new(f));
    }
}

impl Drop for Ctx<'_> {
    fn drop(&mut self) {
        LIVE.with(|n| n.set(n.get() - 1));
    }
}

impl std::fmt::Debug for Ctx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("comp", &self.comp.id)
            .field("current", &self.current)
            .finish()
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use crate::error::SamoaError;
    use crate::event::EventData;
    use crate::runtime::{Decl, Runtime};
    use crate::stack::StackBuilder;

    /// How handler `h` declares the event `e` it triggers.
    #[derive(Clone, Copy)]
    enum Declared {
        Nothing,
        Never,
        Once,
        FanOut,
    }

    /// `h` triggers `e` `times` times; the panic message of the
    /// computation, if it failed.
    fn trigger_times(declared: Declared, times: usize) -> Option<String> {
        let mut b = StackBuilder::new();
        let p = b.protocol("P");
        let (root, e) = (b.event("root"), b.event("e"));
        b.bind_with_triggers(e, p, "sink", &[], |_, _| Ok(()));
        let h = b.bind(root, p, "h", move |ctx, _| {
            for _ in 0..times {
                ctx.async_trigger_all(e, EventData::empty())?;
            }
            Ok(())
        });
        match declared {
            Declared::Nothing => {}
            Declared::Never => b.declare_triggers(h, &[]),
            Declared::Once => b.declare_triggers(h, &[e]),
            Declared::FanOut => b.declare_fan_out(h, &[e]),
        }
        let rt = Runtime::new(b.build());
        match rt.run(Decl::Basic(&[p]), |ctx| {
            ctx.trigger(root, EventData::empty())
        }) {
            Ok(()) => None,
            Err(SamoaError::HandlerPanic { message, .. }) => Some(message),
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn a_trigger_beyond_the_declared_multiplicity_trips_the_check() {
        assert_eq!(trigger_times(Declared::Once, 1), None);
        let message = trigger_times(Declared::Once, 2).expect("the second trigger passed");
        assert_eq!(
            message,
            "handler \"h\" triggered \"e\" 2 time(s) in one invocation; it declares 1"
        );
        let message = trigger_times(Declared::Never, 1).expect("an undeclared trigger passed");
        assert!(message.ends_with("it declares 0"), "{message}");
    }

    #[test]
    fn a_fan_out_or_no_declaration_allows_any_count() {
        assert_eq!(trigger_times(Declared::FanOut, 5), None);
        assert_eq!(trigger_times(Declared::Nothing, 5), None);
    }
}
