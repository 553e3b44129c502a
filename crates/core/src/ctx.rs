//! The computation context handed to handlers and `isolated` closures.
//!
//! [`Ctx`] carries the computation identity and exposes the paper's event
//! primitives: synchronous `trigger` / `triggerAll` and asynchronous
//! `asyncTrigger` / `asyncTriggerAll` (§3), plus explicit thread creation
//! within the computation (§4: "new threads can be created dynamically")
//! and the one way out of it: [`Ctx::after_completion`] queues an effect on
//! the outside world — a reply, a wake-up — to run once the computation has
//! let go of everything it declared.

use std::sync::{Arc, OnceLock};

use crate::computation::{ComputationInner, ExecState, PostAction, Task};
use crate::error::{CompId, Result, SamoaError};
use crate::event::{EventData, EventType};
use crate::handler::HandlerId;
use crate::protocol::ProtocolId;
use crate::stack::Stack;

/// Execution context of a handler (or of the `isolated` closure body).
///
/// A `Ctx` is bound to one computation and one call site; nested handler
/// calls get fresh contexts. It is not `Clone` — pass `&Ctx` down, or use
/// [`Ctx::spawn`] to move work to another thread of the same computation.
pub struct Ctx {
    comp: Arc<ComputationInner>,
    /// The handler currently executing, and its microprotocol; `None` in the
    /// closure body.
    current: Option<(HandlerId, ProtocolId)>,
    /// Execution-state of the current handler call (or closure body), tying
    /// spawned threads to the call's completion (paper Rule 4). Created by
    /// the call's first [`Ctx::spawn`]: a call that spawns nothing — nearly
    /// every call — allocates nothing and releases as soon as it returns.
    exec: OnceLock<Arc<ExecState>>,
    /// True while executing a handler registered with `bind_read_only`.
    read_only: bool,
}

impl Ctx {
    /// The context of a fresh call (`exec` empty) or of a closure spawned
    /// by one (`exec` the spawning call's).
    pub(crate) fn new(
        comp: Arc<ComputationInner>,
        current: Option<(HandlerId, ProtocolId)>,
        exec: OnceLock<Arc<ExecState>>,
        read_only: bool,
    ) -> Self {
        Ctx {
            comp,
            current,
            exec,
            read_only,
        }
    }

    /// The call's own function returned: is its Rule-4 post action due now?
    /// Yes if it never spawned, or if everything it spawned has finished;
    /// otherwise the last spawned closure to finish runs it.
    pub(crate) fn body_returned(&self) -> bool {
        self.exec.get().is_none_or(|exec| exec.finish_fn())
    }

    /// Is the current handler declared read-only?
    pub(crate) fn in_read_only_handler(&self) -> bool {
        self.read_only
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

    fn handlers_for(&self, event: EventType) -> &[HandlerId] {
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
    pub fn spawn(&self, f: impl FnOnce(&Ctx) -> Result<()> + Send + 'static) {
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
            read_only: self.read_only,
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
    /// no [`Ctx`]: the computation is over. A panic in `f` is contained and
    /// recorded like a handler panic. A computation that queues nothing
    /// allocates nothing for this and pays one emptiness check.
    pub fn after_completion(&self, f: impl FnOnce() + Send + 'static) {
        self.comp.push_effect(Box::new(f));
    }
}

impl std::fmt::Debug for Ctx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("comp", &self.comp.id)
            .field("current", &self.current)
            .finish()
    }
}
