//! Protocol stacks: registries of microprotocols, event types and bindings.
//!
//! A [`StackBuilder`] registers microprotocols, event types and handlers and
//! binds event types to handlers (the paper's `bind` primitive, §3). The
//! finished, immutable [`Stack`] is handed to the
//! [`Runtime`](crate::runtime::Runtime).
//!
//! Per the paper (§4) we do not support dynamic binding: all handlers must be
//! bound before any `isolated` commences and cannot be (re)bound inside
//! computations. Freezing the builder into an immutable `Stack` enforces this
//! statically.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::ctx::Ctx;
use crate::error::Result;
use crate::event::{EventData, EventType};
use crate::handler::{HandlerEntry, HandlerFn, HandlerId};
use crate::protocol::ProtocolId;

/// Mutable registry used to assemble a protocol stack.
#[derive(Default)]
pub struct StackBuilder {
    protocols: Vec<String>,
    events: Vec<String>,
    handlers: Vec<HandlerEntry>,
    /// `bindings[event] = handlers bound to that event, in bind order`.
    bindings: Vec<Vec<HandlerId>>,
    /// `triggers[handler] = events the handler's body may trigger`, if
    /// declared (see [`StackBuilder::declare_triggers`]).
    triggers: Vec<Option<Vec<EventType>>>,
    /// `fan_outs[handler] = events the handler's body may trigger any number
    /// of times per invocation` (see [`StackBuilder::declare_fan_out`]).
    fan_outs: Vec<Vec<EventType>>,
    /// Events that enter from outside (see [`StackBuilder::entry_events`]).
    entries: Vec<EventType>,
}

impl StackBuilder {
    /// Start an empty stack.
    pub fn new() -> Self {
        StackBuilder::default()
    }

    /// Register a microprotocol and get its id.
    pub fn protocol(&mut self, name: &str) -> ProtocolId {
        let id = ProtocolId(self.protocols.len() as u32);
        self.protocols.push(name.to_string());
        id
    }

    /// Register an event type and get its first-class token.
    pub fn event(&mut self, name: &str) -> EventType {
        let id = EventType(self.events.len() as u32);
        self.events.push(name.to_string());
        self.bindings.push(Vec::new());
        id
    }

    /// Register handler `name` of microprotocol `protocol` with body `f`,
    /// and bind it to event type `event`.
    ///
    /// Returns the handler's id, usable in routing patterns
    /// ([`RoutePattern`](crate::graph::RoutePattern)).
    pub fn bind<F>(&mut self, event: EventType, protocol: ProtocolId, name: &str, f: F) -> HandlerId
    where
        F: Fn(&Ctx<'_>, &EventData) -> Result<()> + Send + Sync + 'static,
    {
        assert!(
            protocol.index() < self.protocols.len(),
            "unknown protocol {protocol:?}"
        );
        assert!(event.index() < self.events.len(), "unknown event {event:?}");
        let id = HandlerId(self.handlers.len() as u32);
        self.handlers.push(HandlerEntry {
            id,
            name: name.to_string(),
            protocol,
            func: Arc::new(f) as HandlerFn,
        });
        self.triggers.push(None);
        self.fan_outs.push(Vec::new());
        self.bindings[event.index()].push(id);
        id
    }

    /// Declare the event types `handler`'s body may trigger — the static
    /// call-graph metadata consumed by [`crate::analysis`].
    ///
    /// The declaration is an upper bound on behaviour: a handler may trigger
    /// fewer events than declared (or none), but triggering an undeclared
    /// event makes every analysis result about this stack unreliable. Each
    /// occurrence in `events` stands for **at most one** trigger of that
    /// event per handler invocation; a handler that may trigger the same
    /// event up to `k` times per invocation lists it `k` times (this
    /// multiplicity is what [`crate::analysis::infer_bounds`] counts); one
    /// triggered in a loop is a [`StackBuilder::declare_fan_out`]. Debug
    /// builds panic in a handler that triggers beyond its declaration.
    ///
    /// Calling this again for the same handler *appends* to the declaration.
    /// Handlers with no declaration at all are treated by the analyses as
    /// triggering nothing, and reported by the linter (`SA006`).
    ///
    /// # Panics
    ///
    /// Panics if `handler` or any event is not registered on this builder.
    pub fn declare_triggers(&mut self, handler: HandlerId, events: &[EventType]) {
        assert!(
            handler.index() < self.handlers.len(),
            "unknown handler {handler:?}"
        );
        for &e in events {
            assert!(e.index() < self.events.len(), "unknown event {e:?}");
        }
        self.triggers[handler.index()]
            .get_or_insert_with(Vec::new)
            .extend_from_slice(events);
    }

    /// Declare that `handler`'s body may trigger each of `events` **any
    /// number of times** per invocation (a send per peer, a fragment per
    /// MTU), adding them to its [`StackBuilder::declare_triggers`]. The
    /// microprotocols below such an edge get the bound
    /// [`CYCLE_FALLBACK_BOUND`](crate::analysis::CYCLE_FALLBACK_BOUND).
    ///
    /// # Panics
    ///
    /// Panics if `handler` or any event is not registered on this builder.
    pub fn declare_fan_out(&mut self, handler: HandlerId, events: &[EventType]) {
        self.declare_triggers(handler, events);
        self.fan_outs[handler.index()].extend_from_slice(events);
    }

    /// [`StackBuilder::bind`] plus [`StackBuilder::declare_triggers`] in one
    /// call: register and bind the handler, and declare the events its body
    /// may trigger.
    pub fn bind_with_triggers<F>(
        &mut self,
        event: EventType,
        protocol: ProtocolId,
        name: &str,
        triggers: &[EventType],
        f: F,
    ) -> HandlerId
    where
        F: Fn(&Ctx<'_>, &EventData) -> Result<()> + Send + Sync + 'static,
    {
        let id = self.bind(event, protocol, name, f);
        self.declare_triggers(id, triggers);
        id
    }

    /// Bind an *additional* event type to an already-registered handler.
    ///
    /// SAMOA event types and handler names are first-class; a handler may be
    /// bound to several event types.
    pub fn bind_existing(&mut self, event: EventType, handler: HandlerId) {
        assert!(
            handler.index() < self.handlers.len(),
            "unknown handler {handler:?}"
        );
        assert!(event.index() < self.events.len(), "unknown event {event:?}");
        self.bindings[event.index()].push(handler);
    }

    /// Name the events that enter the stack from outside (paper §4): a
    /// host's datagrams, ticks and client calls, one event per kind of
    /// arrival it tells apart. A runtime derives what each declares when it
    /// is built, and [`Runtime::enter`](crate::Runtime::enter) starts a
    /// computation at one.
    pub fn entry_events(&mut self, events: &[EventType]) {
        self.entries.extend_from_slice(events);
    }

    /// Freeze the registry into an immutable [`Stack`].
    pub fn build(self) -> Stack {
        let mut by_name = HashMap::new();
        for h in &self.handlers {
            by_name.insert(h.name.clone(), h.id);
        }
        Stack {
            inner: Arc::new(StackInner {
                protocols: self.protocols,
                events: self.events,
                handlers: self.handlers,
                bindings: self.bindings,
                triggers: self.triggers,
                fan_outs: self.fan_outs,
                entries: self.entries,
                handlers_by_name: by_name,
            }),
        }
    }
}

pub(crate) struct StackInner {
    pub(crate) protocols: Vec<String>,
    pub(crate) events: Vec<String>,
    pub(crate) handlers: Vec<HandlerEntry>,
    pub(crate) bindings: Vec<Vec<HandlerId>>,
    pub(crate) triggers: Vec<Option<Vec<EventType>>>,
    pub(crate) fan_outs: Vec<Vec<EventType>>,
    pub(crate) entries: Vec<EventType>,
    pub(crate) handlers_by_name: HashMap<String, HandlerId>,
}

/// An immutable, fully bound protocol stack.
#[derive(Clone)]
pub struct Stack {
    pub(crate) inner: Arc<StackInner>,
}

impl Stack {
    /// Number of registered microprotocols.
    pub fn protocol_count(&self) -> usize {
        self.inner.protocols.len()
    }

    /// Number of registered event types.
    pub fn event_count(&self) -> usize {
        self.inner.events.len()
    }

    /// Number of registered handlers.
    pub fn handler_count(&self) -> usize {
        self.inner.handlers.len()
    }

    /// Name of a microprotocol.
    pub fn protocol_name(&self, p: ProtocolId) -> &str {
        &self.inner.protocols[p.index()]
    }

    /// Name of an event type.
    pub fn event_name(&self, e: EventType) -> &str {
        &self.inner.events[e.index()]
    }

    /// Name of a handler.
    pub fn handler_name(&self, h: HandlerId) -> &str {
        &self.inner.handlers[h.index()].name
    }

    /// The microprotocol a handler belongs to.
    pub fn handler_protocol(&self, h: HandlerId) -> ProtocolId {
        self.inner.handlers[h.index()].protocol
    }

    /// Handlers bound to an event type, in bind order.
    pub fn bound_handlers(&self, e: EventType) -> &[HandlerId] {
        &self.inner.bindings[e.index()]
    }

    /// Look a handler up by its registered name.
    pub fn handler_by_name(&self, name: &str) -> Option<HandlerId> {
        self.inner.handlers_by_name.get(name).copied()
    }

    /// All microprotocol ids, in registration order. Handy for the
    /// Appia-style serial baseline (`M` = everything).
    pub fn all_protocols(&self) -> Vec<ProtocolId> {
        (0..self.inner.protocols.len() as u32)
            .map(ProtocolId)
            .collect()
    }

    /// All event types, in registration order.
    pub fn all_events(&self) -> Vec<EventType> {
        (0..self.inner.events.len() as u32).map(EventType).collect()
    }

    /// All handler ids, in registration order.
    pub fn all_handlers(&self) -> Vec<HandlerId> {
        (0..self.inner.handlers.len() as u32)
            .map(HandlerId)
            .collect()
    }

    /// The events `h` declared it may trigger
    /// ([`StackBuilder::declare_triggers`]); `None` if the handler carries
    /// no metadata. Repeated entries declare per-invocation multiplicity.
    pub fn handler_triggers(&self, h: HandlerId) -> Option<&[EventType]> {
        self.inner.triggers[h.index()].as_deref()
    }

    /// The events `h` declared it may trigger any number of times per
    /// invocation ([`StackBuilder::declare_fan_out`]); empty when none.
    pub fn handler_fan_outs(&self, h: HandlerId) -> &[EventType] {
        &self.inner.fan_outs[h.index()]
    }

    /// Does *every* handler carry trigger metadata? Only then do the static
    /// analyses see the full call graph.
    pub fn has_full_trigger_metadata(&self) -> bool {
        self.inner.triggers.iter().all(|t| t.is_some())
    }

    pub(crate) fn entry(&self, h: HandlerId) -> &HandlerEntry {
        &self.inner.handlers[h.index()]
    }
}

impl fmt::Debug for Stack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Stack")
            .field("protocols", &self.inner.protocols)
            .field("events", &self.inner.events)
            .field("handlers", &self.inner.handlers.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noop() -> impl Fn(&Ctx<'_>, &EventData) -> Result<()> + Send + Sync + 'static {
        |_, _| Ok(())
    }

    #[test]
    fn build_registers_everything() {
        let mut b = StackBuilder::new();
        let p = b.protocol("P");
        let q = b.protocol("Q");
        let e = b.event("E");
        let h1 = b.bind(e, p, "h1", noop());
        let h2 = b.bind(e, q, "h2", noop());
        let s = b.build();
        assert_eq!(s.protocol_count(), 2);
        assert_eq!(s.event_count(), 1);
        assert_eq!(s.handler_count(), 2);
        assert_eq!(s.protocol_name(p), "P");
        assert_eq!(s.event_name(e), "E");
        assert_eq!(s.bound_handlers(e), &[h1, h2]);
        assert_eq!(s.handler_protocol(h1), p);
        assert_eq!(s.handler_protocol(h2), q);
        assert_eq!(s.handler_by_name("h2"), Some(h2));
        assert_eq!(s.handler_by_name("nope"), None);
    }

    #[test]
    fn bind_existing_adds_second_event() {
        let mut b = StackBuilder::new();
        let p = b.protocol("P");
        let e1 = b.event("E1");
        let e2 = b.event("E2");
        let h = b.bind(e1, p, "h", noop());
        b.bind_existing(e2, h);
        let s = b.build();
        assert_eq!(s.bound_handlers(e2), &[h]);
    }

    #[test]
    fn all_protocols_lists_in_order() {
        let mut b = StackBuilder::new();
        let p = b.protocol("P");
        let q = b.protocol("Q");
        let s = b.build();
        assert_eq!(s.all_protocols(), vec![p, q]);
    }

    #[test]
    #[should_panic(expected = "unknown protocol")]
    fn bind_with_foreign_protocol_panics() {
        let mut b = StackBuilder::new();
        let e = b.event("E");
        b.bind(e, ProtocolId(5), "h", noop());
    }

    #[test]
    fn trigger_metadata_roundtrip() {
        let mut b = StackBuilder::new();
        let p = b.protocol("P");
        let e1 = b.event("E1");
        let e2 = b.event("E2");
        let h1 = b.bind_with_triggers(e1, p, "h1", &[e2, e2], noop());
        let h2 = b.bind(e2, p, "h2", noop());
        let h3 = b.bind(e2, p, "h3", noop());
        b.declare_triggers(h3, &[]);
        let s = b.build();
        assert_eq!(s.handler_triggers(h1), Some(&[e2, e2][..]));
        assert_eq!(s.handler_triggers(h2), None);
        assert_eq!(s.handler_triggers(h3), Some(&[][..]));
        assert!(!s.has_full_trigger_metadata());
        assert_eq!(s.all_events(), vec![e1, e2]);
    }

    #[test]
    fn declare_triggers_appends() {
        let mut b = StackBuilder::new();
        let p = b.protocol("P");
        let e1 = b.event("E1");
        let e2 = b.event("E2");
        let h = b.bind(e1, p, "h", noop());
        b.declare_triggers(h, &[e1]);
        b.declare_triggers(h, &[e2]);
        let s = b.build();
        assert_eq!(s.handler_triggers(h), Some(&[e1, e2][..]));
        assert!(s.has_full_trigger_metadata());
    }

    #[test]
    fn fan_out_joins_the_trigger_declaration() {
        let mut b = StackBuilder::new();
        let p = b.protocol("P");
        let e1 = b.event("E1");
        let e2 = b.event("E2");
        let h = b.bind_with_triggers(e1, p, "h", &[e1], noop());
        b.declare_fan_out(h, &[e2]);
        let s = b.build();
        assert_eq!(s.handler_triggers(h), Some(&[e1, e2][..]));
        assert_eq!(s.handler_fan_outs(h), &[e2]);
    }

    #[test]
    #[should_panic(expected = "unknown event")]
    fn declare_triggers_unknown_event_panics() {
        let mut b = StackBuilder::new();
        let p = b.protocol("P");
        let e = b.event("E");
        let h = b.bind(e, p, "h", noop());
        b.declare_triggers(h, &[EventType(9)]);
    }

    #[test]
    fn event_with_no_binding_is_empty() {
        let mut b = StackBuilder::new();
        let _p = b.protocol("P");
        let e = b.event("E");
        let s = b.build();
        assert!(s.bound_handlers(e).is_empty());
    }
}
