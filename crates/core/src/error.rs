//! Error types for the SAMOA runtime.
//!
//! The paper's J-SAMOA throws runtime exceptions in the thread that called
//! `isolated` when a computation violates its declaration (calling a handler
//! of an undeclared microprotocol, exhausting a declared visit bound, or
//! calling outside the declared routing pattern). We surface the same
//! conditions as values of [`SamoaError`].

use std::fmt;

use crate::event::EventType;
use crate::handler::HandlerId;
use crate::protocol::ProtocolId;

/// Identifier of a dynamic computation instance (spawn order, starting at 1).
pub type CompId = u64;

/// Everything that can go wrong while executing a SAMOA computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SamoaError {
    /// A computation tried to call a handler of a microprotocol that was not
    /// declared in its `isolated M e` collection `M` (paper §4).
    UndeclaredProtocol {
        /// The offending computation.
        comp: CompId,
        /// The microprotocol that was not declared.
        protocol: ProtocolId,
    },
    /// Under `isolated bound`, the computation visited a microprotocol more
    /// times than the declared least upper bound (paper §4, §5.2).
    BoundExhausted {
        /// The offending computation.
        comp: CompId,
        /// The microprotocol whose visit budget is exhausted.
        protocol: ProtocolId,
        /// The declared least upper bound.
        bound: u64,
    },
    /// Under `isolated route`, a handler tried to call another handler with
    /// no declared route between them (paper §4, §5.3).
    NoRoute {
        /// The offending computation.
        comp: CompId,
        /// The calling handler; `None` means the call came directly from the
        /// `isolated` closure body (the virtual root).
        from: Option<HandlerId>,
        /// The handler that was called.
        to: HandlerId,
    },
    /// Under `isolated route`, the target handler is not a vertex of the
    /// declared routing pattern at all.
    NotInPattern {
        /// The offending computation.
        comp: CompId,
        /// The handler missing from the pattern.
        handler: HandlerId,
    },
    /// `trigger` was used on an event type with no bound handler.
    NoHandler {
        /// The event type with no binding.
        event: EventType,
    },
    /// `trigger` (singular) was used on an event type bound to more than one
    /// handler; the paper's `trigger` calls *a (single) handler*, use
    /// `trigger_all` for one-to-many events.
    MultipleHandlers {
        /// The ambiguous event type.
        event: EventType,
        /// How many handlers are bound to it.
        count: usize,
    },
    /// An event payload had a different type than the handler expected.
    WrongPayloadType {
        /// The event whose payload failed to downcast.
        event: EventType,
        /// The type the handler asked for.
        expected: &'static str,
    },
    /// A handler panicked; the panic was caught so that version accounting
    /// stays consistent, and is reported as an error instead.
    HandlerPanic {
        /// The handler that panicked.
        handler: HandlerId,
        /// The panic payload rendered as a string, when available.
        message: String,
    },
    /// A duplicate protocol, event or handler name was registered.
    DuplicateName {
        /// The offending name.
        name: String,
    },
    /// A handler name used in a declaration (e.g.
    /// [`RoutePattern::try_from_names`](crate::graph::RoutePattern::try_from_names))
    /// is not registered on the stack.
    UnknownHandlerName {
        /// The name that failed to resolve.
        name: String,
    },
    /// A computation was started by code of a running one — a closure
    /// body, a handler or a [`Ctx::spawn`](crate::Ctx::spawn) closure. A
    /// computation starts only at an external event (paper §4); one that
    /// another causes (§2) is started after its cause has completed, from
    /// [`Ctx::after_completion`](crate::Ctx::after_completion).
    NestedSpawn,
    /// An error raised explicitly by user protocol code.
    Protocol {
        /// Human-readable description supplied by the protocol.
        message: String,
    },
}

impl SamoaError {
    /// Construct a [`SamoaError::Protocol`] from anything displayable.
    pub fn protocol(msg: impl fmt::Display) -> Self {
        SamoaError::Protocol {
            message: msg.to_string(),
        }
    }
}

impl fmt::Display for SamoaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SamoaError::UndeclaredProtocol { comp, protocol } => write!(
                f,
                "computation {comp} called a handler of undeclared microprotocol {protocol:?}"
            ),
            SamoaError::BoundExhausted {
                comp,
                protocol,
                bound,
            } => write!(
                f,
                "computation {comp} exceeded its visit bound {bound} for microprotocol {protocol:?}"
            ),
            SamoaError::NoRoute { comp, from, to } => match from {
                Some(h) => write!(
                    f,
                    "computation {comp}: no route from handler {h:?} to handler {to:?}"
                ),
                None => write!(
                    f,
                    "computation {comp}: handler {to:?} is not a declared root of the routing pattern"
                ),
            },
            SamoaError::NotInPattern { comp, handler } => write!(
                f,
                "computation {comp}: handler {handler:?} is not a vertex of the routing pattern"
            ),
            SamoaError::NoHandler { event } => {
                write!(f, "no handler bound to event type {event:?}")
            }
            SamoaError::MultipleHandlers { event, count } => write!(
                f,
                "trigger on event type {event:?} bound to {count} handlers; use trigger_all"
            ),
            SamoaError::WrongPayloadType { event, expected } => write!(
                f,
                "payload of event {event:?} is not of the expected type {expected}"
            ),
            SamoaError::HandlerPanic { handler, message } => {
                write!(f, "handler {handler:?} panicked: {message}")
            }
            SamoaError::DuplicateName { name } => {
                write!(f, "duplicate registration of name {name:?}")
            }
            SamoaError::UnknownHandlerName { name } => {
                write!(f, "no handler named {name:?} in the stack")
            }
            SamoaError::NestedSpawn => write!(
                f,
                "a computation cannot start another while it runs; \
                 start it from Ctx::after_completion"
            ),
            SamoaError::Protocol { message } => write!(f, "protocol error: {message}"),
        }
    }
}

impl std::error::Error for SamoaError {}

/// Convenience result type used throughout the crate.
pub type Result<T> = std::result::Result<T, SamoaError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_computation_and_protocol() {
        let e = SamoaError::UndeclaredProtocol {
            comp: 7,
            protocol: ProtocolId(3),
        };
        let s = e.to_string();
        assert!(s.contains('7'), "{s}");
        assert!(s.contains("ProtocolId(3)"), "{s}");
    }

    #[test]
    fn display_bound_exhausted() {
        let e = SamoaError::BoundExhausted {
            comp: 1,
            protocol: ProtocolId(0),
            bound: 2,
        };
        assert!(e.to_string().contains("bound 2"));
    }

    #[test]
    fn display_no_route_from_root() {
        let e = SamoaError::NoRoute {
            comp: 1,
            from: None,
            to: HandlerId(4),
        };
        assert!(e.to_string().contains("root"));
    }

    #[test]
    fn protocol_error_roundtrip() {
        let e = SamoaError::protocol("view lost");
        assert_eq!(
            e,
            SamoaError::Protocol {
                message: "view lost".into()
            }
        );
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&SamoaError::NoHandler {
            event: EventType(9),
        });
    }
}
