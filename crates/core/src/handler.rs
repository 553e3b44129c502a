//! Event handlers.
//!
//! Handlers are the code blocks of the SAMOA model (paper §2). Several
//! handlers grouped into one microprotocol share that microprotocol's local
//! state. A handler is registered (and simultaneously bound to an event
//! type) with [`StackBuilder::bind`](crate::stack::StackBuilder::bind).

use std::fmt;
use std::sync::Arc;

use crate::ctx::Ctx;
use crate::error::Result;
use crate::event::EventData;
use crate::protocol::ProtocolId;

/// Identifier of a registered handler, unique within its stack.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HandlerId(pub(crate) u32);

impl HandlerId {
    /// Raw index of this handler inside its stack.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for HandlerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "HandlerId({})", self.0)
    }
}

/// The function type of a handler body.
///
/// The body receives the computation context (for triggering further events)
/// and the payload of the event that triggered it, and may fail with a
/// [`SamoaError`](crate::error::SamoaError).
pub type HandlerFn = Arc<dyn Fn(&Ctx<'_>, &EventData) -> Result<()> + Send + Sync>;

/// A registered handler: its identity, owning microprotocol, and body.
#[derive(Clone)]
pub(crate) struct HandlerEntry {
    pub(crate) id: HandlerId,
    pub(crate) name: String,
    pub(crate) protocol: ProtocolId,
    pub(crate) func: HandlerFn,
}

impl fmt::Debug for HandlerEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HandlerEntry")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("protocol", &self.protocol)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handler_id_ordering_follows_index() {
        assert!(HandlerId(1) < HandlerId(2));
        assert_eq!(HandlerId(5).index(), 5);
    }

    #[test]
    fn debug_format() {
        assert_eq!(format!("{:?}", HandlerId(3)), "HandlerId(3)");
    }
}
