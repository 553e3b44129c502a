//! Microprotocols and their local state.
//!
//! A microprotocol groups related handlers around a shared local state
//! (paper §2). The protocol's overall state is the union of the disjoint
//! local states of its microprotocols; a handler may directly modify only the
//! local state of its *own* microprotocol.
//!
//! [`ProtocolState`] is the state cell. Handlers access it through
//! [`ProtocolState::with`], which
//!
//! * serialises *intra*-computation access (the paper assumes each
//!   microprotocol object is atomic — "only one instance at a time"),
//! * records the access in the runtime's history when recording is enabled,
//!   so tests can check the isolation property after the fact, and
//! * panics if a handler of a *different* microprotocol touches the state,
//!   enforcing the model's modularity rule.
//!
//! *Inter*-computation isolation is not this cell's job: that is provided by
//! the versioning concurrency control (paper §5).
//!
//! ## What an access costs
//!
//! Every handler passes through this cell, so its uncontended path is kept
//! to user space: the lock is a `parking_lot::ReentrantMutex` — one CAS to
//! take, one store and one load to release, a sleeping waiter the only
//! reason to enter the kernel (the in-tree shim pins that as counts in its
//! own tests) — plus the `RefCell` flag and, when the runtime records a
//! history, the access log. Under an isolating policy the lock is never
//! contended *between* computations (Rule 2 already admitted this one
//! alone); only threads of one computation can meet on it.

use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

use parking_lot::ReentrantMutex;

use crate::ctx::Ctx;

/// Identifier of a microprotocol, unique within its stack.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProtocolId(pub(crate) u32);

impl ProtocolId {
    /// Raw index of this microprotocol inside its stack.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ProtocolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ProtocolId({})", self.0)
    }
}

/// The local state of one microprotocol.
///
/// Cloning the cell is cheap and shares the state; handlers of the
/// microprotocol capture clones of it.
///
/// ```
/// # use samoa_core::prelude::*;
/// let mut b = StackBuilder::new();
/// let counter_p = b.protocol("Counter");
/// let tick = b.event("Tick");
/// let count = ProtocolState::new(counter_p, 0u64);
/// {
///     let count = count.clone();
///     b.bind(tick, counter_p, "on_tick", move |ctx, _ev| {
///         count.with(ctx, |c| *c += 1);
///         Ok(())
///     });
/// }
/// let rt = Runtime::new(b.build());
/// rt.run(Decl::Basic(&[counter_p]), |ctx| ctx.trigger(tick, EventData::empty()))
///     .unwrap();
/// assert_eq!(count.read(|c| *c), 1);
/// ```
pub struct ProtocolState<S> {
    pid: ProtocolId,
    inner: Arc<ReentrantMutex<RefCell<S>>>,
}

impl<S> Clone for ProtocolState<S> {
    fn clone(&self) -> Self {
        ProtocolState {
            pid: self.pid,
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<S> ProtocolState<S> {
    /// Create the state cell for microprotocol `pid` with an initial value.
    pub fn new(pid: ProtocolId, initial: S) -> Self {
        ProtocolState {
            pid,
            inner: Arc::new(ReentrantMutex::new(RefCell::new(initial))),
        }
    }

    /// The microprotocol this state belongs to.
    pub fn protocol(&self) -> ProtocolId {
        self.pid
    }

    /// Access the state from inside a handler (or the `isolated` closure of
    /// a computation whose declaration covers this microprotocol).
    ///
    /// The access is recorded in the runtime history (when enabled) under the
    /// calling computation, which is what the serializability checker in
    /// [`history`](crate::history) consumes.
    ///
    /// # Panics
    ///
    /// Panics if called from a handler of a *different* microprotocol: the
    /// SAMOA model only lets a handler modify the local state of its own
    /// microprotocol. Cross-protocol reads must go through events.
    ///
    /// Do not call [`Ctx::trigger`] while inside the closure — keep state
    /// accesses short and trigger events outside. (Re-entrant `with` on the
    /// same thread panics on the inner `RefCell`.)
    pub fn with<R>(&self, ctx: &Ctx<'_>, f: impl FnOnce(&mut S) -> R) -> R {
        self.assert_ownership(ctx);
        ctx.note_state_access(self.pid, true);
        let guard = self.inner.lock();
        let mut state = guard.borrow_mut();
        f(&mut state)
    }

    /// Read-only access from inside a handler. Recorded as a *read* for the
    /// isolation checker ([`history`](crate::history)), which orders reads
    /// only against writes.
    pub fn read_with<R>(&self, ctx: &Ctx<'_>, f: impl FnOnce(&S) -> R) -> R {
        self.assert_ownership(ctx);
        ctx.note_state_access(self.pid, false);
        let guard = self.inner.lock();
        let state = guard.borrow();
        f(&state)
    }

    fn assert_ownership(&self, ctx: &Ctx<'_>) {
        if let Some(current) = ctx.current_protocol() {
            assert!(
                current == self.pid,
                "handler of {current:?} accessed state of {:?}; \
                 a handler may only touch its own microprotocol's state",
                self.pid
            );
        }
    }

    /// Access the state outside any computation — e.g. to inspect the final
    /// state in tests, or to initialise it before the runtime starts.
    ///
    /// This bypasses access recording and the ownership assertion, so it must
    /// not be used from handler code.
    pub fn read<R>(&self, f: impl FnOnce(&S) -> R) -> R {
        let guard = self.inner.lock();
        let state = guard.borrow();
        f(&state)
    }

    /// Mutate the state outside any computation (setup/teardown only).
    pub fn write<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        let guard = self.inner.lock();
        let mut state = guard.borrow_mut();
        f(&mut state)
    }
}

impl<S: Clone> ProtocolState<S> {
    /// Clone the current state (outside any computation).
    pub fn snapshot(&self) -> S {
        self.read(|s| s.clone())
    }
}

impl<S> fmt::Debug for ProtocolState<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProtocolState")
            .field("protocol", &self.pid)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_outside_computation() {
        let s = ProtocolState::new(ProtocolId(0), vec![1u32]);
        s.write(|v| v.push(2));
        assert_eq!(s.snapshot(), vec![1, 2]);
        assert_eq!(s.read(|v| v.len()), 2);
    }

    #[test]
    fn clone_shares_state() {
        let a = ProtocolState::new(ProtocolId(1), 0i64);
        let b = a.clone();
        a.write(|v| *v = 9);
        assert_eq!(b.snapshot(), 9);
        assert_eq!(b.protocol(), ProtocolId(1));
    }

    #[test]
    fn state_is_send_sync_when_inner_is_send() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ProtocolState<Vec<u8>>>();
    }
}
