//! The Application Module sink: a microprotocol that records what the stack
//! delivered, so tests, examples, and benches can observe protocol-level
//! outcomes (reliable-broadcast deliveries, the atomic-broadcast total
//! order, and installed views).

use bytes::Bytes;
use samoa_core::prelude::*;
use samoa_net::SiteId;

use crate::abcast::ARun;
use crate::events::Events;
use crate::msgs::{CastData, CastMsg};
use crate::view::GroupView;

/// Everything the application observed, in arrival order.
#[derive(Debug, Default)]
pub struct AppState {
    /// Reliable-broadcast deliveries `(origin, payload)`; unordered across
    /// sites (RelCast gives reliability, not order).
    pub rb_delivered: Vec<(SiteId, Bytes)>,
    /// Atomic-broadcast deliveries `(origin, payload)`; the same sequence
    /// on every correct site.
    pub ab_delivered: Vec<(SiteId, Bytes)>,
    /// Views installed, in order.
    pub views: Vec<GroupView>,
}

/// Register the application sink on the builder.
pub fn register(
    b: &mut StackBuilder,
    pid: ProtocolId,
    ev: &Events,
    state: ProtocolState<AppState>,
) {
    {
        let state = state.clone();
        let e = ev.deliver_user;
        // The application is a pure sink: no handler triggers anything.
        b.bind_with_triggers(e, pid, "app.on_deliver", &[], move |ctx, data| {
            let msg: &CastMsg = data.expect(e)?;
            let CastData::User(bytes) = &msg.data else {
                return Err(SamoaError::WrongPayloadType {
                    event: e,
                    expected: "CastData::User",
                });
            };
            let (origin, bytes) = (msg.uid.origin, bytes.clone());
            state.with(ctx, |s| s.rb_delivered.push((origin, bytes)));
            Ok(())
        });
    }

    {
        let state = state.clone();
        let e = ev.adeliver;
        b.bind_with_triggers(e, pid, "app.on_adeliver", &[], move |ctx, data| {
            let run: &ARun = data.expect(e)?;
            let items = run.iter().map(|(uid, bytes)| (uid.origin, bytes.clone()));
            state.with(ctx, |s| s.ab_delivered.extend(items));
            Ok(())
        });
    }

    {
        let state = state.clone();
        let e = ev.view_change;
        b.bind_with_triggers(e, pid, "app.on_view", &[], move |ctx, data| {
            let v: &GroupView = data.expect(e)?;
            state.with(ctx, |s| s.views.push(v.clone()));
            Ok(())
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_state_is_empty() {
        let s = AppState::default();
        assert!(s.rb_delivered.is_empty());
        assert!(s.ab_delivered.is_empty());
        assert!(s.views.is_empty());
    }
}
