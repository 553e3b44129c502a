//! `Membership` — consistent group views (paper §3).
//!
//! Join/leave requests are funnelled through atomic broadcast, so every site
//! applies the same view operations in the same order; upon delivery the new
//! view is propagated locally to all interested microprotocols with a
//! *synchronous* `triggerAll ViewChange` ("to deliver views to all in a
//! sequential order"), exactly as the paper's `deliverView` does.
//!
//! The failure detector's `Suspect` events are converted into leave
//! requests, closing the loop: crashed sites are eventually excluded.

use samoa_core::prelude::*;
use samoa_net::SiteId;

use crate::events::Events;
use crate::msgs::{AbPayload, SyncMsg};
use crate::observe::{ClusterTracer, ConsensusInstruments};
use crate::view::{GroupView, ViewOp};

/// The local state of the membership microprotocol.
pub struct MembershipState {
    view: GroupView,
    /// All views installed so far (diagnostics; the paper's view history).
    pub history: Vec<GroupView>,
    /// Sites whose removal this node has already requested, so repeated
    /// failure-detector announcements do not flood atomic broadcast with
    /// duplicate leave operations.
    leave_requested: std::collections::HashSet<SiteId>,
    /// Cluster tracer, when the node is traced (view-change spans).
    pub tracer: Option<ClusterTracer>,
    /// Views installed: the `view_changes` of the bundle the consensus
    /// state holds too.
    pub instruments: ConsensusInstruments,
}

impl MembershipState {
    /// Fresh state with the initial view.
    pub fn new(view: GroupView) -> Self {
        MembershipState {
            history: vec![view.clone()],
            view,
            leave_requested: std::collections::HashSet::new(),
            tracer: None,
            instruments: ConsensusInstruments::default(),
        }
    }

    /// The current view.
    pub fn view(&self) -> &GroupView {
        &self.view
    }

    /// Emission-only accounting for a just-installed view.
    fn observe_installed(&self) {
        if let Some(t) = &self.tracer {
            t.emit(samoa_core::TraceKind::ClusterViewChange {
                site: t.site().0,
                view_id: self.view.id,
                members: self.view.len() as u32,
            });
        }
        self.instruments.view_changes.inc();
    }
}

/// Register the membership microprotocol on the builder.
pub fn register(
    b: &mut StackBuilder,
    pid: ProtocolId,
    ev: &Events,
    state: ProtocolState<MembershipState>,
) {
    let events = *ev;

    {
        let e = ev.join_leave;
        b.bind_with_triggers(
            e,
            pid,
            "membership.joinleave",
            &[ev.abcast],
            move |ctx, data| {
                let (op, site): &(ViewOp, SiteId) = data.expect(e)?;
                // `trigger ABcast [op site]` — the paper's joinleave body.
                ctx.trigger(events.abcast, EventData::new(AbPayload::ViewOp(*op, *site)))
            },
        );
    }

    {
        let state = state.clone();
        let e = ev.adeliver_view;
        let triggers = [ev.view_change];
        b.bind_with_triggers(
            e,
            pid,
            "membership.deliver_view",
            &triggers,
            move |ctx, data| {
                let (op, site): &(ViewOp, SiteId) = data.expect(e)?;
                let new_view = state.with(ctx, |s| {
                    s.view = s.view.apply(*op, *site);
                    s.history.push(s.view.clone());
                    // Once a site is actually out, a future re-join may be
                    // suspected (and removed) again.
                    let view = s.view.clone();
                    s.leave_requested.retain(|m| view.contains(*m));
                    s.observe_installed();
                    s.view.clone()
                });
                // `triggerAll ViewChange view` — synchronous propagation.
                ctx.trigger_all(events.view_change, EventData::new(new_view))
            },
        );
    }

    {
        let state = state.clone();
        let e = ev.suspect;
        b.bind_with_triggers(
            e,
            pid,
            "membership.on_suspect",
            &[ev.abcast],
            move |ctx, data| {
                let site: &SiteId = data.expect(e)?;
                let should_request = state.with(ctx, |s| {
                    s.view.contains(*site) && s.leave_requested.insert(*site)
                });
                if should_request {
                    ctx.trigger(
                        events.abcast,
                        EventData::new(AbPayload::ViewOp(ViewOp::Leave, *site)),
                    )?;
                }
                Ok(())
            },
        );
    }

    {
        let state = state.clone();
        let e = ev.view_sync;
        let triggers = [ev.view_change];
        b.bind_with_triggers(
            e,
            pid,
            "membership.adopt_view",
            &triggers,
            move |ctx, data| {
                let sync: &SyncMsg = data.expect(e)?;
                let installed = state.with(ctx, |s| {
                    if sync.view_id > s.view.id {
                        s.view = GroupView::from_parts(sync.view_id, sync.members.iter().copied());
                        s.history.push(s.view.clone());
                        s.observe_installed();
                        Some(s.view.clone())
                    } else {
                        None
                    }
                });
                if let Some(view) = installed {
                    ctx.trigger_all(events.view_change, EventData::new(view))?;
                }
                Ok(())
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_records_history() {
        let mut s = MembershipState::new(GroupView::of_first(2));
        assert_eq!(s.history.len(), 1);
        s.view = s.view.apply(ViewOp::Join, SiteId(5));
        s.history.push(s.view.clone());
        assert_eq!(s.history.len(), 2);
        assert!(s.view().contains(SiteId(5)));
    }
}
