//! `RelCast` — reliable broadcast (paper §3).
//!
//! `bcast` sends a message to every site in the current view via RelComm;
//! on the *first* receipt of a message each site rebroadcasts it before
//! delivering, so the message reaches all sites of the view even if the
//! original sender crashes mid-broadcast.
//!
//! Plain user casts and consensus decisions are two classes: each handler
//! is registered once per class, from one body, and delivers on its class's
//! event (`DeliverUser`, `DeliverOut`), so a user cast never reaches atomic
//! broadcast, not even to be turned away. Atomic-broadcast requests do not
//! ride RelCast: a request must reach the site that orders it, not every
//! site, and atomic broadcast sends it there itself (`abcast.rs`).
//!
//! The rebroadcast skips two sites: the message's origin and the site the
//! first copy came from. Both provably hold the message already — a site
//! marks a message seen and delivers it in the computation that sends it on
//! — so agreement is untouched: *every* first receiver still relays to
//! every member that may lack the message. With `n` sites a cast costs
//! `(n−1)` frames from the origin plus at most `(n−2)` from each receiver.

use samoa_core::prelude::*;
use samoa_net::SiteId;

use crate::events::Events;
use crate::msgs::{CastData, CastMsg, MsgUid, Payload, UidSet};
use crate::relcomm::RDeliver;
use crate::view::GroupView;

/// The local state of the RelCast microprotocol.
pub struct RelCastState {
    site: SiteId,
    view: GroupView,
    next_seq: u64,
    /// Every cast seen, ours included: a range set per origin
    /// ([`samoa_net::RangeSet`], the set RelComm's duplicate filter is), so
    /// its size follows the number of origins and holes, not of messages.
    seen: UidSet,
}

impl RelCastState {
    /// Fresh state for `site` with the given initial view.
    pub fn new(site: SiteId, view: GroupView) -> Self {
        RelCastState {
            site,
            view,
            next_seq: 0,
            seen: UidSet::default(),
        }
    }

    /// Number of distinct messages seen so far.
    pub fn seen_count(&self) -> usize {
        self.seen.len()
    }

    /// The view RelCast currently believes in.
    pub fn view(&self) -> &GroupView {
        &self.view
    }

    /// The seen set as `(origin, lo, hi)` ranges.
    #[cfg(test)]
    pub(crate) fn seen_ranges(&self) -> Vec<(SiteId, u64, u64)> {
        self.seen.ranges()
    }
}

/// Send `msg` through RelComm to every member of `view` except the sites
/// in `holders`, which already have it (this site among them).
fn fan_out(
    ctx: &Ctx<'_>,
    ev: &Events,
    holders: &[SiteId],
    view: &GroupView,
    msg: &CastMsg,
) -> Result<()> {
    for &target in view.members() {
        if !holders.contains(&target) {
            ctx.trigger(
                ev.send_out,
                EventData::new((Payload::Cast(msg.clone()), target)),
            )?;
        }
    }
    Ok(())
}

/// Register RelCast on the builder.
pub fn register(
    b: &mut StackBuilder,
    pid: ProtocolId,
    ev: &Events,
    state: ProtocolState<RelCastState>,
) {
    let events = *ev;

    // Both `bcast` and `recv` fan `SendOut` out once per peer — a fan-out,
    // the count is the view's — and deliver locally on `deliver`, their
    // class's event.
    let bcast = |b: &mut StackBuilder, e: EventType, name: &str, deliver: EventType| {
        let state = state.clone();
        let h = b.bind_with_triggers(e, pid, name, &[deliver], move |ctx, data| {
            let cast_data: &CastData = data.expect(e)?;
            let (me, view, msg) = state.with(ctx, |s| {
                s.next_seq += 1;
                let msg = CastMsg {
                    uid: MsgUid {
                        origin: s.site,
                        seq: s.next_seq,
                    },
                    data: cast_data.clone(),
                };
                s.seen.insert(msg.uid);
                (s.site, s.view.clone(), msg)
            });
            fan_out(ctx, &events, &[me], &view, &msg)?;
            // Deliver locally too — the sender is part of the group.
            ctx.async_trigger_all(deliver, EventData::new(msg))
        });
        b.declare_fan_out(h, &[events.send_out]);
    };
    bcast(b, ev.bcast_user, "relcast.bcast_user", ev.deliver_user);
    bcast(b, ev.bcast, "relcast.bcast", ev.deliver_out);

    let recv = |b: &mut StackBuilder, e: EventType, name: &str, deliver: EventType| {
        let state = state.clone();
        let h = b.bind_with_triggers(e, pid, name, &[deliver], move |ctx, data| {
            let d: &RDeliver<CastMsg> = data.expect(e)?;
            let msg = &d.payload;
            let rebroadcast = state.with(ctx, |s| {
                if s.seen.insert(msg.uid) {
                    Some((s.site, s.view.clone()))
                } else {
                    None
                }
            });
            if let Some((me, view)) = rebroadcast {
                // First receipt: rebroadcast to whoever may lack it, then
                // deliver (paper's recv).
                fan_out(ctx, &events, &[me, msg.uid.origin, d.sender], &view, msg)?;
                ctx.async_trigger_all(deliver, EventData::new(msg.clone()))?;
            }
            Ok(())
        });
        b.declare_fan_out(h, &[events.send_out]);
    };
    recv(b, ev.from_rcomm_user, "relcast.recv_user", ev.deliver_user);
    recv(b, ev.from_rcomm_cast, "relcast.recv", ev.deliver_out);

    {
        let state = state.clone();
        let e = ev.view_change;
        b.bind_with_triggers(e, pid, "relcast.view_change", &[], move |ctx, data| {
            let v: &GroupView = data.expect(e)?;
            state.with(ctx, |s| s.view = v.clone());
            Ok(())
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_tracks_seen() {
        let mut s = RelCastState::new(SiteId(1), GroupView::of_first(2));
        assert_eq!(s.seen_count(), 0);
        s.seen.insert(MsgUid {
            origin: SiteId(0),
            seq: 1,
        });
        assert_eq!(s.seen_count(), 1);
        assert_eq!(s.view().len(), 2);
    }
}
