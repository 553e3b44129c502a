//! The event types shared by the group-communication stack.
//!
//! These mirror the paper's §3 event names (`SendOut`, `FromRComm`,
//! `ABcast`, `ViewChange`, …) plus the external events injected by the
//! Network Module and the timer module. RelCast carries plain user casts
//! only (`BcastUser`, `DeliverUser`): a consensus decision goes point to
//! point (`ConsMsg::Decide`) when it travels at all — at a quorum of 2 a
//! follower reaches it as it accepts the `Propose` — and consensus hands it
//! to atomic broadcast on `ConsDecide`.
//!
//! A layer that demultiplexes triggers one event per class of traffic and
//! each handler above binds only its own, so the static call graph sees
//! what a payload can reach; a class the Network Module or the client API
//! tells apart at the door enters on an event of its own
//! ([`Events::entries`]).

use samoa_core::prelude::*;

/// All event types of one site's stack, declared once at startup.
#[derive(Debug, Clone, Copy)]
pub struct Events {
    /// Raw RelComm data frame arrived from the network, carrying anything
    /// but a plain user cast (external).
    pub rc_data: EventType,
    /// Raw RelComm data frame carrying a plain user cast (external).
    pub rc_data_user: EventType,
    /// Raw RelComm ack arrived from the network (external).
    pub rc_ack: EventType,
    /// Reliable point-to-point send request: `(Payload, target)`.
    pub send_out: EventType,
    /// RelComm delivered a plain user cast:
    /// [`RDeliver<CastMsg>`](crate::relcomm::RDeliver).
    pub from_rcomm_user: EventType,
    /// RelComm delivered packed atomic-broadcast requests:
    /// [`RDeliver<Batch>`](crate::relcomm::RDeliver), the
    /// [`Batch`](crate::msgs::Batch) the datagram was decoded into.
    pub from_rcomm_request: EventType,
    /// RelComm delivered a consensus `Propose`:
    /// [`RDeliver<ConsMsg>`](crate::relcomm::RDeliver). Atomic broadcast
    /// adopts the requests it carries; consensus handles it as any other
    /// consensus message.
    pub from_rcomm_propose: EventType,
    /// RelComm delivered any other consensus message:
    /// [`RDeliver<ConsMsg>`](crate::relcomm::RDeliver).
    pub from_rcomm_cons: EventType,
    /// RelComm delivered a state transfer:
    /// [`RDeliver<SyncMsg>`](crate::relcomm::RDeliver).
    pub from_rcomm_sync: EventType,
    /// Plain reliable-broadcast request: payload
    /// [`CastData::User`](crate::msgs::CastData) (external).
    pub bcast_user: EventType,
    /// Reliable-broadcast delivery of a plain user cast: payload
    /// [`CastMsg`](crate::msgs::CastMsg).
    pub deliver_user: EventType,
    /// Atomic-broadcast request: payload [`AbPayload`](crate::msgs::AbPayload).
    pub abcast: EventType,
    /// Atomic-broadcast delivery (totally ordered) of a run of consecutive
    /// user payloads, no view operation between them:
    /// [`ARun`](crate::abcast::ARun), `(MsgUid, Bytes)` each.
    pub adeliver: EventType,
    /// Atomic-broadcast delivery (in the same total order) of a view
    /// operation: `(ViewOp, SiteId)`.
    pub adeliver_view: EventType,
    /// A new view is installed: payload [`GroupView`](crate::view::GroupView).
    pub view_change: EventType,
    /// Join/leave request: payload `(ViewOp, SiteId)` (external).
    pub join_leave: EventType,
    /// Failure-detector timer tick (external).
    pub fd_tick: EventType,
    /// A heartbeat arrived: payload `SiteId` (external).
    pub fd_beat: EventType,
    /// Retransmission timer tick (external).
    pub retransmit_tick: EventType,
    /// The failure detector suspects a site: payload `SiteId`.
    pub suspect: EventType,
    /// Ask consensus to propose: payload `(u64 instance, Batch)`, the
    /// [`Batch`](crate::msgs::Batch) atomic broadcast collected from what
    /// it has pending.
    pub cons_propose: EventType,
    /// Consensus decided an instance here: payload `(u64 instance, Batch)`,
    /// the decided [`Batch`](crate::msgs::Batch), for atomic broadcast to
    /// deliver in instance order.
    pub cons_decide: EventType,
    /// This site has delivered every instance below the payload `u64`;
    /// consensus reports it in its next `Ack` and collects what every
    /// member has delivered.
    pub cons_gc: EventType,
    /// Join-time state transfer carried a view: payload
    /// [`SyncMsg`](crate::msgs::SyncMsg); membership installs it directly.
    pub view_sync: EventType,
}

impl Events {
    /// Declare every event type on the builder, and which of them enter
    /// from outside ([`Events::entries`]).
    pub fn declare(b: &mut StackBuilder) -> Events {
        let ev = Events {
            rc_data: b.event("RcData"),
            rc_data_user: b.event("RcDataUser"),
            rc_ack: b.event("RcAck"),
            send_out: b.event("SendOut"),
            from_rcomm_user: b.event("FromRCommUser"),
            from_rcomm_request: b.event("FromRCommRequest"),
            from_rcomm_propose: b.event("FromRCommPropose"),
            from_rcomm_cons: b.event("FromRCommCons"),
            from_rcomm_sync: b.event("FromRCommSync"),
            bcast_user: b.event("BcastUser"),
            deliver_user: b.event("DeliverUser"),
            abcast: b.event("ABcast"),
            adeliver: b.event("ADeliver"),
            adeliver_view: b.event("ADeliverView"),
            view_change: b.event("ViewChange"),
            join_leave: b.event("JoinLeave"),
            fd_tick: b.event("FdTick"),
            fd_beat: b.event("FdBeat"),
            retransmit_tick: b.event("RetransmitTick"),
            suspect: b.event("Suspect"),
            cons_propose: b.event("ConsPropose"),
            cons_decide: b.event("ConsDecide"),
            cons_gc: b.event("ConsGc"),
            view_sync: b.event("ViewSync"),
        };
        b.entry_events(&ev.entries());
        ev
    }

    /// The external events: one per kind of arrival a node tells apart — a
    /// datagram by its first frame, a client request by its API call, a
    /// tick by its timer. Each is the root of its own derived declaration
    /// ([`External::new`]).
    pub fn entries(&self) -> [EventType; 9] {
        [
            self.rc_data,
            self.rc_data_user,
            self.rc_ack,
            self.fd_beat,
            self.bcast_user,
            self.abcast,
            self.join_leave,
            self.retransmit_tick,
            self.fd_tick,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_registers_distinct_events() {
        let mut b = StackBuilder::new();
        let ev = Events::declare(&mut b);
        let s = b.build();
        assert_eq!(s.event_count(), 24);
        assert_eq!(s.event_name(ev.send_out), "SendOut");
        assert_eq!(s.event_name(ev.view_change), "ViewChange");
        assert_ne!(ev.rc_data, ev.rc_ack);
    }
}
