//! RelComm's deferred acks, deterministically: acks ride the data going the
//! other way, the tick flushes what is left in one datagram per link, a lost
//! datagram costs exactly the resends it should, a one-way burst cannot grow
//! the owed list without bound, and a departed peer leaves nothing queued.
//!
//! On the virtual-time rig and recording [`Transport`] of `common`: nothing
//! sleeps or reads the wall clock, and the tests assert on what crossed the
//! wire rather than on RelComm's internals.

mod common;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use bytes::Bytes;
use samoa_core::prelude::*;
use samoa_net::{NetConfig, SimNet, SiteId};
use samoa_proto::relcomm::{self, RcDataIn, RelCommState};
use samoa_proto::{CastData, CastMsg, Events, GroupView, MsgUid, Payload, ProtoClock, RTO};

use common::{Recorder, Rig, Sent};

/// `(ower, peer) -> seqs`: the acks `ower` still owes `peer` according to
/// `log`, given that every datagram in it was delivered.
fn owed(log: &[Sent]) -> BTreeMap<(SiteId, SiteId), BTreeSet<u64>> {
    let mut owed: BTreeMap<(SiteId, SiteId), BTreeSet<u64>> = BTreeMap::new();
    for s in log {
        if let Some(seq) = s.data {
            owed.entry((s.to, s.from)).or_default().insert(seq);
        }
    }
    for s in log {
        for seq in &s.acks {
            if let Some(link) = owed.get_mut(&(s.from, s.to)) {
                link.remove(seq);
            }
        }
    }
    owed.retain(|_, seqs| !seqs.is_empty());
    owed
}

const ABCASTS: usize = 6;

#[test]
fn acks_ride_the_reverse_data() {
    let rig = Rig::new(3, 31);
    rig.abcasts(ABCASTS);
    rig.settle();
    rig.assert_total_order(ABCASTS);

    let log = rig.rec.log();
    let data = log.iter().filter(|s| s.data.is_some()).count();
    let sent = rig.net.handle().total_stats().sent as usize;
    assert_eq!(sent, log.len());
    // Without a tick no ack travels alone: what was sent is the data.
    assert_eq!(sent, data, "an ack cost a datagram of its own");
    let carried: usize = log.iter().map(|s| s.acks.len()).sum();
    assert!(
        carried * 2 > data,
        "only {carried} of {data} frames were acked in passing — test vacuous"
    );
    assert_eq!(rig.retransmissions(), 0);
}

#[test]
fn one_tick_flushes_one_datagram_per_owing_link() {
    let rig = Rig::new(3, 32);
    rig.abcasts(ABCASTS);
    rig.settle();
    let before = rig.rec.log();
    let owed = owed(&before);
    assert!(!owed.is_empty(), "nothing left owed — test vacuous");
    let unacked: usize = owed.values().map(BTreeSet::len).sum();
    assert_eq!(rig.pending().iter().sum::<usize>(), unacked);

    // One tick per site, no time passing: nothing is due, so all a tick can
    // send is the owed acks — one datagram per link that owed any.
    rig.tick_all();
    let flushed: BTreeMap<(SiteId, SiteId), BTreeSet<u64>> = rig.rec.log()[before.len()..]
        .iter()
        .map(|s| {
            assert_eq!(s.data, None, "tick resent data although no time passed");
            ((s.from, s.to), s.acks.iter().copied().collect())
        })
        .collect();
    assert_eq!(
        rig.rec.log().len() - before.len(),
        flushed.len(),
        "two ack-only datagrams on one link"
    );
    assert_eq!(flushed, owed);

    rig.settle();
    assert_eq!(rig.pending(), vec![0, 0, 0]);
    assert_eq!(rig.retransmissions(), 0);
    rig.assert_total_order(ABCASTS);
}

#[test]
fn a_lost_datagram_costs_exactly_its_frame_and_its_acks() {
    let rig = Rig::new(3, 33);
    let h = rig.net.handle();
    rig.abcasts(ABCASTS);
    // Settle, but lose the first datagram that carries acks behind its data.
    let mut lost: Option<Sent> = None;
    loop {
        rig.quiesce();
        if lost.is_none() {
            let log = rig.rec.log();
            let victim = h.pending_datagrams().into_iter().find(|dg| {
                let s = &log[dg.seq as usize - 1];
                s.data.is_some() && !s.acks.is_empty()
            });
            if let Some(dg) = victim {
                assert!(h.drop_seq(dg.seq));
                lost = Some(log[dg.seq as usize - 1].clone());
                continue;
            }
        }
        if !h.pump_one() {
            break;
        }
    }
    let lost = lost.expect("no datagram carried acks — test vacuous");
    let lost_seq = lost.data.expect("victim has a data frame");

    // The tick, before any RTO: every ack that is merely deferred lands.
    // What stays pending is what the lost datagram was carrying.
    rig.tick_all();
    rig.settle();
    let mut expect_pending = vec![0; 3];
    expect_pending[lost.from.index()] += 1;
    expect_pending[lost.to.index()] += lost.acks.len();
    assert_eq!(rig.pending(), expect_pending);
    assert_eq!(rig.retransmissions(), 0);

    // Past the RTO the senders resend exactly those frames: the data frame
    // that never arrived, and the frames whose acks never arrived.
    rig.clock.advance(RTO * 2);
    let mark = rig.rec.log().len();
    rig.tick_all();
    let resent: BTreeSet<(SiteId, SiteId, u64)> = rig.rec.log()[mark..]
        .iter()
        .filter_map(|s| s.data.map(|seq| (s.from, s.to, seq)))
        .collect();
    let mut expected: BTreeSet<(SiteId, SiteId, u64)> = lost
        .acks
        .iter()
        .map(|&seq| (lost.to, lost.from, seq))
        .collect();
    expected.insert((lost.from, lost.to, lost_seq));
    assert_eq!(resent, expected);
    assert_eq!(rig.retransmissions() as usize, expected.len());

    // The duplicates are suppressed, the late frame is delivered, and one
    // more tick's worth of acks drains every channel.
    rig.settle();
    rig.tick_all();
    rig.settle();
    assert_eq!(rig.pending(), vec![0, 0, 0]);
    assert_eq!(rig.retransmissions() as usize, expected.len());
    rig.assert_total_order(ABCASTS);
}

/// RelComm alone on site 0 of a manual network, its events fired by hand:
/// the peers are played by the test, so traffic can be as one-sided as a
/// test needs.
struct Lone {
    rt: Runtime,
    pid: ProtocolId,
    ev: Events,
    rec: Arc<Recorder>,
    _net: SimNet,
}

impl Lone {
    fn new(sites: usize) -> Lone {
        let net = SimNet::new_manual(sites, NetConfig::fast(1));
        let rec = Recorder::over(&net);
        let mut b = StackBuilder::new();
        let pid = b.protocol("RelComm");
        let ev = Events::declare(&mut b);
        let state = ProtocolState::new(
            pid,
            RelCommState::with_clock(SiteId(0), GroupView::of_first(sites), ProtoClock::manual()),
        );
        relcomm::register(&mut b, pid, &ev, state, rec.clone());
        Lone {
            rt: Runtime::new(b.build()),
            pid,
            ev,
            rec,
            _net: net,
        }
    }

    fn fire(&self, event: EventType, data: EventData) {
        self.rt
            .run(Decl::Basic(&[self.pid]), |ctx| ctx.trigger(event, data))
            .expect("RelComm handler failed");
    }

    /// A data frame from `sender` arrives, carrying no acks.
    fn data_from(&self, sender: u16, seq: u64) {
        let m = RcDataIn {
            sender: SiteId(sender),
            view: 0,
            seq,
            ctx: None,
            payload: Payload::Cast(CastMsg {
                uid: MsgUid {
                    origin: SiteId(sender),
                    seq,
                },
                data: CastData::User(Bytes::new()),
            }),
            acks: Vec::new(),
        };
        self.fire(self.ev.rc_data_user, EventData::new(m));
    }

    fn tick(&self) {
        self.fire(self.ev.retransmit_tick, EventData::empty());
    }
}

#[test]
fn a_one_way_burst_overflows_into_a_standalone_ack() {
    let lone = Lone::new(2);
    // Site 1 talks, site 0 has nothing to say back, and no tick fires.
    for seq in 1..=150 {
        lone.data_from(1, seq);
    }
    let log = lone.rec.log();
    assert_eq!(log.len(), 2, "{log:?}");
    let cap = log[0].acks.len();
    assert!((2..150).contains(&cap), "cap {cap}");
    for (i, s) in log.iter().enumerate() {
        assert_eq!((s.from, s.to, s.data), (SiteId(0), SiteId(1), None));
        // Arrival order, nothing skipped, nothing acked twice.
        let first = (i * cap) as u64 + 1;
        assert_eq!(s.acks, (first..first + cap as u64).collect::<Vec<_>>());
    }
    // The remainder waits for the tick.
    lone.tick();
    let log = lone.rec.log();
    assert_eq!(log.len(), 3);
    assert_eq!(log[2].acks, (2 * cap as u64 + 1..=150).collect::<Vec<_>>());
}

#[test]
fn a_departed_peer_leaves_no_owed_acks_behind() {
    let lone = Lone::new(3);
    lone.data_from(1, 1);
    lone.data_from(2, 1);
    lone.data_from(2, 2);
    // Site 2 leaves the view before any tick.
    let without_2 = GroupView::of_first(3).apply(samoa_proto::ViewOp::Leave, SiteId(2));
    lone.fire(lone.ev.view_change, EventData::new(without_2));
    lone.tick();
    let to_1 = Sent {
        from: SiteId(0),
        to: SiteId(1),
        data: None,
        payload: None,
        acks: vec![1],
    };
    assert_eq!(lone.rec.log(), vec![to_1.clone()], "site 2 was still owed");

    // "Always ack" is unchanged for what a departed site sends afterwards:
    // it is not delivered, but it is acknowledged, so the sender can stop.
    lone.data_from(2, 3);
    lone.tick();
    let to_2 = Sent {
        from: SiteId(0),
        to: SiteId(2),
        data: None,
        payload: None,
        acks: vec![3],
    };
    assert_eq!(lone.rec.log(), vec![to_1, to_2]);
}
