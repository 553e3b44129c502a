//! Acceptance guard for `Observe`'s cost model, causal-tracing leg: "a
//! default `Observe` adds nothing to any hot path" includes the wire. With no
//! trace sink installed RelComm attaches no causal context to any frame — 11
//! bytes on every cast and consensus frame otherwise, and a hop-table insert
//! at every receiver — so every data frame an unobserved cluster sends is
//! context-free. (That its hop tables stay empty, and that a traced cluster
//! does send and learn contexts, is pinned next to the state they live in:
//! `node.rs` and `relcomm.rs` unit tests; what the contexts of a traced
//! cluster say is `crates/check/tests/causal_trace.rs`.)

mod common;

use common::Rig;
use samoa_net::SiteId;

#[test]
fn an_unobserved_cluster_puts_no_causal_context_on_the_wire() {
    // Commits from every site, a plain user broadcast, a join with its state
    // transfer, and retransmissions of all of it: every kind of data frame.
    let rig = Rig::with_members(4, 11, Some(vec![SiteId(0), SiteId(1), SiteId(2)]));
    let cast = |from: std::ops::Range<usize>| {
        for i in from {
            rig.nodes[i % 3].abcast(format!("m{i}"));
        }
    };
    cast(0..9);
    rig.nodes[1].rbcast("plain");
    rig.settle();
    rig.nodes[0].request_join(SiteId(3));
    rig.settle();
    cast(9..13);
    rig.clock.advance(samoa_proto::RTO * 2);
    rig.tick_all();
    rig.settle();

    let log = rig.rec.log();
    let data_frames = log.iter().filter(|sent| sent.data.is_some()).count();
    assert!(data_frames > 50, "only {data_frames} data frames recorded");
    assert!(rig.retransmissions() > 0, "no frame was ever resent");
    assert_eq!(rig.rec.contexts(), [], "of {data_frames} data frames");
    for (node, delivered) in rig.nodes.iter().zip([13, 13, 13, 4]) {
        assert_eq!(node.ab_delivered().len(), delivered, "{:?}", node.site);
        assert_eq!(node.external_errors(), 0, "{:?}", node.site);
    }
}
