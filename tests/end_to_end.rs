//! Cross-crate integration tests through the `samoa` meta-crate's public
//! API: the framework, the simulated network, and the group-communication
//! stack working together.

use samoa::prelude::*;

#[test]
fn prelude_exposes_the_whole_surface() {
    // Core
    let mut b = StackBuilder::new();
    let p = b.protocol("P");
    let e = b.event("E");
    let state = ProtocolState::new(p, 0u64);
    {
        let state = state.clone();
        b.bind(e, p, "h", move |ctx, _| {
            state.with(ctx, |v| *v += 1);
            Ok(())
        });
    }
    let rt = Runtime::new(b.build());
    rt.run(Decl::Basic(&[p]), |ctx| ctx.trigger(e, EventData::empty()))
        .unwrap();
    assert_eq!(state.snapshot(), 1);

    // Net
    let net = SimNet::new(2, NetConfig::fast(0));
    assert_eq!(net.sites(), vec![SiteId(0), SiteId(1)]);

    // Proto types
    let v = GroupView::of_first(3).apply(ViewOp::Leave, SiteId(2));
    assert_eq!(v.len(), 2);
}

#[test]
fn paper_walkthrough_fig1_to_stack() {
    // Fig. 1 semantics through the meta-crate...
    let mut b = StackBuilder::new();
    let p = b.protocol("P");
    let r = b.protocol("R");
    let a0 = b.event("a0");
    let a1 = b.event("a1");
    b.bind(a0, p, "P", move |ctx, ev| ctx.trigger(a1, ev.clone()));
    let hits = ProtocolState::new(r, 0u32);
    {
        let hits = hits.clone();
        b.bind(a1, r, "R", move |ctx, _| {
            hits.with(ctx, |h| *h += 1);
            Ok(())
        });
    }
    let rt = Runtime::with_config(b.build(), RuntimeConfig::recording());
    rt.run(Decl::Basic(&[p, r]), |ctx| {
        ctx.trigger(a0, EventData::empty())
    })
    .unwrap();
    assert_eq!(hits.snapshot(), 1);
    rt.check_isolation().unwrap();

    // ...and the §3 stack end to end.
    let cluster = Cluster::new(3, NetConfig::fast(1), NodeConfig::default());
    cluster.node(0).abcast("a");
    cluster.node(1).abcast("b");
    cluster.settle();
    let order = cluster.node(0).ab_delivered();
    assert_eq!(order.len(), 2);
    assert_eq!(cluster.node(2).ab_delivered(), order);
}

#[test]
fn all_policies_run_the_stack() {
    // `StackPolicy` *is* the core's `Policy`: the core's list feeds the
    // proto config, and either name spells the same value.
    assert_eq!(StackPolicy::Basic, Policy::Basic);
    for policy in Policy::ALL {
        let cluster = Cluster::new(3, NetConfig::fast(2), NodeConfig::with_policy(policy));
        cluster.node(0).rbcast("ping");
        cluster.settle();
        for i in 0..3 {
            assert_eq!(
                cluster.node(i).rb_delivered().len(),
                1,
                "{policy:?}: site {i} missed the broadcast"
            );
            assert_eq!(
                cluster.node(i).external_errors(),
                0,
                "{policy:?}: an external computation at site {i} failed"
            );
        }
    }
}
