//! The §3 "Problem" made visible: a view change races a broadcast burst.
//!
//! Under the Cactus-style unsynchronised policy, a computation can observe
//! RelCast's *new* view while RelComm still holds the *old* one — RelComm
//! then silently discards the send to the joining site, breaking the
//! reliable-broadcast algorithm. Under any isolating policy the whole
//! view-installation computation appears atomic to other computations, so
//! the inconsistency cannot be observed.
//!
//! ```text
//! cargo run --example view_change_race
//! ```

use std::sync::Arc;
use std::time::Duration;

#[path = "../tests/common/mod.rs"]
mod common; // `SlowViewChange`, the race-window widener `tests/` pins E5 with

use common::SlowViewChange;
use samoa::prelude::*;
use samoa::proto::Observe;

fn run_once(policy: StackPolicy, seed: u64) -> (u64, usize) {
    let mut cfg = NodeConfig::with_policy(policy);
    cfg.initial_members = Some(vec![SiteId(0), SiteId(1), SiteId(2)]);
    let slow = Arc::new(SlowViewChange::default());
    let observe = Observe::traced(Arc::clone(&slow) as Arc<dyn TraceSink>);
    let net = SimNet::new(4, NetConfig::fast(seed));
    let cluster = Cluster::new_observed_on(net, cfg, None, observe);
    slow.watch(&cluster);

    cluster.node(0).request_join(SiteId(3));
    for round in 0..6 {
        for i in 0..3 {
            cluster.node(i).rbcast(format!("r{round}-s{i}"));
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    cluster.settle();

    let discards: u64 = (0..4).map(|i| cluster.node(i).relcomm_discards()).sum();
    let joiner: std::collections::BTreeSet<_> = cluster
        .node(3)
        .rb_delivered()
        .into_iter()
        .map(|(_, b)| b)
        .collect();
    let reference: std::collections::BTreeSet<_> = cluster
        .node(0)
        .rb_delivered()
        .into_iter()
        .map(|(_, b)| b)
        .collect();
    (discards, reference.difference(&joiner).count())
}

fn main() {
    println!("view change racing 18 broadcasts, 5 trials per policy\n");
    println!(
        "{:<16} {:>16} {:>18}",
        "policy", "stale discards", "missed at joiner"
    );
    for (policy, label) in [
        (StackPolicy::Unsync, "unsync (cactus)"),
        (StackPolicy::Serial, "serial (appia)"),
        (StackPolicy::Basic, "vca-basic"),
        (StackPolicy::Route, "vca-route"),
    ] {
        let mut discards = 0;
        let mut missed = 0;
        for seed in 0..5 {
            let (d, m) = run_once(policy, seed);
            discards += d;
            missed += m;
        }
        println!("{label:<16} {discards:>16} {missed:>18}");
    }
    println!(
        "\nstale discards = sends RelCast fanned out using a view RelComm \
         had not installed yet;\nnonzero only without isolation — the exact \
         failure §3 of the paper describes."
    );
}
