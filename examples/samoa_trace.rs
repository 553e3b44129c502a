//! Comparative tracing of the same workloads under each isolation
//! algorithm, exported as Chrome `trace_event` JSON — load the output in
//! `chrome://tracing` or <https://ui.perfetto.dev> and the §5.2/§5.3 story
//! is visible directly: under `VCAbasic` every computation's track shows an
//! admission-wait span at stage 0 while the previous computation finishes;
//! under `VCAbound`/`VCAroute` the waits vanish because Rule 4 released the
//! stage long before the next spawn arrived.
//!
//! ```text
//! cargo run --release --example samoa_trace [out.json]
//! ```
//!
//! Two workloads are traced:
//!
//! 1. A staggered 4-stage pipeline (the cleanest side-by-side of the three
//!    versioning algorithms) — one trace process per algorithm.
//! 2. The paper's §3 group-communication stack: a 3-site cluster runs an
//!    atomic-broadcast burst under each policy with a [`TraceBuffer`] per
//!    site — one trace process per (policy, site).
//!
//! Per-microprotocol contention profiles and runtime stats print to stdout.

use std::sync::Arc;
use std::time::Duration;

#[path = "../tests/common/mod.rs"]
mod common; // the staggered-pipeline fixture `tests/trace.rs` asserts on

use common::{pipeline_stack, run_pipeline};
use samoa::prelude::*;
use samoa_core::ChromeTrace;
use samoa_proto::Observe;

const STAGES: usize = 4;
const COMPS: usize = 6;
const STAGE_WORK: Duration = Duration::from_millis(3);
const STAGGER: Duration = Duration::from_millis(6);

const SITES: usize = 3;
const MSGS: usize = 6;

fn trace_pipeline(policy: Policy, pid: u32, chrome: &mut ChromeTrace) {
    let sink = TraceBuffer::new();
    let stack = pipeline_stack(STAGES, STAGE_WORK, Some(sink.clone()));
    run_pipeline(&stack, COMPS, policy, 1, STAGGER);
    let events = sink.drain();
    let profile = ContentionProfile::from_events(&events, stack.rt.stack());
    println!("--- pipeline under {policy} ---");
    print!("{}", profile.render());
    println!("stats: {}\n", stack.rt.stats());
    chrome.add_process(
        pid,
        &format!("pipeline/{policy}"),
        &events,
        stack.rt.stack(),
    );
}

fn trace_cluster(policy: StackPolicy, base_pid: u32, chrome: &mut ChromeTrace) {
    // One buffer per site: computation ids are per-runtime, so each node
    // exports as its own trace process. (`Cluster` shares one sink across
    // its sites; per-site sinks are the general `Node` constructor.)
    let net = SimNet::new(SITES, NetConfig::default());
    let sites: Vec<(Arc<Node>, Arc<TraceBuffer>)> = net
        .sites()
        .into_iter()
        .map(|site| {
            let buf = TraceBuffer::new();
            let node = Node::new_observed_on(
                Arc::new(net.handle()),
                site,
                NodeConfig::with_policy(policy),
                None,
                Observe::traced(buf.clone()),
            );
            (node, buf)
        })
        .collect();
    for i in 0..MSGS {
        sites[i % SITES].0.abcast(format!("m{i}"));
    }
    net.settle(|| sites.iter().for_each(|(node, _)| node.runtime().quiesce()));

    println!("--- group-communication stack under {policy} ---");
    let stack = sites[0].0.runtime().stack().clone();
    let mut merged = Vec::new();
    for (site, (node, buf)) in sites.iter().enumerate() {
        let events = buf.drain();
        println!("site {site}: {}", node.runtime().stats());
        chrome.add_process(
            base_pid + site as u32,
            &format!("abcast/{policy}/site{site}"),
            &events,
            &stack,
        );
        merged.extend(events);
    }
    // The merged profile is per-microprotocol, so cross-site computation-id
    // collisions don't matter here.
    merged.sort_by_key(|e| e.t_ns);
    print!(
        "{}",
        ContentionProfile::from_events(&merged, &stack).render()
    );
    println!();
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "samoa_trace.json".to_string());
    let mut chrome = ChromeTrace::new();

    println!(
        "{COMPS} computations through a {STAGES}-stage pipeline ({STAGE_WORK:?} per stage, \
         spawned every {STAGGER:?}), traced under each versioning algorithm\n"
    );
    trace_pipeline(Policy::Basic, 1, &mut chrome);
    trace_pipeline(Policy::Bound, 2, &mut chrome);
    trace_pipeline(Policy::Route, 3, &mut chrome);

    println!("{SITES}-site atomic broadcast, {MSGS} messages, traced per site under each policy\n");
    trace_cluster(StackPolicy::Basic, 10, &mut chrome);
    trace_cluster(StackPolicy::Bound, 20, &mut chrome);
    trace_cluster(StackPolicy::Route, 30, &mut chrome);

    std::fs::write(&out, chrome.render()).expect("write trace file");
    println!("wrote {out} — load it in chrome://tracing or https://ui.perfetto.dev");
}
