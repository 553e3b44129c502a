//! Observability smoke: a 3-site replicated-KV cluster with both a trace
//! sink and a metrics registry installed, driven through a handful of
//! client operations, then exported as
//!
//! * a Chrome/Perfetto trace (`chrome://tracing`, ui.perfetto.dev) whose
//!   `cat: "causal"` flow events stitch every operation's client submit,
//!   wire hops, abcast deliveries, and KV applies into one cross-site
//!   arrow chain, and
//! * a cluster health JSON (registry snapshot + canonical per-site
//!   transport counters).
//!
//! The example **self-validates** before exiting: both documents must
//! parse as JSON, and the trace must contain at least one cross-site
//! parented span (a causal flow id that appears on two different site
//! tracks). CI's `observe-smoke` job runs this binary and archives the two
//! files on failure.
//!
//! ```text
//! cargo run --example observe_cluster [trace.json [metrics.json]]
//! ```

use std::sync::Arc;
use std::time::Duration;

use samoa_check::ChromeTrace;
use samoa_core::{Registry, TraceBuffer};
use samoa_net::{NetConfig, SimNet};
use samoa_proto::{Cluster, NodeConfig, Observe, StackPolicy};

fn main() {
    let mut args = std::env::args().skip(1);
    let trace_path = args.next().unwrap_or_else(|| "observe_trace.json".into());
    let metrics_path = args.next().unwrap_or_else(|| "observe_metrics.json".into());

    // One sink, one registry, one epoch — shared across all three sites so
    // the spans land on a single comparable timeline.
    let sink = TraceBuffer::new();
    let registry = Arc::new(Registry::new());
    let cluster = Cluster::new_observed_on(
        SimNet::new(3, NetConfig::fast(7)),
        NodeConfig::with_policy(StackPolicy::Basic),
        None,
        Observe {
            sink: Some(sink.clone()),
            registry: Some(Arc::clone(&registry)),
            epoch: None,
        },
    );

    // A few client operations, each homed on a different site.
    for (i, (k, v)) in [
        ("alpha", "1"),
        ("beta", "2"),
        ("alpha", "3"),
        ("gamma", "4"),
    ]
    .iter()
    .enumerate()
    {
        let site = i % 3;
        cluster
            .node(site)
            .kv_put(k.to_string(), v.to_string())
            .wait(Duration::from_secs(10))
            .unwrap_or_else(|| panic!("put {i} from site {site} never committed"));
    }
    cluster.settle();

    // Export both documents.
    let events = sink.drain();
    let mut chrome = ChromeTrace::new();
    chrome.add_process(
        0,
        "samoa cluster (3 sites)",
        &events,
        cluster.node(0).runtime().stack(),
    );
    let trace_json = chrome.render();
    let health = cluster.metrics().expect("registry was installed");
    let metrics_json = health.to_json();
    std::fs::write(&trace_path, &trace_json).unwrap_or_else(|e| panic!("write {trace_path}: {e}"));
    std::fs::write(&metrics_path, &metrics_json)
        .unwrap_or_else(|e| panic!("write {metrics_path}: {e}"));

    // -- Self-validation ---------------------------------------------------

    // 1. The trace parses and holds a causal flow chain that crosses sites:
    //    one flow id seen on at least two distinct site tracks, with the
    //    originating "s" phase present.
    let doc = serde_json::from_str(&trace_json).expect("trace JSON must parse");
    let trace_events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    let mut cross_site = 0usize;
    let mut flow_ids: Vec<u64> = trace_events
        .iter()
        .filter(|e| e.get("cat").and_then(|c| c.as_str()) == Some("causal"))
        .filter_map(|e| e.get("id").and_then(|v| v.as_u64()))
        .collect();
    flow_ids.sort_unstable();
    flow_ids.dedup();
    for id in &flow_ids {
        let mut tids: Vec<u64> = trace_events
            .iter()
            .filter(|e| {
                e.get("cat").and_then(|c| c.as_str()) == Some("causal")
                    && e.get("id").and_then(|v| v.as_u64()) == Some(*id)
            })
            .filter_map(|e| e.get("tid").and_then(|v| v.as_u64()))
            .collect();
        tids.sort_unstable();
        tids.dedup();
        let has_origin = trace_events.iter().any(|e| {
            e.get("cat").and_then(|c| c.as_str()) == Some("causal")
                && e.get("id").and_then(|v| v.as_u64()) == Some(*id)
                && e.get("ph").and_then(|p| p.as_str()) == Some("s")
        });
        if tids.len() >= 2 && has_origin {
            cross_site += 1;
        }
    }
    assert!(
        cross_site >= 1,
        "no causal flow crossed sites ({} flow ids total)",
        flow_ids.len()
    );

    // 2. The metrics snapshot parses and reports every site's KV applies
    //    (4 ops committed cluster-wide) plus live transport counters.
    let m = serde_json::from_str(&metrics_json).expect("metrics JSON must parse");
    let counters = m
        .get("metrics")
        .and_then(|v| v.get("counters"))
        .expect("metrics.counters object");
    for site in 0..3 {
        let applies = counters
            .get(&format!("site{site}.kv.applies"))
            .and_then(|v| v.as_u64())
            .unwrap_or(0);
        assert_eq!(applies, 4, "site {site} applied {applies}/4 commands");
        let sent = m
            .get("transport")
            .and_then(|t| t.get(&format!("site{site}")))
            .and_then(|s| s.get("sent"))
            .and_then(|v| v.as_u64())
            .unwrap_or(0);
        assert!(sent > 0, "site {site} reports no transport traffic");
    }

    println!("wrote {trace_path} ({} trace events)", trace_events.len());
    println!("wrote {metrics_path}");
    println!(
        "validated: {} causal flows, {} cross-site",
        flow_ids.len(),
        cross_site
    );
    println!("\ncluster health:\n{}", health.render());
}
