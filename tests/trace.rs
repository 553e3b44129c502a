//! Acceptance tests for the tracing layer (the `samoa_trace` example's
//! workload, asserted): on a staggered pipeline `VCAbasic` must show
//! admission-wait spans while `VCAroute` shows fewer and shorter ones, and
//! the exported Chrome `trace_event` JSON must round-trip through
//! `serde_json`.

mod common;

use std::time::Duration;

use common::{pipeline_stack, run_pipeline};
use samoa::prelude::*;
use samoa_check::{ChromeTrace, ContentionProfile};

const STAGES: usize = 4;
const COMPS: usize = 6;
const STAGE_WORK: Duration = Duration::from_millis(3);
const STAGGER: Duration = Duration::from_millis(6);

/// Run the example's staggered pipeline workload under `policy` and drain
/// the trace. One computation spawns every `STAGGER`; a whole chain takes
/// `STAGES × STAGE_WORK`, so the basic construct (which holds stage 0 until
/// Rule 3) blocks every later spawn, while route (which releases stage 0
/// after one visit, well inside the stagger window) admits them instantly.
fn traced_run(policy: Policy) -> (Vec<TraceEvent>, Stack) {
    let sink = TraceBuffer::new();
    let stack = pipeline_stack(STAGES, STAGE_WORK, Some(sink.clone()));
    run_pipeline(&stack, COMPS, policy, 1, STAGGER);
    (sink.drain(), stack.rt.stack().clone())
}

#[test]
fn basic_blocks_where_route_releases_and_chrome_json_round_trips() {
    let (basic_events, stack) = traced_run(Policy::Basic);
    let (route_events, _) = traced_run(Policy::Route);

    let basic = ContentionProfile::from_events(&basic_events, &stack);
    let route = ContentionProfile::from_events(&route_events, &stack);

    // VCAbasic serialises the staggered spawns at stage 0.
    let basic_waits: u64 = basic.protocols.iter().map(|p| p.waits).sum();
    let route_waits: u64 = route.protocols.iter().map(|p| p.waits).sum();
    assert!(
        basic_waits > 0,
        "staggered pipeline under vca-basic must produce admission waits"
    );
    assert!(
        route_waits < basic_waits,
        "vca-route must wait fewer times than vca-basic \
         (route {route_waits} vs basic {basic_waits})"
    );
    let basic_blocked: Duration = basic.protocols.iter().map(|p| p.wait_total).sum();
    let route_blocked: Duration = route.protocols.iter().map(|p| p.wait_total).sum();
    assert!(
        route_blocked < basic_blocked,
        "vca-route must block for less total time than vca-basic \
         ({route_blocked:?} vs {basic_blocked:?})"
    );
    // Route's Rule 4 actually fired; basic has no early-release mechanism.
    assert!(route.protocols.iter().any(|p| p.route_releases > 0));
    assert!(basic.protocols.iter().all(|p| p.route_releases == 0));

    // Export both runs into one comparative Chrome trace document.
    let mut chrome = ChromeTrace::new();
    chrome.add_process(1, "vca-basic", &basic_events, &stack);
    chrome.add_process(2, "vca-route", &route_events, &stack);
    let text = chrome.render();

    // The document parses, and the admission-wait spans of the profile are
    // visible per process.
    let doc = serde_json::from_str(&text).expect("chrome trace must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let wait_spans = |pid: u64| {
        events
            .iter()
            .filter(|e| {
                e.get("cat").and_then(|c| c.as_str()) == Some("admission-wait")
                    && e.get("pid").and_then(|p| p.as_u64()) == Some(pid)
            })
            .count() as u64
    };
    assert_eq!(wait_spans(1), basic_waits, "one span per recorded wait");
    assert_eq!(wait_spans(2), route_waits);
    // Wait spans name the computation that held the microprotocol. (A span
    // may rarely lack a blocker if the holder completed in the instant
    // between the failed admission check and the registry lookup, so this
    // asserts existence, not universality.)
    assert!(events
        .iter()
        .filter(|e| e.get("cat").and_then(|c| c.as_str()) == Some("admission-wait"))
        .any(|e| e.get("args").and_then(|a| a.get("blocked_by")).is_some()));

    // Round trip: serialize the parsed document and parse it again — the
    // values must be identical.
    let doc2 = serde_json::from_str(&serde_json::to_string(&doc)).expect("re-parse");
    assert_eq!(doc, doc2, "chrome trace must round-trip through serde_json");
}

#[test]
fn waiters_snapshot_is_empty_after_quiescence() {
    let sink = TraceBuffer::new();
    let stack = pipeline_stack(STAGES, Duration::ZERO, Some(sink));
    run_pipeline(&stack, 4, Policy::Basic, 1, Duration::ZERO);
    let g = stack.rt.waiters();
    assert!(g.is_empty());
    assert!(!g.has_cycle());
}
