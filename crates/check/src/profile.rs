//! Readers of a drained trace stream: where concurrency was won or lost
//! ([`ContentionProfile`], per microprotocol and per algorithm), and a
//! timeline for `chrome://tracing` or <https://ui.perfetto.dev>
//! ([`ChromeTrace`], [`chrome_trace`]).
//!
//! The runtime only writes the stream ([`samoa_core::trace`]); nothing here
//! runs inside it. A drained `Vec<TraceEvent>` and the [`Stack`] it was
//! recorded on are all a reader needs.

use std::collections::HashMap;
use std::time::Duration;

use samoa_core::trace::{percentile_us, TraceEvent, TraceKind};
use samoa_core::{json_string, CompId, Policy, ProtocolId, ReleaseReason, Stack};

/// Per-microprotocol contention statistics aggregated from a trace stream.
#[derive(Debug, Clone)]
pub struct ProtocolProfile {
    /// The microprotocol.
    pub protocol: ProtocolId,
    /// Its name in the stack.
    pub name: String,
    /// Admission waits that actually blocked.
    pub waits: u64,
    /// Summed blocked time (across threads; can exceed wall clock).
    pub wait_total: Duration,
    /// Admission-wait latency percentiles, in microseconds.
    pub wait_p50_us: f64,
    /// 95th percentile admission wait (µs).
    pub wait_p95_us: f64,
    /// 99th percentile admission wait (µs).
    pub wait_p99_us: f64,
    /// Worst observed admission wait (µs).
    pub wait_max_us: f64,
    /// Handler calls executed on this microprotocol.
    pub handler_calls: u64,
    /// Handler service-time percentiles, in microseconds.
    pub service_p50_us: f64,
    /// 95th percentile handler service time (µs).
    pub service_p95_us: f64,
    /// 99th percentile handler service time (µs).
    pub service_p99_us: f64,
    /// Rule 4 bound-visit releases observed on this microprotocol.
    pub bound_releases: u64,
    /// Rule 4 route-unreachable releases observed on this microprotocol.
    pub route_releases: u64,
}

/// Per-algorithm rollup of the same stream: how much each declaration style
/// paid in admission waits.
#[derive(Debug, Clone)]
pub struct AlgoProfile {
    /// The algorithm.
    pub algo: Policy,
    /// Computations spawned under it.
    pub computations: u64,
    /// Admission waits its computations suffered.
    pub waits: u64,
    /// Their summed blocked time.
    pub wait_total: Duration,
    /// Median admission wait (µs).
    pub wait_p50_us: f64,
    /// 95th percentile admission wait (µs).
    pub wait_p95_us: f64,
    /// 99th percentile admission wait (µs).
    pub wait_p99_us: f64,
    /// Rule 4 early releases its computations performed.
    pub early_releases: u64,
}

/// The aggregate view over a drained trace stream: where concurrency was
/// won or lost, per microprotocol and per algorithm.
#[derive(Debug, Clone, Default)]
pub struct ContentionProfile {
    /// One entry per microprotocol of the stack, in stack order.
    pub protocols: Vec<ProtocolProfile>,
    /// One entry per algorithm that spawned at least one computation.
    pub algos: Vec<AlgoProfile>,
}

impl ContentionProfile {
    /// Aggregate a drained stream against the stack it was recorded on.
    pub fn from_events(events: &[TraceEvent], stack: &Stack) -> ContentionProfile {
        let n = stack.protocol_count();
        let mut waits: Vec<Vec<u64>> = vec![Vec::new(); n];
        let mut services: Vec<Vec<u64>> = vec![Vec::new(); n];
        let mut bound_rel = vec![0u64; n];
        let mut route_rel = vec![0u64; n];
        let mut algo_of: HashMap<CompId, Policy> = HashMap::new();
        let mut algo_waits: HashMap<Policy, Vec<u64>> = HashMap::new();
        let mut algo_comps: HashMap<Policy, u64> = HashMap::new();
        let mut algo_releases: HashMap<Policy, u64> = HashMap::new();

        for ev in events {
            match ev.kind {
                TraceKind::Spawn { comp, algo } => {
                    algo_of.insert(comp, algo);
                    *algo_comps.entry(algo).or_default() += 1;
                }
                TraceKind::WaitEnd {
                    comp,
                    protocol,
                    wait_ns,
                    ..
                } => {
                    if let Some(w) = waits.get_mut(protocol.index()) {
                        w.push(wait_ns);
                    }
                    if let Some(&a) = algo_of.get(&comp) {
                        algo_waits.entry(a).or_default().push(wait_ns);
                    }
                }
                TraceKind::HandlerExit {
                    protocol,
                    service_ns,
                    ..
                } => {
                    if let Some(s) = services.get_mut(protocol.index()) {
                        s.push(service_ns);
                    }
                }
                TraceKind::EarlyRelease {
                    comp,
                    protocol,
                    reason,
                } => {
                    match reason {
                        ReleaseReason::BoundVisit => bound_rel[protocol.index()] += 1,
                        ReleaseReason::RouteUnreachable => route_rel[protocol.index()] += 1,
                    }
                    if let Some(&a) = algo_of.get(&comp) {
                        *algo_releases.entry(a).or_default() += 1;
                    }
                }
                _ => {}
            }
        }

        let protocols = stack
            .all_protocols()
            .into_iter()
            .map(|protocol| {
                let i = protocol.index();
                waits[i].sort_unstable();
                services[i].sort_unstable();
                let w = &waits[i];
                let s = &services[i];
                ProtocolProfile {
                    protocol,
                    name: stack.protocol_name(protocol).to_string(),
                    waits: w.len() as u64,
                    wait_total: Duration::from_nanos(w.iter().sum()),
                    wait_p50_us: percentile_us(w, 0.50),
                    wait_p95_us: percentile_us(w, 0.95),
                    wait_p99_us: percentile_us(w, 0.99),
                    wait_max_us: w.last().map_or(0.0, |&v| v as f64 / 1e3),
                    handler_calls: s.len() as u64,
                    service_p50_us: percentile_us(s, 0.50),
                    service_p95_us: percentile_us(s, 0.95),
                    service_p99_us: percentile_us(s, 0.99),
                    bound_releases: bound_rel[i],
                    route_releases: route_rel[i],
                }
            })
            .collect();

        let mut algos: Vec<AlgoProfile> = algo_comps
            .iter()
            .map(|(&algo, &computations)| {
                let mut w = algo_waits.remove(&algo).unwrap_or_default();
                w.sort_unstable();
                AlgoProfile {
                    algo,
                    computations,
                    waits: w.len() as u64,
                    wait_total: Duration::from_nanos(w.iter().sum()),
                    wait_p50_us: percentile_us(&w, 0.50),
                    wait_p95_us: percentile_us(&w, 0.95),
                    wait_p99_us: percentile_us(&w, 0.99),
                    early_releases: algo_releases.get(&algo).copied().unwrap_or(0),
                }
            })
            .collect();
        algos.sort_by_key(|a| a.algo.label());

        ContentionProfile { protocols, algos }
    }

    /// The profile of the microprotocol named `name`, if present.
    pub fn protocol(&self, name: &str) -> Option<&ProtocolProfile> {
        self.protocols.iter().find(|p| p.name == name)
    }

    /// Fixed-width text rendering: one row per microprotocol, then the
    /// per-algorithm rollup.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<16} {:>6} {:>10} {:>9} {:>9} {:>9} {:>7} {:>9} {:>8}\n",
            "microprotocol",
            "waits",
            "wait_ms",
            "p50_us",
            "p95_us",
            "p99_us",
            "calls",
            "svc_p50",
            "early"
        ));
        for p in &self.protocols {
            out.push_str(&format!(
                "{:<16} {:>6} {:>10.2} {:>9.1} {:>9.1} {:>9.1} {:>7} {:>9.1} {:>8}\n",
                p.name,
                p.waits,
                p.wait_total.as_secs_f64() * 1e3,
                p.wait_p50_us,
                p.wait_p95_us,
                p.wait_p99_us,
                p.handler_calls,
                p.service_p50_us,
                p.bound_releases + p.route_releases,
            ));
        }
        if !self.algos.is_empty() {
            out.push_str(&format!(
                "\n{:<12} {:>6} {:>6} {:>10} {:>9} {:>9} {:>9} {:>8}\n",
                "algorithm", "comps", "waits", "wait_ms", "p50_us", "p95_us", "p99_us", "early"
            ));
            for a in &self.algos {
                out.push_str(&format!(
                    "{:<12} {:>6} {:>6} {:>10.2} {:>9.1} {:>9.1} {:>9.1} {:>8}\n",
                    a.algo.label(),
                    a.computations,
                    a.waits,
                    a.wait_total.as_secs_f64() * 1e3,
                    a.wait_p50_us,
                    a.wait_p95_us,
                    a.wait_p99_us,
                    a.early_releases,
                ));
            }
        }
        out
    }
}

/// Builder for Chrome `trace_event` JSON covering one or more traced runs
/// ("processes"): load the output in `chrome://tracing` or
/// <https://ui.perfetto.dev>. One track (`tid`) per computation; admission
/// waits and handler executions become duration spans, spawn/release/
/// completion become instant markers.
#[derive(Debug, Default)]
pub struct ChromeTrace {
    entries: Vec<String>,
}

impl ChromeTrace {
    /// An empty trace document.
    pub fn new() -> ChromeTrace {
        ChromeTrace::default()
    }

    /// Add a traced run as process `pid` named `name`. Events must come
    /// from a runtime over `stack` (names are resolved against it).
    pub fn add_process(&mut self, pid: u32, name: &str, events: &[TraceEvent], stack: &Stack) {
        self.entries.push(format!(
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": 0, \
             \"args\": {{\"name\": {}}}}}",
            json_string(name)
        ));
        let mut named: HashMap<CompId, ()> = HashMap::new();
        let mut site_named: HashMap<u16, ()> = HashMap::new();
        let mut name_site = |entries: &mut Vec<String>, site: u16| {
            site_named.entry(site).or_insert_with(|| {
                entries.push(format!(
                    "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {pid}, \
                     \"tid\": {}, \"args\": {{\"name\": {}}}}}",
                    site_tid(site),
                    json_string(&format!("site{site}"))
                ));
            });
        };
        for ev in events {
            let us = ev.t_ns as f64 / 1e3;
            match ev.kind {
                TraceKind::Spawn { comp, algo } => {
                    named.entry(comp).or_insert_with(|| {
                        self.entries.push(format!(
                            "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {pid}, \
                             \"tid\": {comp}, \"args\": {{\"name\": {}}}}}",
                            json_string(&format!("k{comp} ({})", algo.label()))
                        ));
                    });
                    self.entries.push(format!(
                        "{{\"name\": {}, \"cat\": \"spawn\", \"ph\": \"i\", \"s\": \"t\", \
                         \"ts\": {us:.3}, \"pid\": {pid}, \"tid\": {comp}}}",
                        json_string(&format!("spawn ({})", algo.label()))
                    ));
                }
                TraceKind::WaitEnd {
                    comp,
                    protocol,
                    wait_ns,
                    blocker,
                } => {
                    let name = match blocker {
                        Some(b) => {
                            format!("wait {} (\u{2190} k{b})", stack.protocol_name(protocol))
                        }
                        None => format!("wait {}", stack.protocol_name(protocol)),
                    };
                    let args = match blocker {
                        Some(b) => format!("{{\"blocked_by\": \"k{b}\"}}"),
                        None => "{}".to_string(),
                    };
                    self.entries.push(format!(
                        "{{\"name\": {}, \"cat\": \"admission-wait\", \"ph\": \"X\", \
                         \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": {pid}, \"tid\": {comp}, \
                         \"args\": {args}}}",
                        json_string(&name),
                        (ev.t_ns.saturating_sub(wait_ns)) as f64 / 1e3,
                        wait_ns as f64 / 1e3,
                    ));
                }
                TraceKind::HandlerExit {
                    comp,
                    handler,
                    protocol,
                    service_ns,
                } => {
                    self.entries.push(format!(
                        "{{\"name\": {}, \"cat\": \"handler\", \"ph\": \"X\", \
                         \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": {pid}, \"tid\": {comp}}}",
                        json_string(&format!(
                            "{}.{}",
                            stack.protocol_name(protocol),
                            stack.handler_name(handler)
                        )),
                        (ev.t_ns.saturating_sub(service_ns)) as f64 / 1e3,
                        service_ns as f64 / 1e3,
                    ));
                }
                TraceKind::EarlyRelease {
                    comp,
                    protocol,
                    reason,
                } => {
                    let why = match reason {
                        ReleaseReason::BoundVisit => "bound",
                        ReleaseReason::RouteUnreachable => "route",
                    };
                    self.entries.push(format!(
                        "{{\"name\": {}, \"cat\": \"early-release\", \"ph\": \"i\", \
                         \"s\": \"t\", \"ts\": {us:.3}, \"pid\": {pid}, \"tid\": {comp}}}",
                        json_string(&format!(
                            "release {} ({why})",
                            stack.protocol_name(protocol)
                        ))
                    ));
                }
                TraceKind::Complete { comp } => {
                    self.entries.push(format!(
                        "{{\"name\": \"complete\", \"cat\": \"complete\", \"ph\": \"i\", \
                         \"s\": \"t\", \"ts\": {us:.3}, \"pid\": {pid}, \"tid\": {comp}}}"
                    ));
                }
                TraceKind::ClientSubmit { site, op } => {
                    name_site(&mut self.entries, site);
                    self.cluster_instant(
                        pid,
                        site,
                        us,
                        "cluster",
                        &format!("submit op {op}@s{site}"),
                    );
                    self.flow(pid, site, us, "s", site, op);
                }
                TraceKind::CtxSend {
                    from,
                    to,
                    origin,
                    op,
                    hop,
                } => {
                    name_site(&mut self.entries, from);
                    self.cluster_instant(
                        pid,
                        from,
                        us,
                        "cluster",
                        &format!("send\u{2192}s{to} op {op}@s{origin} hop {hop}"),
                    );
                    self.flow(pid, from, us, "t", origin, op);
                }
                TraceKind::CtxRecv {
                    site,
                    origin,
                    op,
                    hop,
                } => {
                    name_site(&mut self.entries, site);
                    self.cluster_instant(
                        pid,
                        site,
                        us,
                        "cluster",
                        &format!("recv op {op}@s{origin} hop {hop}"),
                    );
                    self.flow(pid, site, us, "t", origin, op);
                }
                TraceKind::AbDeliver {
                    site,
                    origin,
                    op,
                    lag_ns,
                } => {
                    name_site(&mut self.entries, site);
                    self.cluster_instant(
                        pid,
                        site,
                        us,
                        "cluster",
                        &format!(
                            "adeliver op {op}@s{origin} ({:.0}\u{b5}s)",
                            lag_ns as f64 / 1e3
                        ),
                    );
                    self.flow(pid, site, us, "t", origin, op);
                }
                TraceKind::KvApply { site, origin, op } => {
                    name_site(&mut self.entries, site);
                    self.cluster_instant(
                        pid,
                        site,
                        us,
                        "cluster",
                        &format!("kv apply op {op}@s{origin}"),
                    );
                    self.flow(pid, site, us, "f", origin, op);
                }
                TraceKind::Retransmit { site, to, attempts } => {
                    name_site(&mut self.entries, site);
                    self.cluster_instant(
                        pid,
                        site,
                        us,
                        "retransmit",
                        &format!("retransmit\u{2192}s{to} (attempt {attempts})"),
                    );
                }
                TraceKind::ClusterViewChange {
                    site,
                    view_id,
                    members,
                } => {
                    name_site(&mut self.entries, site);
                    self.cluster_instant(
                        pid,
                        site,
                        us,
                        "view-change",
                        &format!("view {view_id} ({members} members)"),
                    );
                }
                TraceKind::WaitBegin { .. } | TraceKind::HandlerEnter { .. } => {
                    // Folded into the matching WaitEnd / HandlerExit span.
                }
            }
        }
    }

    /// An instant marker on a site track.
    fn cluster_instant(&mut self, pid: u32, site: u16, us: f64, cat: &str, name: &str) {
        self.entries.push(format!(
            "{{\"name\": {}, \"cat\": \"{cat}\", \"ph\": \"i\", \"s\": \"t\", \
             \"ts\": {us:.3}, \"pid\": {pid}, \"tid\": {}}}",
            json_string(name),
            site_tid(site)
        ));
    }

    /// A Perfetto flow event (`ph` ∈ {s, t, f}) linking every marker of one
    /// cluster operation `(origin, op)` into a single causal arrow chain.
    fn flow(&mut self, pid: u32, site: u16, us: f64, ph: &str, origin: u16, op: u64) {
        let bp = if ph == "f" { ", \"bp\": \"e\"" } else { "" };
        self.entries.push(format!(
            "{{\"name\": {}, \"cat\": \"causal\", \"ph\": \"{ph}\", \"id\": {}, \
             \"ts\": {us:.3}, \"pid\": {pid}, \"tid\": {}{bp}}}",
            json_string(&format!("op {op}@s{origin}")),
            flow_id(origin, op),
            site_tid(site)
        ));
    }

    /// Render the `{"traceEvents": [...]}` document.
    pub fn render(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        out.push_str(&self.entries.join(",\n"));
        out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
        out
    }
}

/// Cluster sites get their own track block, clear of computation ids.
fn site_tid(site: u16) -> u64 {
    500_000 + site as u64
}

/// Stable flow id for one cluster operation: origin site in the top 16 bits,
/// operation id below.
fn flow_id(origin: u16, op: u64) -> u64 {
    ((origin as u64) << 48) | (op & 0xFFFF_FFFF_FFFF)
}

/// Export one traced run as a single-process Chrome `trace_event` JSON
/// document — the one-call version of [`ChromeTrace`].
pub fn chrome_trace(events: &[TraceEvent], stack: &Stack) -> String {
    let mut b = ChromeTrace::new();
    b.add_process(1, "samoa", events, stack);
    b.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use samoa_core::prelude::*;
    use samoa_core::{handler_id_for_tests, protocol_id_for_tests};

    fn ev(t_ns: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent { t_ns, kind }
    }

    fn two_proto_stack() -> Stack {
        let mut b = StackBuilder::new();
        let p = b.protocol("P");
        let q = b.protocol("Q");
        let e1 = b.event("E1");
        let e2 = b.event("E2");
        b.bind(e1, p, "hp", |_, _| Ok(()));
        b.bind(e2, q, "hq", |_, _| Ok(()));
        b.build()
    }

    #[test]
    fn profile_aggregates_waits_and_services() {
        let stack = two_proto_stack();
        let p = protocol_id_for_tests(0);
        let q = protocol_id_for_tests(1);
        let events = vec![
            ev(
                0,
                TraceKind::Spawn {
                    comp: 1,
                    algo: Policy::Basic,
                },
            ),
            ev(
                1,
                TraceKind::Spawn {
                    comp: 2,
                    algo: Policy::Bound,
                },
            ),
            ev(
                10_000,
                TraceKind::WaitEnd {
                    comp: 2,
                    protocol: p,
                    wait_ns: 8_000,
                    blocker: Some(1),
                },
            ),
            ev(
                12_000,
                TraceKind::HandlerExit {
                    comp: 2,
                    handler: handler_id_for_tests(0),
                    protocol: p,
                    service_ns: 2_000,
                },
            ),
            ev(
                13_000,
                TraceKind::EarlyRelease {
                    comp: 2,
                    protocol: p,
                    reason: ReleaseReason::BoundVisit,
                },
            ),
            ev(
                20_000,
                TraceKind::WaitEnd {
                    comp: 2,
                    protocol: q,
                    wait_ns: 4_000,
                    blocker: None,
                },
            ),
            ev(21_000, TraceKind::Complete { comp: 2 }),
        ];
        let prof = ContentionProfile::from_events(&events, &stack);
        let pp = prof.protocol("P").unwrap();
        assert_eq!(pp.waits, 1);
        assert_eq!(pp.wait_p50_us, 8.0);
        assert_eq!(pp.handler_calls, 1);
        assert_eq!(pp.service_p50_us, 2.0);
        assert_eq!(pp.bound_releases, 1);
        // A single sample: every percentile is that sample.
        assert_eq!(pp.wait_p99_us, 8.0);
        assert_eq!(pp.wait_max_us, 8.0);
        assert_eq!(pp.wait_total, Duration::from_micros(8));
        let qq = prof.protocol("Q").unwrap();
        assert_eq!(qq.waits, 1);
        assert_eq!(qq.wait_p50_us, 4.0);
        // Per-algo rollup: both waits belong to the Bound computation.
        let bound = prof.algos.iter().find(|a| a.algo == Policy::Bound).unwrap();
        assert_eq!(bound.waits, 2);
        assert_eq!(bound.early_releases, 1);
        let basic = prof.algos.iter().find(|a| a.algo == Policy::Basic).unwrap();
        assert_eq!(basic.waits, 0);
    }

    #[test]
    fn chrome_trace_has_spans_and_metadata() {
        let stack = two_proto_stack();
        let events = vec![
            ev(
                0,
                TraceKind::Spawn {
                    comp: 1,
                    algo: Policy::Route,
                },
            ),
            ev(
                9_000,
                TraceKind::WaitEnd {
                    comp: 1,
                    protocol: protocol_id_for_tests(0),
                    wait_ns: 5_000,
                    blocker: Some(7),
                },
            ),
            ev(
                11_500,
                TraceKind::HandlerExit {
                    comp: 1,
                    handler: handler_id_for_tests(0),
                    protocol: protocol_id_for_tests(0),
                    service_ns: 2_500,
                },
            ),
            ev(12_000, TraceKind::Complete { comp: 1 }),
        ];
        let json = chrome_trace(&events, &stack);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"cat\": \"admission-wait\""));
        assert!(json.contains("blocked_by"));
        assert!(json.contains("P.hp"));
        assert!(json.contains("thread_name"));
    }
}
