//! The benchmark's declared surface: workload names, end-to-end metrics and
//! per-layer metrics, exactly as `BENCHMARK.json` lists them (a unit test
//! and `run.sh all --smoke` both hold the two in step).

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDecl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better: Better::Higher,
    }
}

/// One workload: its name, the reason it exists (what it stresses that the
/// others bypass), and whether `BENCHMARK.json` declares it, that is,
/// whether later changes are gated on it.
pub struct WorkloadDecl {
    pub name: &'static str,
    pub why: &'static str,
    pub gated: bool,
}

const fn gated(name: &'static str, why: &'static str) -> WorkloadDecl {
    WorkloadDecl {
        name,
        why,
        gated: true,
    }
}

const fn ungated(name: &'static str, why: &'static str) -> WorkloadDecl {
    WorkloadDecl {
        name,
        why,
        gated: false,
    }
}

/// The seven workloads, in the order `all` runs them. The driver's time
/// limit buys 4 + 22 runs per declared workload, so five are declared and
/// get runs long enough to repeat; the other two run under `all` only (see
/// README.md, "Which workloads gate").
pub const WORKLOADS: [WorkloadDecl; 7] = [
    gated(
        "kv-sim3-closed",
        "3-site KV on SimNet, 2 closed-loop clients, window 1: latency floor of one commit; nothing to batch, so batching must leave it flat",
    ),
    gated(
        "kv-sim3-window8",
        "same cluster, 2 clients x 8 outstanding: ordering queue never empty, so batching, admission parking and the ext-gate show",
    ),
    ungated(
        "kv-tcp3-closed",
        "same as kv-sim3-closed over localhost TCP: the only steady workload with net::tcp framing, writer threads and syscalls on the path",
    ),
    ungated(
        "kv-tcp3-failover",
        "open loop at 100 ops/s on TCP, round-0 coordinator crashed mid-run: time without service and safety under a fault",
    ),
    gated(
        "rt-spawn-null",
        "core only, null handlers, disjoint declarations: spawn-to-complete cost with no conflicts and no network",
    ),
    gated(
        "rt-pipeline-io",
        "core only, 4 sleeping stages under isolated route: spawn cost negligible, Rule-2 waits, park seam and early release do the work",
    ),
    gated(
        "xfer-sim-lossy",
        "samoa-transport over lossy SimNet: the only workload on the second ARQ (Window/Chunker/Checksum); proto does nothing here",
    ),
];

/// Every workload's name.
pub fn workload_names() -> impl Iterator<Item = &'static str> {
    WORKLOADS.iter().map(|w| w.name)
}

/// The names `BENCHMARK.json` declares.
pub fn gated_names() -> impl Iterator<Item = &'static str> {
    WORKLOADS.iter().filter(|w| w.gated).map(|w| w.name)
}

/// How long one driver run measures, seconds.
pub const RUN_SECONDS: u64 = 18;

/// Metrics a user of the system sees, each with the share of the parent's
/// median it may worsen by before a change is rejected (set by the A/A
/// procedure, see AA.md). Every workload reports every one, measured with
/// tracing, registry and `TimedTransport` off; the CPU-bound workloads
/// report them at reference speed (`boxspeed`).
pub const END_TO_END: [(MetricDecl, f64); 3] = [
    (lo("op_mean_us", "us"), 0.25),
    (hi("ops_per_s", "1/s"), 0.25),
    (lo("setup_s", "s"), 0.25),
];

/// Metrics of single layers (prefix = layer = crate/module name). A value
/// of 0 on a workload means the layer is not on that workload's path.
pub const PER_LAYER: [MetricDecl; 80] = [
    // client — the benchmark's own spans around each operation
    lo("client.submit_p50_us", "us"),
    lo("client.wait_p50_us", "us"),
    lo("client.put_p50_us", "us"),
    lo("client.get_p50_us", "us"),
    lo("client.cas_p50_us", "us"),
    lo("client.op_p50_us", "us"),
    lo("client.op_mean_us", "us"),
    hi("client.ops_per_s", "1/s"),
    lo("client.unfairness_ratio", "ratio"),
    lo("client.op_p90_us", "us"),
    lo("client.op_p99_us", "us"),
    lo("client.gen_lateness_p99_us", "us"),
    lo("client.outage_ms", "ms"),
    lo("client.failed_ratio", "ratio"),
    // core — Runtime::stats() and version::{parks,gate_spins}, per op
    lo("core.comps_per_op", "count"),
    lo("core.handler_calls_per_op", "count"),
    lo("core.admission_wait_us_per_op", "us"),
    lo("core.parks_per_op", "count"),
    lo("core.gate_spins_per_op", "count"),
    lo("core.wakeups_per_op", "count"),
    hi("core.early_releases_per_op", "count"),
    lo("core.spawn_join_p50_us", "us"),
    lo("core.admit_ns.vca-basic", "ns"),
    lo("core.admit_ns.unsync", "ns"),
    lo("core.handoff_p50_us", "us"),
    hi("core.pipeline.speedup_vs_basic", "ratio"),
    lo("core.phase.spawn_to_handler_p50_us", "us"),
    lo("core.phase.handler_p50_us", "us"),
    lo("core.phase.wait_p50_us", "us"),
    lo("core.phase.handler_to_complete_p50_us", "us"),
    // net — backend counters, TimedTransport spans, bare-backend probes
    lo("net.datagrams_per_op", "count"),
    lo("net.dropped_per_op", "count"),
    lo("net.retried_per_op", "count"),
    lo("net.reconnects", "count"),
    lo("net.bytes_per_op", "B"),
    lo("net.send_call_p50_us", "us"),
    lo("net.transit_p50_us", "us"),
    lo("net.deliver_cb_p50_us", "us"),
    lo("net.sim.oneway_p50_us", "us"),
    hi("net.sim.msgs_per_s", "1/s"),
    lo("net.tcp.oneway_p50_us", "us"),
    hi("net.tcp.msgs_per_s", "1/s"),
    // proto — Node accessors, registry instruments, causal events, probes
    lo("proto.consensus.instances_per_op", "count"),
    lo("proto.relcomm.retransmits_per_op", "count"),
    lo("proto.relcomm.sends_per_op", "count"),
    lo("proto.relcomm.rto_us", "us"),
    lo("proto.consensus.rounds_per_op", "count"),
    lo("proto.abcast.lag_p50_us", "us"),
    lo("proto.kv.apply_latency_p50_us", "us"),
    lo("proto.budget.submit_to_first_send_p50_us", "us"),
    lo("proto.budget.first_send_to_abdeliver_p50_us", "us"),
    lo("proto.budget.abdeliver_to_kvapply_p50_us", "us"),
    lo("proto.budget.kvapply_to_reply_p50_us", "us"),
    lo("proto.budget.hops_per_op", "count"),
    lo("proto.budget.identity_gap", "ratio"),
    lo("proto.wire.encode_ns", "ns"),
    lo("proto.wire.decode_ns", "ns"),
    lo("proto.kv.apply_ns", "ns"),
    lo("proto.single_site_op_p50_us", "us"),
    lo("proto.fd.exclusion_ms", "ms"),
    lo("proto.membership.view_changes", "count"),
    // transport — Endpoint accessors and codec probes
    hi("transport.goodput_mib_s", "MiB/s"),
    lo("transport.datagrams_per_frag", "count"),
    lo("transport.retransmissions_per_frag", "count"),
    lo("transport.dup_suppressed_per_frag", "count"),
    lo("transport.corrupt_dropped_per_frag", "count"),
    lo("transport.frame.encode_ns", "ns"),
    lo("transport.frame.decode_ns", "ns"),
    // proc — the whole process
    lo("proc.peak_threads", "count"),
    lo("proc.peak_rss_mib", "MiB"),
    lo("proc.cpu_us_per_op", "us"),
    lo("proc.sys_cpu_share", "ratio"),
    lo("proc.loadavg_1m_start", "count"),
    lo("proc.loadavg_1m_end", "count"),
    hi("proc.box_speed", "ratio"),
    // trace — cost and volume of the traced run
    lo("trace.overhead_ratio", "ratio"),
    lo("trace.events_per_op", "count"),
    lo("trace.dropped_events", "count"),
    lo("trace.traced_op_p50_us", "us"),
    hi("trace.untraced_ops_per_s", "1/s"),
];

/// Is `name` made of the characters the contract allows, in the length it
/// allows, starting with a letter or digit?
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Is `unit` a non-empty string of at most 16 allowed characters?
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The text of `BENCHMARK.json`: the contract's six keys, nothing else.
pub fn render_benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\", \"run\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let join = |rows: Vec<String>| rows.join(",\n");
    out.push_str("  \"workloads\": [\n");
    out.push_str(&join(
        WORKLOADS
            .iter()
            .filter(|w| w.gated)
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    ));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    out.push_str(&join(
        END_TO_END
            .iter()
            .map(|(m, bound)| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}",
                    m.name,
                    m.unit,
                    m.better.as_str()
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    out.push_str(&join(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.as_str()
                )
            })
            .collect(),
    ));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn declared_names_and_units_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().map(|(m, _)| m).chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "bad name {}", m.name);
            assert!(valid_unit(m.unit), "bad unit {} for {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
        }
        for w in &WORKLOADS {
            assert!(
                valid_name(w.name) && seen.insert(w.name),
                "bad workload {}",
                w.name
            );
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "bad why for {}",
                w.name
            );
        }
        assert!((2..=8).contains(&gated_names().count()));
        for (m, bound) in END_TO_END {
            assert!(bound > 0.0 && bound <= 0.25, "bad bound for {}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|(m, _)| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    #[test]
    fn name_and_unit_rules() {
        assert!(valid_name("core.admit_ns.vca-basic"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("MiB/s") && valid_unit("%"));
        assert!(!valid_unit("") && !valid_unit("µs"));
    }

    /// `BENCHMARK.json` at the repo root is `render_benchmark_json()`
    /// written to a file; regenerate it with `run.sh schema`.
    #[test]
    fn benchmark_json_matches_declarations() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        assert_eq!(text, render_benchmark_json());
        serde_json::from_str(&text).expect("BENCHMARK.json parses");
    }
}
