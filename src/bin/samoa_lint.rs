//! samoa-lint: the whole-stack static safety pass as a command-line tool.
//!
//! ```text
//! samoa-lint [--stack proto|defective] [--format text|json]
//!            [--deny error|warn|info] [--infer]
//! ```
//!
//! Runs the whole-stack static analyses — the stack linter (`SA00x`) and
//! the conflict matrix reachability pass (`SA05x`) — over a stack and
//! reports the merged diagnostics.
//!
//! * `--stack proto` (default) lints the paper's §3 group-communication
//!   stack from `samoa-proto`; `--stack defective` lints a small stack
//!   with deliberate mistakes, to demonstrate the error diagnostics.
//! * `--format json` emits one machine-readable JSON document on stdout
//!   (stable keys: `stack`, `clean`, `counts`, `diagnostics[]` with
//!   `code`/`severity`/`message` and optional `handler`/`protocol`/
//!   `event` anchors) — what CI archives as its lint artifact.
//! * `--deny <level>` sets the exit threshold: any diagnostic at or above
//!   the level makes the process exit 1 (default `error`).
//! * `--infer` (text mode) additionally prints the declaration
//!   `External::new` derives per entry event — what a host declares — and,
//!   for each bound saturated at the fallback, its cause: a cycle (its
//!   handlers named) or the fan-out edges above it.

use std::process::ExitCode;

use samoa::core::analysis::{
    infer_bounds, lint_stack, CallGraph, ConflictMatrix, Report, Severity, CYCLE_FALLBACK_BOUND,
};
use samoa::net::ProtoClock;
use samoa::prelude::*;

/// Parsed command line.
struct Opts {
    stack: StackChoice,
    json: bool,
    deny: Severity,
    infer: bool,
}

enum StackChoice {
    Proto,
    Defective,
}

fn usage() -> ! {
    eprintln!(
        "usage: samoa-lint [--stack proto|defective] [--format text|json] \
         [--deny error|warn|info] [--infer]"
    );
    std::process::exit(2)
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        stack: StackChoice::Proto,
        json: false,
        deny: Severity::Error,
        infer: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().unwrap_or_else(|| usage_missing(name));
        match arg.as_str() {
            "--stack" => {
                opts.stack = match value("--stack").as_str() {
                    "proto" => StackChoice::Proto,
                    "defective" => StackChoice::Defective,
                    _ => usage(),
                }
            }
            "--format" => {
                opts.json = match value("--format").as_str() {
                    "text" => false,
                    "json" => true,
                    _ => usage(),
                }
            }
            "--deny" => {
                opts.deny = match value("--deny").as_str() {
                    "error" => Severity::Error,
                    "warn" | "warning" => Severity::Warning,
                    "info" => Severity::Info,
                    _ => usage(),
                }
            }
            "--infer" => opts.infer = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    opts
}

fn usage_missing(name: &str) -> ! {
    eprintln!("samoa-lint: {name} needs a value");
    std::process::exit(2)
}

fn main() -> ExitCode {
    let opts = parse_args();
    match opts.stack {
        StackChoice::Proto => {
            // A manual clock starts no timer: the lint pass only needs the
            // stack shape, not a running cluster.
            let cfg = NodeConfig {
                clock: ProtoClock::manual(),
                ..NodeConfig::default()
            };
            let cluster = Cluster::new(3, NetConfig::fast(1), cfg);
            let node = cluster.node(0);
            let stack = node.runtime().stack();
            run("proto", stack, &node.events().entries(), &opts)
        }
        StackChoice::Defective => {
            let mut b = StackBuilder::new();
            let parser = b.protocol("Parser");
            let _idle = b.protocol("Idle"); // SA003: no handlers
            let ingest = b.event("Ingest");
            let parsed = b.event("Parsed"); // SA001: never bound
            b.bind_with_triggers(ingest, parser, "parse", &[parsed], |_, _| Ok(()));
            let stack = b.build();
            run("defective", &stack, &[ingest], &opts)
        }
    }
}

/// Run the merged static pass over one stack and report. Returns the
/// process exit code per the `--deny` threshold.
fn run(name: &str, stack: &Stack, entries: &[EventType], opts: &Opts) -> ExitCode {
    let mut report = lint_stack(stack, entries);
    let (_, conflicts) = ConflictMatrix::analyze(stack, entries);
    report.merge(conflicts);

    if opts.json {
        println!("{}", to_json(name, stack, &report));
    } else {
        println!("== {name} stack ==");
        println!(
            "{} microprotocols, {} events, {} handlers, full trigger metadata: {}",
            stack.protocol_count(),
            stack.event_count(),
            stack.handler_count(),
            stack.has_full_trigger_metadata()
        );
        println!("\n{report}");
        if opts.infer {
            print_inferred(stack, entries);
        }
    }

    let denied = report.diagnostics().iter().any(|d| d.severity >= opts.deny);
    if denied {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The declaration `External::new` derives per entry event — what a host
/// declares for that kind — behind `--infer`. A bound at the fallback says
/// why: a cycle (the handlers on it, as `SA030` names them) or the fan-out
/// edges it lies below.
fn print_inferred(stack: &Stack, entries: &[EventType]) {
    println!("\nderived declarations per entry event:");
    let g = CallGraph::from_stack(stack);
    for &e in entries {
        let ext = External::new(stack, e);
        let names: Vec<&str> = ext
            .protocols
            .iter()
            .map(|&p| stack.protocol_name(p))
            .collect();
        let bounds: Vec<String> = ext
            .bounds
            .iter()
            .map(|&(p, b)| match b {
                CYCLE_FALLBACK_BOUND => format!("{}\u{2264}*", stack.protocol_name(p)),
                b => format!("{}\u{2264}{b}", stack.protocol_name(p)),
            })
            .collect();
        println!(
            "  {:>14}: M = {{{}}}; bounds {}; route touches {} handlers",
            stack.event_name(e),
            names.join(", "),
            bounds.join(" "),
            ext.route.vertices().len()
        );
        let (_, rep) = infer_bounds(stack, e);
        if let Some(cycle) = rep.diagnostics().first() {
            println!("  {:>14}  * cyclic: {}", "", cycle.message);
            continue;
        }
        // Acyclic: each saturated microprotocol lies below a fan-out edge.
        let reached = g.reachable_from_event(e);
        for &(p, b) in &ext.bounds {
            if b != CYCLE_FALLBACK_BOUND {
                continue;
            }
            let edges: Vec<String> = reached
                .iter()
                .flat_map(|&h| stack.handler_fan_outs(h).iter().map(move |&f| (h, f)))
                .filter(|&(_, f)| g.reachable_protocols(f).contains(&p))
                .map(|(h, f)| format!("{} -> {}", stack.handler_name(h), stack.event_name(f)))
                .collect();
            println!(
                "  {:>14}  * {} below fan-out {}",
                "",
                stack.protocol_name(p),
                edges.join(", ")
            );
        }
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The machine-readable form CI archives: everything the text report
/// carries, with anchors resolved to names.
fn to_json(name: &str, stack: &Stack, report: &Report) -> String {
    let mut diags = Vec::new();
    for d in report.diagnostics() {
        let mut fields = vec![
            format!("\"code\":\"{}\"", d.code),
            format!("\"severity\":\"{}\"", d.severity),
            format!("\"message\":\"{}\"", json_escape(&d.message)),
        ];
        if let Some(h) = d.handler {
            fields.push(format!(
                "\"handler\":\"{}\"",
                json_escape(stack.handler_name(h))
            ));
        }
        if let Some(p) = d.protocol {
            fields.push(format!(
                "\"protocol\":\"{}\"",
                json_escape(stack.protocol_name(p))
            ));
        }
        if let Some(e) = d.event {
            fields.push(format!(
                "\"event\":\"{}\"",
                json_escape(stack.event_name(e))
            ));
        }
        diags.push(format!("{{{}}}", fields.join(",")));
    }
    format!(
        "{{\"stack\":\"{}\",\"protocols\":{},\"events\":{},\"handlers\":{},\
         \"clean\":{},\"counts\":{{\"error\":{},\"warning\":{},\"info\":{}}},\
         \"diagnostics\":[{}]}}",
        json_escape(name),
        stack.protocol_count(),
        stack.event_count(),
        stack.handler_count(),
        report.is_clean(),
        report.count(Severity::Error),
        report.count(Severity::Warning),
        report.count(Severity::Info),
        diags.join(",")
    )
}
