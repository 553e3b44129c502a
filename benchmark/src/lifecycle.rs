//! The computation lifecycle as the runtime's own trace events (spawn,
//! admission wait, handler enter/exit, completion) tell it: the
//! per-computation phase budget, and handler executions as spans.

use std::collections::HashMap;

use samoa_core::{TraceEvent, TraceKind};

use crate::report::Report;
use crate::spans::{self, Span};
use crate::stats;

/// One computation's lifecycle, from the runtime's events.
#[derive(Default, Clone, Copy)]
struct CompLife {
    spawn: Option<u64>,
    first_enter: Option<u64>,
    last_exit: Option<u64>,
    complete: Option<u64>,
    service_ns: u64,
    wait_ns: u64,
}

/// Per-computation phase budget from the PR 4 lifecycle events of one
/// runtime (`events` must come from a single sink: computation ids are
/// per-runtime).
pub fn comp_phases(events: &[TraceEvent]) -> [Vec<u64>; 4] {
    let mut lives: HashMap<u64, CompLife> = HashMap::new();
    for e in events {
        let Some(comp) = e.kind.comp() else { continue };
        let l = lives.entry(comp).or_default();
        match e.kind {
            TraceKind::Spawn { .. } => l.spawn = Some(e.t_ns),
            TraceKind::HandlerEnter { .. } => {
                l.first_enter.get_or_insert(e.t_ns);
            }
            TraceKind::HandlerExit { service_ns, .. } => {
                l.last_exit = Some(e.t_ns);
                l.service_ns += service_ns;
            }
            TraceKind::WaitEnd { wait_ns, .. } => l.wait_ns += wait_ns,
            TraceKind::Complete { .. } => l.complete = Some(e.t_ns),
            _ => {}
        }
    }
    let mut out: [Vec<u64>; 4] = Default::default();
    for l in lives.values() {
        let (Some(s), Some(h), Some(x), Some(c)) =
            (l.spawn, l.first_enter, l.last_exit, l.complete)
        else {
            continue;
        };
        out[0].push(h.saturating_sub(s));
        out[1].push(l.service_ns);
        out[2].push(l.wait_ns);
        out[3].push(c.saturating_sub(x));
    }
    out
}

/// Report the four `core.phase.*` medians.
pub fn report_comp_phases(phases: [Vec<u64>; 4], r: &mut Report) {
    let names = [
        "core.phase.spawn_to_handler_p50_us",
        "core.phase.handler_p50_us",
        "core.phase.wait_p50_us",
        "core.phase.handler_to_complete_p50_us",
    ];
    for (name, samples) in names.into_iter().zip(phases) {
        let n = samples.len();
        r.single(name, stats::p50_us(samples), n);
    }
}

/// Handler executions of one runtime as spans for the trace file; the
/// runtime's clock started `offset_ns` after the spans' epoch.
pub fn handler_spans(
    events: &[TraceEvent],
    pid: u32,
    offset_ns: u64,
) -> impl Iterator<Item = Span> + '_ {
    events.iter().filter_map(move |e| match e.kind {
        TraceKind::HandlerExit {
            comp, service_ns, ..
        } => Some(Span {
            name: "core.handler",
            parent: None,
            op: spans::NO_OP,
            pid,
            tid: 100 + (comp % 64) as u32,
            start_ns: (e.t_ns + offset_ns).saturating_sub(service_ns),
            end_ns: e.t_ns + offset_ns,
        }),
        _ => None,
    })
}
