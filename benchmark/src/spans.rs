//! The benchmark's own spans — recorded from outside, around each call into
//! a layer — kept in memory during the traced run and written out as a
//! Chrome `trace_event` file when it ends.

use std::io::Write;
use std::path::Path;

use parking_lot::Mutex;

/// One span: a named interval on a track, tied to the operation that caused
/// it. Spans of one operation share `op`; `parent` names the span of the
/// same operation this one is nested in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    /// Operation id shared by every span of one request (`NO_OP` if the
    /// span serves no single operation, e.g. an ack).
    pub op: u64,
    /// Process lane in the viewer (the site, or 0).
    pub pid: u32,
    /// Thread lane in the viewer.
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// `op` of a span that serves no single operation.
pub const NO_OP: u64 = u64::MAX;

/// One id for the cluster operation `(origin site, per-site op number)`.
pub fn op_id(origin: u16, op: u64) -> u64 {
    (u64::from(origin) << 48) | (op & ((1 << 48) - 1))
}

/// A bounded, shared span recorder. Beyond `cap` spans are counted and
/// dropped: a long traced run must not grow without limit.
#[derive(Debug)]
pub struct SpanLog {
    inner: Mutex<(Vec<Span>, u64)>,
    cap: usize,
}

impl SpanLog {
    pub fn new(cap: usize) -> SpanLog {
        SpanLog {
            inner: Mutex::new((Vec::new(), 0)),
            cap,
        }
    }

    pub fn push(&self, span: Span) {
        let mut g = self.inner.lock();
        if g.0.len() < self.cap {
            g.0.push(span);
        } else {
            g.1 += 1;
        }
    }

    /// Take the recorded spans and the number dropped.
    pub fn take(&self) -> (Vec<Span>, u64) {
        let mut g = self.inner.lock();
        (std::mem::take(&mut g.0), g.1)
    }
}

/// A span's self time: its duration minus the part of it that its child
/// spans cover (overlapping children are not counted twice).
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut cover: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    cover.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (s, e) in cover {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (span.end_ns - span.start_ns).saturating_sub(covered)
}

/// A point event for the trace file (the program's own causal events).
#[derive(Debug, Clone)]
pub struct Instant {
    pub name: String,
    pub op: u64,
    pub pid: u32,
    pub t_ns: u64,
}

/// Write spans and instants as Chrome `trace_event` JSON (loadable in
/// `chrome://tracing` or ui.perfetto.dev). Spans that have children carry
/// their self time in `args.self_us`.
pub fn write_chrome_trace(
    path: &Path,
    spans: &[Span],
    instants: &[Instant],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    // Children of a span: same operation, `parent` naming it.
    let mut by_op: std::collections::HashMap<u64, Vec<&Span>> = std::collections::HashMap::new();
    for s in spans.iter().filter(|s| s.op != NO_OP && s.parent.is_some()) {
        by_op.entry(s.op).or_default().push(s);
    }
    write!(out, "{{\"displayTimeUnit\": \"ns\", \"traceEvents\": [")?;
    let mut first = true;
    let mut sep = |out: &mut std::io::BufWriter<std::fs::File>| -> std::io::Result<()> {
        if !first {
            write!(out, ",")?;
        }
        first = false;
        writeln!(out)
    };
    for s in spans {
        sep(&mut out)?;
        let children: Vec<&Span> = by_op
            .get(&s.op)
            .map(|v| {
                v.iter()
                    .copied()
                    .filter(|c| c.parent == Some(s.name))
                    .collect()
            })
            .unwrap_or_default();
        write!(
            out,
            "{{\"name\": \"{}\", \"cat\": \"bench\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": {}, \"tid\": {}, \"args\": {{",
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.pid,
            s.tid
        )?;
        if s.op != NO_OP {
            write!(out, "\"op\": \"{:#x}\"", s.op)?;
            if let Some(p) = s.parent {
                write!(out, ", \"parent\": \"{p}\"")?;
            }
            if !children.is_empty() {
                write!(
                    out,
                    ", \"self_us\": {:.3}",
                    self_time_ns(s, &children) as f64 / 1e3
                )?;
            }
        }
        write!(out, "}}}}")?;
    }
    for i in instants {
        sep(&mut out)?;
        write!(
            out,
            "{{\"name\": \"{}\", \"cat\": \"program\", \"ph\": \"i\", \"s\": \"p\", \"ts\": {:.3}, \"pid\": {}, \"tid\": 0, \"args\": {{\"op\": \"{:#x}\"}}}}",
            i.name,
            i.t_ns as f64 / 1e3,
            i.pid,
            i.op
        )?;
    }
    writeln!(out, "\n]}}")?;
    out.flush()
}

/// Write `benchmark/out/<workload>.trace.json` (relative to the checkout
/// root the benchmark is run from). Failing to write it loses the file,
/// not the measurements.
pub fn write_trace_file(workload: &str, spans: &[Span], instants: &[Instant]) {
    let path = std::path::Path::new("benchmark/out").join(format!("{workload}.trace.json"));
    match write_chrome_trace(&path, spans, instants) {
        Ok(()) => println!(
            "# trace: {} spans, {} program events -> {}",
            spans.len(),
            instants.len(),
            path.display()
        ),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<&'static str>, s: u64, e: u64) -> Span {
        Span {
            name,
            parent,
            op: op_id(1, 7),
            pid: 1,
            tid: 0,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let parent = span("op", None, 100, 200);
        let a = span("a", Some("op"), 110, 150);
        let b = span("b", Some("op"), 140, 170); // overlaps a by 10
        let c = span("c", Some("op"), 190, 260); // sticks out past the parent
        assert_eq!(self_time_ns(&parent, &[]), 100);
        assert_eq!(self_time_ns(&parent, &[&a]), 60);
        assert_eq!(self_time_ns(&parent, &[&a, &b]), 40);
        assert_eq!(self_time_ns(&parent, &[&b, &a, &c]), 30);
    }

    #[test]
    fn log_is_bounded_and_counts_drops() {
        let log = SpanLog::new(2);
        for i in 0..5 {
            log.push(span("x", None, i, i + 1));
        }
        let (spans, dropped) = log.take();
        assert_eq!((spans.len(), dropped), (2, 3));
    }

    #[test]
    fn op_ids_keep_origin_and_number_apart() {
        assert_ne!(op_id(0, 1), op_id(1, 0));
        assert_eq!(op_id(2, 9) >> 48, 2);
        assert_ne!(op_id(0, 0), NO_OP);
    }

    #[test]
    fn chrome_trace_is_loadable_json() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-test-{}", std::process::id()));
        let path = dir.join("t.trace.json");
        let spans = [
            span("client.op", None, 1000, 9000),
            span("client.submit", Some("client.op"), 1000, 3000),
        ];
        let instants = [Instant {
            name: "AbDeliver".into(),
            op: op_id(1, 7),
            pid: 1,
            t_ns: 5000,
        }];
        write_chrome_trace(&path, &spans, &instants).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let v = serde_json::from_str(&text).expect("trace file parses as JSON");
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("X"));
        let self_us = events[0].get("args").unwrap().get("self_us").unwrap();
        assert_eq!(self_us.as_f64(), Some(6.0));
        assert_eq!(events[2].get("ph").unwrap().as_str(), Some("i"));
    }
}
