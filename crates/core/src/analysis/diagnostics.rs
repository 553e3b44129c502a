//! Structured diagnostics produced by the static analyses.
//!
//! Every finding is a [`Diagnostic`] with a stable `SA0xx` code (see
//! [`codes`]), a [`Severity`], a human-readable message, and optional
//! anchors into the stack (handler / microprotocol / event). Analyses
//! collect diagnostics into a [`Report`], which renders compiler-style
//! (`error[SA010]: …`); `samoa-lint --deny` turns its worst severity into an
//! exit code.

use std::fmt;

use crate::event::EventType;
use crate::handler::HandlerId;
use crate::protocol::ProtocolId;

/// Stable diagnostic codes. `SA00x` come from the stack linter
/// (`samoa_check::lint_stack`), `SA01x` are Error-level declaration
/// defects, `SA02x`/`SA03x` Warning-level slack and imprecision (see
/// `samoa_check::validate_decl`) and `SA05x` conflict-reachability findings
/// (`samoa_check::ConflictMatrix`). Inference here reports `SA030`.
pub mod codes {
    /// An event type has no bound handler; triggering it fails at run time.
    pub const EVENT_NO_HANDLER: &str = "SA001";
    /// A handler is unreachable from every declared external event.
    pub const UNREACHABLE_HANDLER: &str = "SA002";
    /// A microprotocol has no handlers at all.
    pub const EMPTY_PROTOCOL: &str = "SA003";
    /// The same handler is bound more than once to one event type.
    pub const DUPLICATE_BINDING: &str = "SA004";
    /// A handler declares it triggers an event with no bound handler.
    pub const DANGLING_TRIGGER: &str = "SA005";
    /// A handler carries no trigger metadata; analyses treat it as
    /// triggering nothing, which may under-approximate the call graph.
    pub const MISSING_TRIGGER_META: &str = "SA006";
    /// A reachable microprotocol is missing from the declared `M`-set.
    pub const UNDECLARED_PROTOCOL: &str = "SA010";
    /// A declared visit bound is below the statically required visits.
    pub const BOUND_TOO_SMALL: &str = "SA011";
    /// A routing pattern is missing a root or edge the call graph needs.
    pub const MISSING_ROUTE: &str = "SA012";
    /// A declared microprotocol is held but never reachable.
    pub const OVERDECLARED_PROTOCOL: &str = "SA020";
    /// A declared visit bound exceeds the statically required visits.
    pub const BOUND_SLACK: &str = "SA021";
    /// A routing-pattern vertex is never reachable from the root event.
    pub const DEAD_ROUTE_VERTEX: &str = "SA022";
    /// A cycle in the call graph prevents precise visit-bound analysis.
    pub const CYCLE_BOUND_UNKNOWN: &str = "SA030";
    /// A microprotocol has handlers, but no analyzed root event reaches it:
    /// a bound/lock on it can be declared, yet no schedule can contend there.
    pub const UNREACHABLE_CONFLICT: &str = "SA050";
    /// A microprotocol never shares a computation footprint with any other:
    /// it is conflict-free and any isolation spent on it buys nothing.
    pub const CONFLICT_FREE_PROTOCOL: &str = "SA051";
}

/// How bad a [`Diagnostic`] is. Ordered: `Info < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advice; does not indicate a defect.
    Info,
    /// Suspicious but safe: the program cannot fail because of it (e.g.
    /// declared resources that are never used).
    Warning,
    /// The declaration (or stack) is defective: some execution permitted by
    /// the call graph fails at run time.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding of a static analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code from [`codes`] (e.g. `"SA010"`).
    pub code: &'static str,
    /// How bad it is.
    pub severity: Severity,
    /// Human-readable description, with names resolved against the stack.
    pub message: String,
    /// The handler the finding is about, when there is one.
    pub handler: Option<HandlerId>,
    /// The microprotocol the finding is about, when there is one.
    pub protocol: Option<ProtocolId>,
    /// The event type the finding is about, when there is one.
    pub event: Option<EventType>,
}

impl Diagnostic {
    /// Build a diagnostic with no anchors.
    pub fn new(code: &'static str, severity: Severity, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity,
            message: message.into(),
            handler: None,
            protocol: None,
            event: None,
        }
    }

    /// Anchor the diagnostic to a handler.
    pub fn with_handler(mut self, h: HandlerId) -> Self {
        self.handler = Some(h);
        self
    }

    /// Anchor the diagnostic to a microprotocol.
    pub fn with_protocol(mut self, p: ProtocolId) -> Self {
        self.protocol = Some(p);
        self
    }

    /// Anchor the diagnostic to an event type.
    pub fn with_event(mut self, e: EventType) -> Self {
        self.event = Some(e);
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)
    }
}

/// An ordered collection of [`Diagnostic`]s, as produced by one analysis.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty (clean) report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Append a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Append every finding of another report.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// All findings, in the order the analysis emitted them.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// True when the analysis found nothing at all (not even Info).
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True when at least one finding is Error-level.
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Number of findings at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Render the report compiler-style: one line per finding, most severe
    /// first, followed by a summary line.
    pub fn render(&self) -> String {
        if self.is_clean() {
            return "no diagnostics".to_string();
        }
        let mut sorted: Vec<&Diagnostic> = self.diagnostics.iter().collect();
        sorted.sort_by_key(|d| std::cmp::Reverse(d.severity));
        let mut out = String::new();
        for d in sorted {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s), {} info(s)",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
        ));
        out
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn report_counts_and_errors() {
        let mut r = Report::new();
        assert!(r.is_clean());
        assert!(!r.has_errors());
        r.push(Diagnostic::new(codes::BOUND_SLACK, Severity::Warning, "w"));
        assert!(!r.has_errors());
        r.push(
            Diagnostic::new(codes::UNDECLARED_PROTOCOL, Severity::Error, "e")
                .with_protocol(ProtocolId(1)),
        );
        assert!(r.has_errors());
        assert_eq!(r.count(Severity::Error), 1);
        assert_eq!(r.count(Severity::Warning), 1);
        assert_eq!(r.count(Severity::Info), 0);
    }

    #[test]
    fn render_most_severe_first_with_summary() {
        let mut r = Report::new();
        r.push(Diagnostic::new(
            codes::MISSING_TRIGGER_META,
            Severity::Info,
            "i",
        ));
        r.push(Diagnostic::new(
            codes::UNDECLARED_PROTOCOL,
            Severity::Error,
            "e",
        ));
        let s = r.render();
        let e_pos = s.find("error[SA010]").unwrap();
        let i_pos = s.find("info[SA006]").unwrap();
        assert!(e_pos < i_pos, "{s}");
        assert!(s.ends_with("1 error(s), 0 warning(s), 1 info(s)"), "{s}");
    }

    #[test]
    fn clean_render() {
        assert_eq!(Report::new().render(), "no diagnostics");
    }
}
