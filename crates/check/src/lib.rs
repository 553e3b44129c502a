//! # samoa-check — checking a SAMOA stack from outside the runtime
//!
//! `samoa-core` is the paper's runtime: microprotocols, events, handlers
//! and `isolated`. Everything that *judges* a stack rather than runs it is
//! here: schedule exploration, the static lint and conflict passes, and the
//! readers of a drained trace stream.
//!
//! ## Schedule exploration
//!
//! The paper argues its versioning algorithms guarantee the isolation
//! property *on every schedule*; ordinary tests only ever see the handful of
//! schedules the OS happens to produce. This crate makes schedules
//! first-class: it installs a cooperative [`Controller`] as the runtime's
//! [`SchedHook`](samoa_core::SchedHook), serialising all runtime threads
//! into turn-taking, and drives a workload [`Scenario`] through thousands of
//! distinct interleavings — seeded random walks, PCT priority schedules, or
//! exhaustive bounded enumeration. Every run is checked with the
//! serializability checker ([`History::check_isolation`]) plus
//! scenario-specific invariants, and a failure yields a [`Witness`]: the
//! exact choice trace, greedily minimised, that [`Explorer::replay`]
//! reproduces deterministically.
//!
//! ```
//! use samoa_check::{DiamondScenario, Explorer, ExplorerConfig, Strategy};
//! use samoa_core::Policy;
//!
//! // The unsynchronised diamond hides the paper's run r3; a short random
//! // walk finds it and pins it down to a replayable trace.
//! let scenario = DiamondScenario::new(Policy::Unsync);
//! let got = Explorer::explore(
//!     &scenario,
//!     &ExplorerConfig::new(500, Strategy::Random { seed: 1 }),
//! );
//! let witness = got.violation.expect("unsync diamond must violate isolation");
//! assert_eq!(Explorer::replay(&scenario, &witness), Some(witness.failure.clone()));
//!
//! // The same workload under VCAbasic survives every schedule tried.
//! let safe = DiamondScenario::new(Policy::Basic);
//! let got = Explorer::explore(&safe, &ExplorerConfig::new(100, Strategy::Random { seed: 1 }));
//! assert!(got.violation.is_none());
//! ```
//!
//! [`Strategy::Dpor`] visits the whole bounded space, minus schedules that
//! only reorder independent steps, so its failure set is complete; a
//! scenario's [`ConflictMatrix`] prunes it further
//! ([`DporSearch::with_independence`]).
//!
//! ## Static analysis
//!
//! Core infers declarations from trigger metadata
//! ([`samoa_core::analysis`]); this crate checks them. [`lint_stack`]
//! reports structural defects of a stack (`SA00x`), [`validate_decl`]
//! checks one declaration against the static call graph — under-declaring
//! is an error, over-declaring a warning (`SA01x`–`SA03x`) — and
//! [`ConflictMatrix`] decides which microprotocols can ever contend
//! (`SA05x`). The `samoa-lint` binary runs the linter and the matrix over a
//! whole stack.
//!
//! ```
//! use samoa_check::{lint_stack, validate_decl};
//! use samoa_core::analysis::infer_m;
//! use samoa_core::prelude::*;
//!
//! let mut b = StackBuilder::new();
//! let parser = b.protocol("Parser");
//! let store = b.protocol("Store");
//! let ingest = b.event("Ingest");
//! let put = b.event("Put");
//! b.bind_with_triggers(ingest, parser, "parse", &[put], move |ctx, ev| {
//!     ctx.trigger(put, ev.clone())
//! });
//! b.bind_with_triggers(put, store, "keep", &[], |_, _| Ok(()));
//! let stack = b.build();
//!
//! // Lint: structural mistakes become SA0xx diagnostics.
//! assert!(lint_stack(&stack, &[ingest]).is_clean());
//!
//! // Validate: under-declaring is an error, over-declaring a warning.
//! let m = infer_m(&stack, ingest);
//! assert!(validate_decl(&stack, &Decl::Basic(&m), Some(ingest)).is_clean());
//! let under = validate_decl(&stack, &Decl::Basic(&[parser]), Some(ingest));
//! assert!(under.has_errors()); // SA010: Store reachable but undeclared
//! ```
//!
//! ```
//! use samoa_check::ConflictMatrix;
//! use samoa_core::analysis::codes;
//! use samoa_core::prelude::*;
//! use samoa_core::sched::SchedResource;
//!
//! // Two clusters that never meet, and a protocol no analyzed root reaches.
//! let mut b = StackBuilder::new();
//! let (p, q, r) = (b.protocol("P"), b.protocol("Q"), b.protocol("R"));
//! let (e1, e2, e3) = (b.event("e1"), b.event("e2"), b.event("e3"));
//! b.bind_with_triggers(e1, p, "a", &[], |_, _| Ok(()));
//! b.bind_with_triggers(e2, q, "b", &[], |_, _| Ok(()));
//! b.bind_with_triggers(e3, r, "c", &[], |_, _| Ok(()));
//! let stack = b.build();
//!
//! let (matrix, report) = ConflictMatrix::analyze(&stack, &[e1, e2]);
//! assert!(!matrix.may_conflict(p, q));
//! assert!(matrix.may_conflict(p, p)); // two spawns of e1 contend
//! let codes: Vec<_> = report.diagnostics().iter().map(|d| d.code).collect();
//! assert_eq!(
//!     codes,
//!     [codes::CONFLICT_FREE_PROTOCOL, codes::CONFLICT_FREE_PROTOCOL, codes::UNREACHABLE_CONFLICT]
//! );
//!
//! // DPOR reads the same relation over scheduling resources.
//! let (vp, vq) = (SchedResource::Version(p.index() as u32), SchedResource::Version(q.index() as u32));
//! assert!(matrix.resources_independent(vp, vq));
//! assert!(!matrix.resources_independent(vp, vp));
//! ```
//!
//! ## Reading a trace
//!
//! A runtime with a [`TraceSink`](samoa_core::TraceSink) writes a stream of
//! [`TraceEvent`](samoa_core::TraceEvent)s; [`ContentionProfile`]
//! aggregates a drained stream per microprotocol and per algorithm, and
//! [`ChromeTrace`] / [`chrome_trace`] export it as Chrome `trace_event`
//! JSON for `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! ```
//! use samoa_check::{chrome_trace, ContentionProfile};
//! use samoa_core::prelude::*;
//!
//! let mut b = StackBuilder::new();
//! let p = b.protocol("Parser");
//! let e = b.event("Ingest");
//! b.bind(e, p, "parse", |_, _| Ok(()));
//! let buf = TraceBuffer::new();
//! let rt = Runtime::with_trace(b.build(), RuntimeConfig::default(), buf.clone());
//! for _ in 0..3 {
//!     rt.run(Decl::Basic(&[p]), |ctx| ctx.trigger(e, EventData::empty())).unwrap();
//! }
//! rt.quiesce();
//!
//! // Per-microprotocol admission-wait percentiles, handler service times,
//! // early-release counts.
//! let events = buf.drain();
//! let profile = ContentionProfile::from_events(&events, rt.stack());
//! let parser = profile.protocol("Parser").unwrap();
//! assert_eq!(parser.handler_calls, 3);
//! assert_eq!(parser.waits, 0); // sequential spawns never block
//!
//! // One track per computation, admission waits and handler calls as spans.
//! let json = chrome_trace(&events, rt.stack());
//! assert!(json.contains("traceEvents"));
//! ```
//!
//! [`History::check_isolation`]: samoa_core::History::check_isolation
//! [`DporSearch::with_independence`]: crate::dpor::DporSearch::with_independence

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod conflict;
pub mod controller;
pub mod dpor;
pub mod explorer;
pub mod faults;
pub mod lint;
pub mod profile;
pub mod scenarios;
pub mod strategy;

pub use conflict::ConflictMatrix;
pub use controller::{ChoiceRecord, Controller, ScheduleTrace, SegEvent, StepRecord};
pub use dpor::{DporSearch, HappensBefore, HbUnit};
pub use explorer::{Exploration, Explorer, ExplorerConfig, Failure, Strategy, Sweep, Witness};
pub use faults::{ClusterProbe, ClusterScenario, FaultBudget};
pub use lint::{lint_stack, validate_decl};
pub use profile::{chrome_trace, AlgoProfile, ChromeTrace, ContentionProfile, ProtocolProfile};
pub use scenarios::{
    DiamondScenario, DisjointClustersScenario, RunReport, Scenario, TransportWindowScenario,
    ViewChangeScenario,
};
pub use strategy::{Decider, PctDecider, PrefixDecider, RandomDecider};
