//! # samoa-core — the SAMOA microprotocol framework
//!
//! A Rust reproduction of *“SAMOA: Framework for Synchronisation Augmented
//! Microprotocol Approach”* (Wojciechowski, Rütti, Schiper; IPDPS 2004).
//!
//! Protocols are compositions of **microprotocols** — groups of event
//! handlers sharing local state — communicating through typed **events**.
//! External events spawn **computations**; the runtime's versioning
//! concurrency control guarantees the **isolation property**: the concurrent
//! execution of computations is equivalent to some serial execution of them,
//! without any programmer-written locks.
//!
//! ```
//! use samoa_core::prelude::*;
//!
//! // Build a stack: one microprotocol with one handler.
//! let mut b = StackBuilder::new();
//! let logger = b.protocol("Logger");
//! let log_ev = b.event("Log");
//! let lines = ProtocolState::new(logger, Vec::<String>::new());
//! {
//!     let lines = lines.clone();
//!     b.bind(log_ev, logger, "log", move |ctx, ev| {
//!         let msg: &String = ev.expect(log_ev)?;
//!         lines.with(ctx, |l| l.push(msg.clone()));
//!         Ok(())
//!     });
//! }
//! let rt = Runtime::new(b.build());
//!
//! // Each external event runs isolated, declaring what it may touch.
//! rt.run(Decl::Basic(&[logger]), |ctx| ctx.trigger(log_ev, "hello".to_string()))
//!     .unwrap();
//! assert_eq!(lines.snapshot(), vec!["hello".to_string()]);
//! ```
//!
//! A computation starts blocking with [`Runtime::run`] or detached with
//! [`Runtime::spawn`], each taking a [`Decl`] that selects its algorithm:
//! [`Decl::Basic`] (VCAbasic), [`Decl::Bound`] (VCAbound) and
//! [`Decl::Route`] (VCAroute) are the paper's three `isolated` forms;
//! [`Decl::Serial`] and [`Decl::Unsync`] are the Appia-style and
//! Cactus-style baselines the paper compares against, and
//! [`Decl::TwoPhase`] a classical two-phase-locking comparator.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod computation;
pub mod ctx;
pub mod error;
pub mod event;
mod exec;
pub mod external;
pub mod graph;
pub mod guide;
pub mod handler;
pub mod history;
pub mod metrics;
pub mod policy;
pub mod protocol;
pub mod runtime;
pub mod sched;
pub mod stack;
pub mod trace;
pub mod version;

pub use analysis::{Diagnostic, Report, Severity};
pub use ctx::Ctx;
pub use error::{CompId, Result, SamoaError};
pub use event::{EventData, EventType};
pub use external::External;
pub use graph::RoutePattern;
pub use handler::HandlerId;
pub use history::{check_serializable, Access, History, IsolationViolation, RunEntry};
pub use metrics::{Counter, Gauge, Histogram, HistogramSummary, MetricsSnapshot, Registry};
pub use policy::{CellKind, Policy};
pub use protocol::{ProtocolId, ProtocolState};
pub use runtime::{CompHandle, Decl, Runtime, RuntimeConfig, RuntimeStats};
pub use sched::{ExternalChoice, ReleaseReason, SchedHook, SchedPoint, SchedResource};
pub use stack::{Stack, StackBuilder};
pub use trace::{
    chrome_trace, percentile_us, render_summary, ChromeTrace, ContentionProfile, TraceBuffer,
    TraceEvent, TraceKind, TraceSink, WaitEdge, WaitForGraph,
};

/// Everything most programs need.
pub mod prelude {
    pub use crate::ctx::Ctx;
    pub use crate::error::{Result, SamoaError};
    pub use crate::event::{EventData, EventType};
    pub use crate::external::External;
    pub use crate::graph::RoutePattern;
    pub use crate::handler::HandlerId;
    pub use crate::policy::Policy;
    pub use crate::protocol::{ProtocolId, ProtocolState};
    pub use crate::runtime::{CompHandle, Decl, Runtime, RuntimeConfig, RuntimeStats};
    pub use crate::stack::{Stack, StackBuilder};
    pub use crate::trace::{ContentionProfile, TraceBuffer, TraceEvent, TraceKind, TraceSink};
}

/// Construct a raw [`HandlerId`] — for doctests and examples that build
/// routing patterns without a stack. Real code gets handler ids from
/// [`StackBuilder::bind`].
#[doc(hidden)]
pub fn handler_id_for_tests(i: u32) -> HandlerId {
    HandlerId(i)
}

/// Construct a raw [`ProtocolId`] — for tests that exercise the
/// serializability checker without building a stack.
#[doc(hidden)]
pub fn protocol_id_for_tests(i: u32) -> ProtocolId {
    ProtocolId(i)
}
