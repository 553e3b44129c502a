//! Static declaration analysis for SAMOA stacks.
//!
//! The paper's declarative isolation (`isolated M e`, `isolated bound`,
//! `isolated route`, §4) puts correctness in the programmer's hands: an
//! under-declared computation fails at run time, an over-declared one
//! silently loses parallelism. This module makes declarations checkable
//! — and inferable — *before* anything runs.
//!
//! The input is trigger metadata declared on the stack
//! ([`StackBuilder::declare_triggers`](crate::stack::StackBuilder::declare_triggers)
//! / [`bind_with_triggers`](crate::stack::StackBuilder::bind_with_triggers)):
//! each handler lists the event types its body may trigger, with repetition
//! encoding per-invocation multiplicity and
//! [`declare_fan_out`](crate::stack::StackBuilder::declare_fan_out) marking
//! the ones triggered in a loop. From it, [`CallGraph`] derives a
//! conservative handler-level call graph, over which four analyses run:
//!
//! * **Linting** ([`lint_stack`]): structural defects of the stack itself —
//!   unbound events, unreachable handlers, empty microprotocols, duplicate
//!   bindings, dangling triggers (`SA001`–`SA006`).
//! * **Validation** ([`validate_decl`]): one declaration against the graph.
//!   Under-declaration (missing microprotocol, too-small bound, missing
//!   route) is an Error; over-declaration (resources held but never
//!   reachable) a Warning (`SA010`–`SA030`).
//! * **Inference** ([`infer_m`], [`infer_bounds`], [`infer_route`]): the
//!   minimal declaration each `isolated` variant needs, guaranteed
//!   sufficient because the graph over-approximates behaviour.
//! * **Conflict analysis** ([`ConflictMatrix`]): which microprotocol pairs
//!   can ever contend on a version cell or lock, given the analyzed root
//!   events — unreachable or conflict-free microprotocols are reported
//!   (`SA050`/`SA051`), and the matrix feeds the dynamic checker's static
//!   independence relation (DPOR pruning in crate `samoa-check`).
//!
//! Findings are [`Diagnostic`]s collected in a [`Report`]. The runtime does
//! not run these analyses: hosts derive their declarations with them
//! ([`External::new`](crate::External::new)), and the `samoa-lint` binary
//! runs them over a whole stack.
//!
//! ```
//! use samoa_core::analysis::{infer_bounds, infer_m, lint_stack};
//! use samoa_core::prelude::*;
//!
//! let mut b = StackBuilder::new();
//! let lower = b.protocol("Lower");
//! let upper = b.protocol("Upper");
//! let request = b.event("Request");
//! let send = b.event("Send");
//! b.bind_with_triggers(send, lower, "send", &[], |_, _| Ok(()));
//! // "deliver" may trigger Send twice per invocation.
//! b.bind_with_triggers(request, upper, "deliver", &[send, send], |_, _| Ok(()));
//! let stack = b.build();
//!
//! assert!(lint_stack(&stack, &stack.all_events()).is_clean());
//! assert_eq!(infer_m(&stack, request), vec![lower, upper]);
//! let (bounds, report) = infer_bounds(&stack, request);
//! assert!(report.is_clean());
//! assert_eq!(bounds, vec![(lower, 2), (upper, 1)]);
//! ```

pub mod callgraph;
pub mod conflict;
pub mod diagnostics;
pub mod infer;
pub mod lint;

pub use callgraph::{CallGraph, CYCLE_FALLBACK_BOUND};
pub use conflict::ConflictMatrix;
pub use diagnostics::{codes, Diagnostic, Report, Severity};
pub use infer::{infer_bounds, infer_m, infer_route};
pub use lint::{lint_stack, validate_decl};
