//! Declaration derivation for SAMOA stacks: the part of the static
//! analysis a running stack calls.
//!
//! The paper's declarative isolation (`isolated M e`, `isolated bound`,
//! `isolated route`, §4) puts correctness in the programmer's hands: an
//! under-declared computation fails at run time, an over-declared one
//! silently loses parallelism. Declarations "could be inferred statically"
//! (§4), and here they are.
//!
//! The input is trigger metadata declared on the stack
//! ([`StackBuilder::declare_triggers`](crate::stack::StackBuilder::declare_triggers)
//! / [`bind_with_triggers`](crate::stack::StackBuilder::bind_with_triggers)):
//! each handler lists the event types its body may trigger, with repetition
//! encoding per-invocation multiplicity and
//! [`declare_fan_out`](crate::stack::StackBuilder::declare_fan_out) marking
//! the ones triggered in a loop. From it, [`CallGraph`] derives a
//! conservative handler-level call graph, and the **inference** functions
//! ([`infer_m`], [`infer_bounds`], [`infer_route`]) the minimal declaration
//! each `isolated` variant needs, guaranteed sufficient because the graph
//! over-approximates behaviour. Findings are [`Diagnostic`]s collected in a
//! [`Report`].
//!
//! This is what core keeps, and why: a runtime derives each entry event's
//! declaration with it when it is built
//! ([`External::new`](crate::External::new)). The passes that only *check*
//! a stack run outside the runtime and live in crate `samoa-check`: the
//! stack linter and declaration validator (`lint_stack`, `validate_decl`,
//! `SA00x`–`SA03x`) and the conflict matrix (`ConflictMatrix`, `SA05x`,
//! which also prunes its DPOR search). The `samoa-lint` binary runs them
//! over a whole stack.
//!
//! ```
//! use samoa_core::analysis::{infer_bounds, infer_m};
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
//! assert_eq!(infer_m(&stack, request), vec![lower, upper]);
//! let (bounds, report) = infer_bounds(&stack, request);
//! assert!(report.is_clean());
//! assert_eq!(bounds, vec![(lower, 2), (upper, 1)]);
//! ```

pub mod callgraph;
pub mod diagnostics;
pub mod infer;

pub use callgraph::{CallGraph, CYCLE_FALLBACK_BOUND};
pub use diagnostics::{codes, Diagnostic, Report, Severity};
pub use infer::{infer_bounds, infer_m, infer_route};
