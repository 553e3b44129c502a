//! # A guided tour of SAMOA
//!
//! This module contains no code — it is the narrative documentation for the
//! framework, structured after the paper's own development (model →
//! constructs → algorithms → pitfalls). Everything shown here compiles and
//! runs as doctests.
//!
//! ## 1. The model: microprotocols, events, computations
//!
//! A protocol is a *stack*: microprotocols (handlers + private local state)
//! bound to typed events. Handlers may only touch their own
//! microprotocol's state; everything else flows through events.
//!
//! ```
//! use samoa_core::prelude::*;
//!
//! let mut b = StackBuilder::new();
//! let parser = b.protocol("Parser");
//! let store = b.protocol("Store");
//! let ingest = b.event("Ingest");
//! let put = b.event("Put");
//!
//! let seen = ProtocolState::new(parser, 0u64);
//! let words = ProtocolState::new(store, Vec::<usize>::new());
//! {
//!     let seen = seen.clone();
//!     b.bind(ingest, parser, "parse", move |ctx, ev| {
//!         let line: &String = ev.expect(ingest)?;
//!         let n = line.split_whitespace().count();
//!         seen.with(ctx, |s| *s += 1);       // own state: fine
//!         ctx.trigger(put, EventData::new(n)) // other state: via events
//!     });
//! }
//! {
//!     let words = words.clone();
//!     b.bind(put, store, "keep", move |ctx, ev| {
//!         let n = *ev.expect::<usize>(put)?;
//!         words.with(ctx, |w| w.push(n));
//!         Ok(())
//!     });
//! }
//! let rt = Runtime::new(b.build());
//! # rt.run(Decl::Basic(&[parser, store]), |ctx| ctx.trigger(ingest, EventData::new("a b".to_string()))).unwrap();
//! # assert_eq!(words.snapshot(), vec![2]);
//! ```
//!
//! An **external event** (a datagram arrival, an application request, a
//! timeout) spawns a **computation**: the event plus everything it causally
//! triggers. Computations are where concurrency happens — and where the
//! framework steps in.
//!
//! ## 2. Declarative isolation
//!
//! Instead of taking locks, you declare what the computation may touch:
//!
//! ```
//! # use samoa_core::prelude::*;
//! # let mut b = StackBuilder::new();
//! # let parser = b.protocol("Parser");
//! # let store = b.protocol("Store");
//! # let ingest = b.event("Ingest");
//! # b.bind(ingest, parser, "parse", |_, _| Ok(()));
//! # let rt = Runtime::new(b.build());
//! rt.run(Decl::Basic(&[parser, store]), |ctx| {
//!     ctx.trigger(ingest, EventData::new("hello".to_string()))
//! })?;
//! # samoa_core::Result::Ok(())
//! ```
//!
//! The runtime guarantees the **isolation property**: the concurrent
//! execution of all computations is equivalent to *some serial execution*
//! of them. Calling an undeclared microprotocol is an error
//! ([`SamoaError::UndeclaredProtocol`]), not a race.
//!
//! Three algorithm variants trade declaration effort for parallelism:
//!
//! | declaration | you declare | released |
//! |---|---|---|
//! | [`Decl::Basic`] | the set `M` | at completion |
//! | [`Decl::Bound`] | `M` + visit bounds | when a bound is exhausted |
//! | [`Decl::Route`] | a handler-call graph | when unreachable from active handlers |
//!
//! Each is handed to [`Runtime::run`] (blocking) or [`Runtime::spawn`]
//! (detached). Use `Basic` by default. Reach for `Bound`/`Route` when
//! profiling shows computations queueing behind microprotocols their
//! predecessors have finished with — classically, pipelines with
//! asynchronous hand-off (see `examples/pipeline.rs`: bound/route pipeline
//! computations for a ~stages× speedup at identical isolation).
//!
//! ## 3. Verifying isolation
//!
//! Turn on history recording and the runtime will *prove or refute* serial
//! equivalence after the fact:
//!
//! ```
//! # use samoa_core::prelude::*;
//! # let mut b = StackBuilder::new();
//! # let p = b.protocol("P");
//! # let e = b.event("E");
//! # let s = ProtocolState::new(p, 0u64);
//! # { let s = s.clone(); b.bind(e, p, "h", move |ctx, _| { s.with(ctx, |v| *v += 1); Ok(()) }); }
//! let rt = Runtime::with_config(b.build(), RuntimeConfig::recording());
//! # rt.run(Decl::Basic(&[p]), |ctx| ctx.trigger(e, EventData::empty())).unwrap();
//! match rt.check_isolation() {
//!     Ok(order) => println!("equivalent serial order: {order:?}"),
//!     Err(violation) => panic!("{violation}"), // names the precedence cycle
//! }
//! ```
//!
//! [`Runtime::stats`] additionally reports the summed admission-wait time —
//! the direct, measurable cost of isolation.
//!
//! ## 4. Extensions beyond the paper's core
//!
//! Admission has one rule, `lv + k ≥ pv`, for every handler. The paper's §7
//! lists read-only handlers and "several levels of isolation" as future
//! work; the runtime does not implement them. What stays of reads is in the
//! checker: [`ProtocolState::read_with`] records a read, and two reads never
//! conflict in [`Runtime::check_isolation`].
//!
//! ## 5. Static analysis
//!
//! Declarations "could be inferred statically" (paper §4) — and with a
//! little metadata, they are. Declare what each handler triggers (use
//! [`StackBuilder::bind_with_triggers`], or [`StackBuilder::declare_triggers`]
//! after binding; an event triggered in a loop — once per peer, per
//! fragment — with [`StackBuilder::declare_fan_out`]) and
//! [`crate::analysis`] can lint the stack, validate a declaration against
//! the static call graph, and infer minimal declarations for all three
//! isolation algorithms. A host needs nothing more: it names its stack's
//! entry events ([`StackBuilder::entry_events`]), the runtime derives all
//! three for each ([`External::new`] takes a stack and an entry event), and
//! [`Runtime::enter`] runs an arrival under them. Debug builds check every
//! trigger against the handler's declaration.
//!
//! ```
//! use samoa_core::analysis::{infer_bounds, infer_m, infer_route, lint_stack, validate_decl};
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
//! // Infer: the minimal declarations for an Ingest computation.
//! let m = infer_m(&stack, ingest);
//! let (bounds, report) = infer_bounds(&stack, ingest);
//! assert!(report.is_clean()); // acyclic: bounds are exact
//! assert_eq!(bounds, vec![(parser, 1), (store, 1)]);
//! let route = infer_route(&stack, ingest);
//!
//! // Validate: under-declaring is an error, over-declaring a warning.
//! assert!(validate_decl(&stack, &Decl::Basic(&m), Some(ingest)).is_clean());
//! let under = validate_decl(&stack, &Decl::Basic(&[parser]), Some(ingest));
//! assert!(under.has_errors()); // SA010: Store reachable but undeclared
//!
//! // And the inferred declarations run.
//! let rt = Runtime::new(stack);
//! rt.run(Decl::Route(&route), |ctx| ctx.trigger(ingest, EventData::empty())).unwrap();
//! ```
//!
//! Beyond per-declaration checks, a *whole-stack* pass certifies the stack
//! itself:
//! [`ConflictMatrix`](crate::analysis::ConflictMatrix) computes the
//! symmetric may-conflict relation over microprotocols from the footprints
//! of the analyzed root events. Protocols no root reaches (`SA050`) or that
//! never share a footprint with another (`SA051`) are provably-unreachable
//! conflicts: isolation spent there buys nothing. The same matrix exports to
//! `samoa-check` as a `StaticIndependence` relation, where it prunes DPOR
//! backtrack points (§6).
//!
//! | code  | severity | meaning |
//! |-------|----------|---------|
//! | SA050 | warning  | protocol has handlers but no analyzed root reaches it — declared conflicts unreachable |
//! | SA051 | info     | protocol never shares a footprint: conflict-free, isolation on it is wasted |
//!
//! The runtime runs none of these passes but the derivation of each entry
//! event's declaration, once, when it is built
//! ([`External::new`](crate::External::new)); the shipped
//! group-communication stack of `samoa-proto` is certified clean by its
//! test suite, and the `samoa-lint` binary
//! (`cargo run --bin samoa-lint -- --help`) runs the linter and the
//! conflict pass over a whole stack from the command line, with
//! `--format json` for machine-readable output and `--deny warn` to fail CI
//! on warnings; README's "Static analysis" section lists every SA code.
//!
//! ## 6. Schedule exploration
//!
//! Tests only witness the schedules the OS happens to produce; the
//! isolation property is a claim about *all* of them. The `samoa-check`
//! crate makes schedules first-class: a cooperative controller installs
//! itself as the runtime's [`SchedHook`] (every version-cell wait, task
//! dequeue and early release is a controlled decision point), and an
//! `Explorer` drives a scenario through thousands of distinct
//! interleavings — seeded random walks, PCT priority schedules, or
//! exhaustive bounded enumeration — checking each run with the
//! serializability checker of §3:
//!
//! ```
//! use samoa_check::{DiamondScenario, Explorer, ExplorerConfig, Strategy};
//! use samoa_core::Policy;
//!
//! // The Fig. 1 diamond without isolation hides run r3. A pinned-seed
//! // random walk finds it...
//! let buggy = DiamondScenario::new(Policy::Unsync);
//! let cfg = ExplorerConfig::new(500, Strategy::Random { seed: 42 });
//! let witness = Explorer::explore(&buggy, &cfg).violation.expect("finds r3");
//!
//! // ...and the witness (a minimised schedule-choice trace) replays to
//! // the exact same precedence cycle, deterministically.
//! assert_eq!(Explorer::replay(&buggy, &witness), Some(witness.failure.clone()));
//!
//! // The same workload under VCAbasic survives every schedule tried.
//! let fixed = DiamondScenario::new(Policy::Basic);
//! assert!(Explorer::explore(&fixed, &cfg).violation.is_none());
//! ```
//!
//! Exhaustive enumeration drowns in interleavings that only permute
//! *independent* steps. `Strategy::Dpor` prunes them with dynamic
//! partial-order reduction: every yield point announces the
//! [`SchedResource`]s it is about to touch (version cells, queues,
//! locks — handler state reads surface as silent `Version`
//! touches), the controller records each decision's resource footprint,
//! and after every run the search computes a happens-before relation
//! over those footprints. Only *reversible races* — adjacent-in-causality
//! accesses to a common resource by different threads — seed backtrack
//! points; schedules that merely reorder independent steps are never run.
//! Sleep sets remove the remaining redundancy. On the width-3 diamond
//! this explores ~22× fewer schedules than exhaustive enumeration while
//! provably finding the identical violation set (the conformance suite in
//! `crates/check/tests/` pins this for every scenario).
//!
//! The hook costs nothing in production: [`Runtime::new`] leaves it
//! `None`, so every instrumentation site is a never-taken branch.
//! Write your own workloads by implementing `samoa_check::Scenario` —
//! anything schedule-pure (fresh state per run, manual simulated network,
//! no wall-clock) explores and replays deterministically.
//!
//! ## 7. Exploring the fault space of the real stack
//!
//! §6 explores *schedules*; real distributed failures also involve the
//! network deciding to lose, duplicate or reorder a datagram, a site
//! dying, a partition forming. `samoa_check::ClusterScenario` promotes all
//! of those to controller decision points too: it boots a full multi-site
//! proto cluster (the §9 stack, RelComm through membership and KV) on the
//! *manual* simulated network — no delivery thread, every in-flight
//! datagram is a visible choice — and on virtual time, so RelComm
//! retransmission and failure-detector timeouts become injected ticks
//! instead of wall-clock races. At each step the controller picks one
//! enabled move: deliver/drop/duplicate a specific datagram, crash a site,
//! partition or heal the network, or advance time by one tick. Fault moves
//! spend a `FaultBudget` (so the search stays bounded)
//! and carry resource footprints like any other step, which means
//! `Strategy::Dpor` searches the *combined* schedule × fault space with the
//! same happens-before pruning as §6 (this snippet lives downstream of
//! `samoa-core`, so it is shown as text; `examples/fault_explore.rs` is the
//! runnable version):
//!
//! ```text
//! // A 3-site cluster; the budget allows one crash and one drop.
//! let s = ClusterScenario::new(3, StackPolicy::Basic, 7, FaultBudget::crash_and_drop());
//! let sweep = Explorer::sweep(&s, &ExplorerConfig::new(12, Strategy::Dpor));
//! assert!(sweep.failures.is_empty());   // healthy stack survives the space
//!
//! // Plant a real ordering bug (abcast delivers in arrival order) and the
//! // search pins a minimised, deterministically replayable witness.
//! let buggy = s.with_ab_order_bug();
//! let w = Explorer::explore(&buggy, &cfg).violation.expect("caught");
//! assert_eq!(Explorer::replay(&buggy, &w).unwrap(), w.failure);
//! ```
//!
//! Every run checks cluster-level invariants — exactly-once delivery,
//! pairwise prefix agreement on the atomic-broadcast streams, KV replica
//! digest equality — and a violating run shrinks to a `Witness` whose
//! choice trace encodes the faults (crash site 2, drop datagram 17, …)
//! alongside the thread schedule, so "the bug needs a crash between the
//! propose and the decide" becomes a replayable artifact. The substrate is
//! schedule purity: with a fixed decision log the whole cluster — wire
//! traffic included — re-runs byte-identically (a property test in
//! `crates/check/tests/fault_proptest.rs` pins this), which is what lets
//! DPOR restart from prefixes and witnesses survive minimisation. The CI
//! `fault-explore` job runs the bounded sweep twice in release mode and
//! fails on any nondeterminism or on a healthy-stack violation.
//!
//! ## 8. Observing a stack
//!
//! Exploration (§6) is for *testing*; in production you attach a
//! [`TraceSink`] instead. The shipped [`TraceBuffer`] collects structured,
//! timestamped events — spawns, Rule 2 admission waits (with the identity
//! of the blocking computation), handler enter/exit, Rule 4 early
//! releases, completions — into per-thread buffers cheap enough to leave
//! on under load; a runtime built *without* a sink pays exactly one branch
//! per instrumentation site:
//!
//! ```
//! use std::sync::Arc;
//! use samoa_core::prelude::*;
//! use samoa_core::{chrome_trace, ContentionProfile};
//!
//! let mut b = StackBuilder::new();
//! let p = b.protocol("Parser");
//! let e = b.event("Ingest");
//! b.bind(e, p, "parse", |_, _| Ok(()));
//! let stack = b.build();
//!
//! // Attach a sink at construction; run the workload as usual.
//! let buf = TraceBuffer::new();
//! let rt = Runtime::with_trace(stack, RuntimeConfig::default(), buf.clone());
//! for _ in 0..3 {
//!     rt.run(Decl::Basic(&[p]), |ctx| ctx.trigger(e, EventData::empty())).unwrap();
//! }
//! rt.quiesce();
//!
//! // Drain the stream and aggregate it: per-microprotocol admission-wait
//! // percentiles, handler service times, early-release counts.
//! let events = buf.drain();
//! let profile = ContentionProfile::from_events(&events, rt.stack());
//! let parser = profile.protocol("Parser").unwrap();
//! assert_eq!(parser.handler_calls, 3);
//! assert_eq!(parser.waits, 0); // sequential spawns never block
//!
//! // While computations are blocked, `waiters()` names who waits on whom
//! // (`k4 waits on Parser held by k2`); here everything has completed.
//! assert!(rt.waiters().is_empty());
//!
//! // For a timeline, export Chrome trace_event JSON and load it in
//! // chrome://tracing or https://ui.perfetto.dev — one track per
//! // computation, admission waits and handler calls as spans.
//! let json = chrome_trace(&events, rt.stack());
//! assert!(json.contains("traceEvents"));
//! ```
//!
//! A wait edge in [`Runtime::waiters`] always points from a younger
//! computation to a strictly older one — that is the deadlock-freedom
//! invariant of §6 of the paper — so
//! [`WaitForGraph::has_cycle`](crate::WaitForGraph::has_cycle) returning
//! `true` is itself a bug report. `cargo run --release --example
//! samoa_trace` writes a comparative trace of the whole proto stack under
//! each algorithm.
//!
//! ## 9. A replicated service end to end
//!
//! Everything above composes into `samoa-proto`'s replicated key-value
//! store: the paper's §3 group-communication stack (RelComm → RelCast →
//! failure detector → rotating-coordinator consensus → atomic broadcast →
//! membership) with a KV microprotocol on top. Every `put`/`get`/`cas` is
//! abcast-ordered and applied by a deterministic state machine at each
//! site, so replicas stay byte-identical. The network is abstracted behind
//! `samoa_net::Transport`, with two interchangeable backends — the seeded
//! in-process simulator (`SimNet`: delays, loss, crashes, partitions) and
//! real length-prefixed framed TCP sockets (`TcpNet`) — and the *same*
//! node code runs over either (this snippet lives downstream of
//! `samoa-core`, so it is shown as text; `examples/replicated_kv.rs` is
//! the runnable version):
//!
//! ```text
//! let cfg = NodeConfig::with_policy(StackPolicy::Basic);
//! let cluster = TcpCluster::new(3, cfg)?;        // 3 sites on localhost
//! let reply = cluster.node(0)
//!     .kv_put("user:17", "alice")                // totally ordered by abcast
//!     .wait(Duration::from_secs(5));             // resolves at commit
//! assert!(reply.is_some());
//! assert_eq!(cluster.node(1).kv_digest(),        // replicas byte-identical
//!            cluster.node(2).kv_digest());
//! ```
//!
//! Each datagram arrival, client request, and timer tick enters the stack
//! as a computation whose declaration is the configured `StackPolicy` (this
//! very [`Policy`](crate::Policy), mapped by
//! [`Policy::decl`](crate::Policy::decl)) — the paper's
//! `isolated [relComm relCast ...] {trigger FromNet m}` — so the whole
//! distributed service inherits serial-equivalence from the framework with
//! no locks in protocol code. Two production lessons from making this
//! stack survive real sockets at load are baked into the runtime and
//! RelComm and worth knowing about:
//!
//! * **Admission control.** Every computation holds an OS thread while it
//!   runs (§11), so an unbounded socket reader can exhaust threads. A host
//!   therefore starts no computation itself: it hands each external event
//!   to [`Runtime::external`](crate::Runtime::external), which runs what
//!   cannot overlap (`Serial`, `Basic`, `TwoPhase`) on the thread that
//!   brought it — a node never has more computations than entry threads,
//!   and the backlog waits as bytes in the socket buffer — detaches what
//!   can (`Unsync`, `Bound`, `Route`) behind a gate of 64 slots, each held
//!   for the *whole* root job, body plus the asynchronous-trigger drain
//!   phase, and counts the computations nobody joins that ended in an error
//!   ([`RuntimeStats::external_errors`](crate::RuntimeStats)).
//! * **Adaptive retransmission.** A fixed RTO below the loaded RTT turns
//!   load into a retransmit storm (each duplicate costs the receiver a
//!   serialized computation, raising the RTT further). RelComm tracks a
//!   per-peer smoothed RTT (RFC 6298 shape, Karn's rule), backs off
//!   exponentially per message, and retransmits only a head-of-line
//!   window per tick.
//!
//! Experiment E12 (EXPERIMENTS.md) measures the result: client-fleet
//! throughput and p50/p95/p99 commit latency at 3/5/9 sites over both
//! backends, and mid-load coordinator-failover latency over TCP.
//!
//! ## 10. Cluster observability
//!
//! §8's sink observes one runtime; a replicated service needs the *cross-
//! site* picture. `samoa-proto` adds three pieces. Tracing follows §8's
//! pay-nothing-when-off discipline (with no sink installed, every trace site
//! is a single `Option` branch — pinned by the `no_sink_guard` and
//! `no_tracer_guard` test binaries); counts are always kept, at a relaxed
//! atomic add each:
//!
//! * **Causal trace propagation.** Every wire message carries a compact
//!   causal context — originating site, per-site operation id, hop count —
//!   re-emitted into the receiving node's sink on arrival (`CtxSend` /
//!   `CtxRecv`, plus `ClientSubmit`, `AbDeliver`, `KvApply`, `Retransmit`,
//!   `ClusterViewChange` at the protocol layer). Build the cluster with one
//!   shared sink and epoch (`Cluster::new_observed_on`, `Observe`) and a
//!   single KV `put` renders in the Chrome/Perfetto exporter
//!   ([`ChromeTrace`](crate::ChromeTrace)) as one causally-linked arrow
//!   chain across all sites: client submit → wire hops → per-site abcast
//!   delivery → per-site apply, with `cat: "causal"` flow events stitching
//!   the site tracks together.
//! * **A metrics registry.** [`Registry`](crate::Registry) hands out
//!   shared-on-clone counters, gauges, and fixed-size log-bucketed
//!   histograms by name. Each node keeps its per-site instruments whether
//!   or not one is installed; with one, they are named in it
//!   (`site{N}.relcomm.retransmits`, `site{N}.consensus.rounds`,
//!   `site{N}.abcast.lag_us`, `site{N}.kv.apply_latency_us`, ...).
//!   `Cluster::metrics()` / `TcpCluster::metrics()` snapshot the registry
//!   together with the canonical per-site transport counters
//!   (`Transport::stats_named`, the *same names over `SimNet` and
//!   `TcpNet`*) into a `ClusterMetrics` health report with JSON and text
//!   renderings.
//! * **Trace-guided schedule search.** `samoa-check`'s `Strategy::Guided`
//!   drains a scenario's trace buffer between exploration iterations and
//!   re-aims PCT's priority-demotion points at the scheduling steps whose
//!   footprints touch the microprotocol where admission waits concentrate
//!   — contention is evidence of racing access. Placement is arbitrary in
//!   PCT's detection-probability proof, so the bound survives; experiment
//!   E13 pins the payoff (fewer schedules to the §3 view-change race than
//!   uniform placement) and `crates/check/tests/causal_trace.rs` pins
//!   cross-site causal integrity under a controlled schedule.
//!
//! `cargo run -p samoa-proto --example observe_cluster` runs a 3-site
//! observed cluster, writes the Perfetto trace and the health JSON, and
//! self-validates both (CI runs it as the `observe-smoke` job).
//!
//! ## 11. The admission fast path (why lock-free Rule 2 is safe)
//!
//! Admission used to take a mutex per version cell; it is now a single
//! atomic probe. The argument that this is safe is short and worth
//! knowing, because every extension must preserve it:
//!
//! * **Local versions only move up.** A cell's `lv` changes by CAS bumps
//!   (Rule 4(a)), `fetch_max` raises (Rule 3, Rule 4(b)), and nothing
//!   else. Concurrent raises linearize trivially — `fetch_max` commutes.
//! * **Admission predicates are monotone in `lv`.** Every Rule-2 check has
//!   the shape `lv + k >= pv` (`k = 1` for VCAbasic/VCAroute, the bound
//!   for VCAbound). A predicate that is true stays
//!   true forever: private versions `pv` were fixed at spawn by the gv CAS
//!   sweep, and `lv` never decreases. So an unlocked load that observes
//!   the predicate true *is* the admission — there is nothing to
//!   re-validate and no ABA window, which is exactly why the mutex was
//!   never load-bearing.
//! * **The parking seam is a Dekker handshake, written once.** A waiter
//!   that must block publishes itself (waiter count, `SeqCst`), re-checks
//!   the predicate, and only then parks; a completer raises `lv` first and
//!   checks the waiter count after (`SeqCst` again). Whatever the
//!   interleaving, one side sees the other: either the waiter's re-check
//!   sees the new `lv`, or the completer sees the waiter and notifies. No
//!   lost wakeups. The protocol — try, a probe of 64 spins and 32 yields
//!   (counts, no clock: a holder still holding after them is asleep), park,
//!   waiter-gated wake — is one private type in `version.rs`, whose module
//!   docs carry the full argument; version cells, the 2PL lock slots and
//!   the `quiesce` gate are three instances of it, and every wait on them
//!   enters through one runtime routine that also owns the free-running
//!   vs. [`SchedHook`](crate::sched::SchedHook) fork and the accounting
//!   below. The seam's unit tests and
//!   `crates/core/tests/version_proptest.rs` race it explicitly.
//! * **Parking happens only on actual conflict.** An unsatisfied waiter
//!   probes through 64 busy spins and then 32 yields before touching the
//!   park mutex. All blocked-time surfaces —
//!   [`RuntimeStats::admission_wait`](crate::runtime::RuntimeStats),
//!   trace `WaitBegin`/`WaitEnd` spans, the [`Runtime::waiters`] wait-for
//!   graph — share one *parked-only* definition: a probing waiter is
//!   runnable, not descheduled, and records nothing. (Corollary: a waiter
//!   headed for a real park appears in the wait-for graph at most 64 spins
//!   and 32 yields late; deadlock detection is delayed, never wrong.)
//!
//! Rule 4(b)'s route releases ride the same machinery: `VCAroute` patterns
//! compile once into an immutable reachability closure (bitsets over the
//! pattern's vertices), each release is a `fetch_max` raise of the freed
//! protocol's cell, and the wake path is the handshake above. Experiment
//! E14 pins the result — uncontended admission within noise of `unsync`,
//! parking-seam counters identically zero.
//!
//! ### Where computations get their threads
//!
//! A waiter that parks in Rule 2 parks *on an OS thread*, and the
//! deadlock-freedom argument (paper §6) needs exactly one thing from the
//! threading layer: every computation holds a thread of its own from spawn
//! to Rule 3, so that the oldest computation — which waits on nobody — is
//! always running. It does not need that thread to be new, nor to be the
//! runtime's: the blocking [`Runtime::run`](crate::Runtime::run) uses the
//! caller's, which is how the hosted stacks run every external event that
//! cannot overlap another (§9, "Admission control") — an entry thread
//! waits only on older computations, which own theirs, and nothing inside a
//! computation waits on an entry point (its code cannot start a
//! computation: [`crate::ctx`]). [`Runtime::spawn`]
//! and the per-computation helper workers take their threads from
//! one process-wide **cache with direct hand-off and no run queue**: a job
//! goes to the most recently parked idle worker (at most one wake, on that
//! worker's own slot, and none while the worker has a wake coming that it
//! has not answered), a new `samoa-worker` thread is created only when none is
//! idle, a finished worker parks itself in the cache, and idle workers exit
//! after a fraction of a second. A job therefore starts no later than it
//! would on a fresh thread, and nothing about parking or sleeping
//! handlers changes; only the ~20 µs of thread creation per
//! computation is gone.
//!
//! A detached root runs on the worker it was handed to, or on the thread
//! that calls [`CompHandle::join`](crate::CompHandle::join) if that gets
//! there first: `join` takes back a hand-off no worker has picked up yet and
//! runs the root itself — `isolated M e` evaluated by the thread that
//! reaches it, as with `run`. The argument is unchanged (it is written once,
//! in `exec.rs`): the joiner would have blocked until exactly this
//! computation completed. Under a [`SchedHook`](crate::sched::SchedHook) the
//! root always runs on its worker, the thread the hook was told of.
//!
//! A *bounded* pool with a queue would be a different design, not a tuning
//! of this one: with every worker parked on computation `k`, `k`'s own job
//! could sit in the queue behind them — a deadlock the versioning rules
//! cannot see. It needs computations that give their thread back while
//! they wait (continuations at the admission seam), plus a bound and an
//! overload policy at ingress. Running a computation that cannot overlap
//! on its entry thread gets the bound without the queue: the thread that
//! would have produced the next job is busy running this one.
//!
//! ### Effects that leave the computation
//!
//! A computation is atomic to the outside until Rule 3 — and a handler that
//! tells a thread outside about it *from inside* breaks that in the one way
//! the versioning rules cannot see. Wake a client in the handler that
//! applied its command, and the client may be back with its next request
//! while this computation still holds every version that request declares:
//! Rule 1 hands it versions behind the computation that woke it, and it
//! spins, yields and hands the processor back — two context switches per
//! operation, every operation, with `admission_wait` reading zero because
//! nobody ever parks. *When* the outside is told is the framework's
//! business, so handlers queue what leaves:
//!
//! ```
//! use samoa_core::prelude::*;
//! use std::sync::mpsc;
//!
//! let mut b = StackBuilder::new();
//! let store = b.protocol("Store");
//! let put = b.event("Put");
//! let (reply, replies) = mpsc::channel();
//! let value = ProtocolState::new(store, 0u64);
//! {
//!     let value = value.clone();
//!     b.bind(put, store, "apply", move |ctx, ev| {
//!         let v = *ev.expect::<u64>(put)?;
//!         let previous = value.with(ctx, |cur| std::mem::replace(cur, v));
//!         // Not `reply.send(previous)` here: the computation still holds Store.
//!         let reply = reply.clone();
//!         ctx.after_completion(move || reply.send(previous).unwrap());
//!         Ok(())
//!     });
//! }
//! let rt = Runtime::new(b.build());
//! let pending = rt.spawn(Decl::Basic(&[store]), move |ctx| ctx.trigger(put, 7u64));
//! // Whoever the reply wakes finds Store released (Rule 3 came first)...
//! assert_eq!(replies.recv().unwrap(), 0);
//! assert_eq!(rt.local_version(store), 1);
//! // ...and `join`, `run` and `quiesce` return only after the reply is out.
//! pending.join().unwrap();
//! ```
//!
//! [`Ctx::after_completion`] effects run exactly once, in the order queued,
//! on the thread that completes the computation: after the Rule-3 raises (or
//! the 2PL unlocks), before anyone waiting for the computation is let go.
//! They run whether or not the computation recorded an error — what the
//! handler did to its state stands — and a panic in one is contained and
//! reported like a handler panic. A computation that queues nothing
//! allocates nothing and pays one emptiness check. The replicated KV's
//! replies (§9) leave this way.
//!
//! ## 12. Pitfalls
//!
//! * **Don't trigger while holding state.** Keep
//!   [`ProtocolState::with`] closures short; compute what to send, end the
//!   closure, then trigger. (Re-entrant `with` on the same protocol from
//!   the same thread panics on the inner borrow.)
//! * **A computation cannot start another while it runs.** [`Runtime::run`],
//!   [`Runtime::spawn`] or a host's external API called from a handler (or
//!   a closure body, or a [`Ctx::spawn`] closure) fails with
//!   [`SamoaError::NestedSpawn`] and starts nothing — run blocking, the
//!   inner computation would wait for the outer's versions while the outer
//!   waits for it. A computation one causes starts from
//!   [`Ctx::after_completion`], once its cause has completed, and so
//!   serialises after it.
//! * **Isolation is inter-computation.** Threads of one computation
//!   ([`Ctx::spawn`], async triggers with `max_threads_per_computation > 1`)
//!   synchronise only through per-microprotocol state atomicity; order them
//!   yourself if their order matters. Setting
//!   [`RuntimeConfig::max_threads_per_computation`] to 1 keeps a
//!   computation's asynchronous events FIFO.
//! * **Don't wake the outside from inside a handler.** A reply, a
//!   completed future, a condvar notify sent mid-computation invites the
//!   woken thread to collide with the computation that woke it; queue it
//!   with [`Ctx::after_completion`] (§11, "Effects that leave the
//!   computation").
//! * **Declarations are commitments.** Under-declare and you get a runtime
//!   error; over-declare and you serialise more than necessary. Declare
//!   what each handler triggers, name the entry events, and let
//!   [`External::new`] derive what an event's cascade can reach; a class of
//!   traffic you can tell apart at the door is an entry event of its own, so
//!   it declares less.
//!
//! [`SamoaError::UndeclaredProtocol`]: crate::error::SamoaError::UndeclaredProtocol
//! [`TraceSink`]: crate::trace::TraceSink
//! [`TraceBuffer`]: crate::trace::TraceBuffer
//! [`Runtime::waiters`]: crate::runtime::Runtime::waiters
//! [`Runtime::with_trace`]: crate::runtime::Runtime::with_trace
//! [`SamoaError::NestedSpawn`]: crate::error::SamoaError::NestedSpawn
//! [`SchedResource`]: crate::sched::SchedResource
//! [`SchedHook`]: crate::sched::SchedHook
//! [`Runtime::new`]: crate::runtime::Runtime::new
//! [`Runtime::run`]: crate::runtime::Runtime::run
//! [`Runtime::check_isolation`]: crate::runtime::Runtime::check_isolation
//! [`Decl::Basic`]: crate::runtime::Decl::Basic
//! [`Decl::Bound`]: crate::runtime::Decl::Bound
//! [`Decl::Route`]: crate::runtime::Decl::Route
//! [`Runtime::spawn`]: crate::runtime::Runtime::spawn
//! [`Runtime::stats`]: crate::runtime::Runtime::stats
//! [`RuntimeConfig::max_threads_per_computation`]: crate::runtime::RuntimeConfig::max_threads_per_computation
//! [`StackBuilder::bind_with_triggers`]: crate::stack::StackBuilder::bind_with_triggers
//! [`StackBuilder::declare_triggers`]: crate::stack::StackBuilder::declare_triggers
//! [`StackBuilder::declare_fan_out`]: crate::stack::StackBuilder::declare_fan_out
//! [`StackBuilder::entry_events`]: crate::stack::StackBuilder::entry_events
//! [`Runtime::enter`]: crate::runtime::Runtime::enter
//! [`External::new`]: crate::external::External::new
//! [`ProtocolState::with`]: crate::protocol::ProtocolState::with
//! [`Ctx::spawn`]: crate::ctx::Ctx::spawn
//! [`Ctx::after_completion`]: crate::ctx::Ctx::after_completion
//! [`ProtocolState::read_with`]: crate::protocol::ProtocolState::read_with
