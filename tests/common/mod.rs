//! Fixtures shared by `tests/experiment_shapes.rs`, `tests/trace.rs` and
//! `examples/samoa_trace.rs` (which mounts this file with `#[path]`):
//! synthetic flat and pipeline stacks with their drivers, and the two
//! group-communication runs behind the E2 and E5 shape tests.
//!
//! Not every user calls every fixture.
#![allow(dead_code)]

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use samoa::prelude::*;
use samoa::proto::Observe;

/// I/O-style handler work: sleep for `work` (models the paper's "slow I/O
/// operations in background", motivation #1).
fn io_work(work: Duration) {
    if !work.is_zero() {
        std::thread::sleep(work);
    }
}

/// Total visits across a stack's counters (workload sanity check).
pub fn total_visits(counters: &[ProtocolState<u64>]) -> u64 {
    counters.iter().map(|c| c.read(|v| *v)).sum()
}

// ---- flat stack: n independent microprotocols ----------------------------

/// A flat stack of `n` independent microprotocols; protocol `i`'s handler
/// burns the configured work and bumps a counter.
pub struct FlatStack {
    /// The runtime.
    pub rt: Runtime,
    /// One microprotocol per slot.
    pub protocols: Vec<ProtocolId>,
    /// Event `i` triggers protocol `i`'s handler.
    pub events: Vec<EventType>,
    /// Protocol `i`'s handler (the one-node routing pattern of a visit).
    pub handlers: Vec<HandlerId>,
    /// Visit counters.
    pub counters: Vec<ProtocolState<u64>>,
}

/// Build a flat stack whose handlers sleep `work` per visit.
pub fn flat_stack(n: usize, work: Duration) -> FlatStack {
    let mut b = StackBuilder::new();
    let mut protocols = Vec::new();
    let mut events = Vec::new();
    let mut handlers = Vec::new();
    let mut counters = Vec::new();
    for i in 0..n {
        let p = b.protocol(&format!("P{i}"));
        let e = b.event(&format!("E{i}"));
        let c = ProtocolState::new(p, 0u64);
        {
            let c = c.clone();
            handlers.push(b.bind(e, p, &format!("h{i}"), move |ctx, _| {
                io_work(work);
                c.with(ctx, |v| *v += 1);
                Ok(())
            }));
        }
        protocols.push(p);
        events.push(e);
        counters.push(c);
    }
    FlatStack {
        rt: Runtime::new(b.build()),
        protocols,
        events,
        handlers,
        counters,
    }
}

/// A seeded zero-hot-spot workload: the slot each of `n_comps`
/// computations visits (once), drawn uniformly from `n_protocols`.
pub fn flat_workload(n_protocols: usize, n_comps: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_comps)
        .map(|_| rng.gen_range(0..n_protocols))
        .collect()
}

/// Run a flat workload under `policy`, its computations dealt round-robin
/// to `injectors` spawner threads; returns the wall-clock time from first
/// spawn to full quiescence.
pub fn run_flat(stack: &FlatStack, visits: &[usize], policy: Policy, injectors: usize) -> Duration {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for first in 0..injectors {
            scope.spawn(move || {
                for &slot in visits.iter().skip(first).step_by(injectors) {
                    let protocols = [stack.protocols[slot]];
                    let bounds = [(stack.protocols[slot], 1)];
                    let route = RoutePattern::new().root(stack.handlers[slot]);
                    let event = stack.events[slot];
                    stack
                        .rt
                        .spawn(policy.decl(&protocols, &bounds, &route), move |ctx| {
                            ctx.trigger(event, EventData::empty())
                        });
                }
            });
        }
    });
    stack.rt.quiesce();
    start.elapsed()
}

// ---- pipeline stack: a chain of stages -----------------------------------

/// A pipeline stack: stage `i`'s handler burns work and *asynchronously*
/// triggers stage `i + 1` (asynchronous hand-off is what lets `VCAbound`
/// and `VCAroute` release a finished stage early; a synchronous chain keeps
/// the first stage's handler on the stack until the whole chain finishes,
/// making early release impossible by construction).
pub struct PipelineStack {
    /// The runtime.
    pub rt: Runtime,
    /// One microprotocol per stage.
    pub protocols: Vec<ProtocolId>,
    /// The entry event (stage 0).
    pub entry: EventType,
    /// Handler ids, stage order (for routing patterns).
    pub handlers: Vec<HandlerId>,
    /// Per-stage visit counters.
    pub counters: Vec<ProtocolState<u64>>,
}

/// Build a pipeline of `stages` stages sleeping `work` per stage. With a
/// `sink`, every run through the returned stack records admission waits,
/// handler service times and early releases for
/// `samoa_check::ContentionProfile` aggregation.
pub fn pipeline_stack(
    stages: usize,
    work: Duration,
    sink: Option<Arc<dyn TraceSink>>,
) -> PipelineStack {
    let mut b = StackBuilder::new();
    let protocols: Vec<ProtocolId> = (0..stages).map(|i| b.protocol(&format!("S{i}"))).collect();
    let events: Vec<EventType> = (0..stages).map(|i| b.event(&format!("Stage{i}"))).collect();
    let counters: Vec<ProtocolState<u64>> = protocols
        .iter()
        .map(|&p| ProtocolState::new(p, 0u64))
        .collect();
    let mut handlers = Vec::new();
    for i in 0..stages {
        let c = counters[i].clone();
        let next = events.get(i + 1).copied();
        handlers.push(b.bind(
            events[i],
            protocols[i],
            &format!("stage{i}"),
            move |ctx, ev| {
                io_work(work);
                c.with(ctx, |v| *v += 1);
                if let Some(next) = next {
                    ctx.async_trigger(next, ev.clone())?;
                }
                Ok(())
            },
        ));
    }
    let stack = b.build();
    let rt = match sink {
        Some(s) => Runtime::with_trace(stack, RuntimeConfig::default(), s),
        None => Runtime::new(stack),
    };
    PipelineStack {
        rt,
        protocols,
        entry: events[0],
        handlers,
        counters,
    }
}

impl PipelineStack {
    /// The chain routing pattern (stage0 as root).
    pub fn route_pattern(&self) -> RoutePattern {
        let mut pat = RoutePattern::new().root(self.handlers[0]);
        for w in self.handlers.windows(2) {
            pat = pat.edge(w[0], w[1]);
        }
        pat
    }
}

/// Run `n_comps` computations through a pipeline under `policy`, split
/// over `injectors` spawner threads that each wait `stagger` between their
/// spawns; returns at full quiescence.
///
/// One injector with `work < stagger < stages × work` is exactly the
/// schedule where Rule 4 pays: `VCAbasic` holds every stage until Rule 3
/// completion so the next computation blocks at stage 0, while
/// `VCAbound`/`VCAroute` released stage 0 long before the next spawn
/// arrives.
pub fn run_pipeline(
    stack: &PipelineStack,
    n_comps: usize,
    policy: Policy,
    injectors: usize,
    stagger: Duration,
) {
    let bounds: Vec<(ProtocolId, u64)> = stack.protocols.iter().map(|&p| (p, 1)).collect();
    let pattern = stack.route_pattern();
    let decl = policy.decl(&stack.protocols, &bounds, &pattern);
    let entry = stack.entry;
    std::thread::scope(|scope| {
        for i in 0..injectors {
            let decl = &decl;
            scope.spawn(move || {
                let count = n_comps / injectors + usize::from(i < n_comps % injectors);
                for k in 0..count {
                    if k > 0 {
                        io_work(stagger);
                    }
                    stack.rt.spawn(decl.clone(), move |ctx| {
                        ctx.trigger(entry, EventData::empty())
                    });
                }
            });
        }
    });
    stack.rt.quiesce();
}

// ---- group-communication runs (E2, E5) -----------------------------------

/// Outcome of one atomic-broadcast run.
#[derive(Debug, Clone)]
pub struct AbcastOutcome {
    /// Wall-clock time from the first request to full quiescence.
    pub wall: Duration,
    /// Messages delivered at site 0.
    pub delivered: usize,
    /// Did all sites deliver the identical sequence?
    pub agreement: bool,
}

/// E2: broadcast `msgs` messages round-robin from `sites` sites under
/// `policy`; measure wall time to deliver and check agreement.
pub fn abcast_run(sites: usize, msgs: usize, policy: StackPolicy, seed: u64) -> AbcastOutcome {
    let c = Cluster::new(
        sites,
        NetConfig::fast(seed),
        NodeConfig::with_policy(policy),
    );
    let start = Instant::now();
    for i in 0..msgs {
        c.node(i % sites).abcast(Bytes::from(format!("m{i}")));
    }
    c.settle();
    let wall = start.elapsed();
    let order0 = c.node(0).ab_delivered();
    AbcastOutcome {
        wall,
        delivered: order0.len(),
        agreement: (1..sites).all(|i| c.node(i).ab_delivered() == order0),
    }
}

/// E5's race-window widener: a trace sink that holds RelComm's
/// `view_change` handler for 2 ms as it enters, so that RelComm is still on
/// the old view while the layers above have installed the new one — the
/// slow view installation of the paper's motivation. The handler's id is
/// set once the stack is built.
#[derive(Default)]
pub struct SlowViewChange(OnceLock<HandlerId>);

impl SlowViewChange {
    /// Hold `relcomm.view_change` of the cluster's stack from now on.
    pub fn watch(&self, c: &Cluster) {
        let stack = c.node(0).runtime().stack();
        let handler = stack.handler_by_name("relcomm.view_change");
        let _ = self
            .0
            .set(handler.expect("RelComm has a view_change handler"));
    }
}

impl TraceSink for SlowViewChange {
    fn event(&self, ev: TraceEvent) {
        if let TraceKind::HandlerEnter { handler, .. } = ev.kind {
            if self.0.get() == Some(&handler) {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

/// E5: a site joins while `bursts` rounds of broadcasts stream from the
/// three original members; a [`SlowViewChange`] widens the race window
/// exactly as the paper's motivation (slow view installation) describes.
/// Returns the cluster's *stale discards*: RelComm sends dropped because
/// the target was outside its view — 0 under an isolating policy; under
/// `Unsync` it counts occurrences of the paper's §3 race.
pub fn view_race_run(policy: StackPolicy, seed: u64, bursts: usize) -> u64 {
    let mut cfg = NodeConfig::with_policy(policy);
    cfg.initial_members = Some(vec![SiteId(0), SiteId(1), SiteId(2)]);
    let slow = Arc::new(SlowViewChange::default());
    let observe = Observe::traced(Arc::clone(&slow) as Arc<dyn TraceSink>);
    let c = Cluster::new_observed_on(SimNet::new(4, NetConfig::fast(seed)), cfg, None, observe);
    slow.watch(&c);

    // The join churns through atomic broadcast while user broadcasts
    // stream from all three original members.
    c.node(0).request_join(SiteId(3));
    for round in 0..bursts {
        for i in 0..3 {
            c.node(i).rbcast(Bytes::from(format!("r{round}-s{i}")));
        }
        // A short stagger keeps broadcasts overlapping the view change.
        std::thread::sleep(Duration::from_micros(500));
    }
    c.settle();
    (0..4).map(|i| c.node(i).relcomm_discards()).sum()
}
