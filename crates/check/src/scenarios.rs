//! Ready-made exploration scenarios: the paper's Figure 1 diamond stack,
//! the §3 view-change race, and the transport sliding window.
//!
//! A [`Scenario`] builds a fresh hooked runtime, runs a fixed workload under
//! the controller's schedule, and reports the recorded [`History`] plus any
//! violated scenario-specific invariant. Scenarios must be *schedule-pure*:
//! everything observable has to be a function of the controller's choice
//! sequence (fresh state per run, seeded simulated networks in manual mode,
//! no wall-clock timers), or witnesses will not replay.

use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use samoa_core::analysis::ConflictMatrix;
use samoa_core::prelude::*;
use samoa_core::{History, SchedHook};
use samoa_net::{NetConfig, ProtoClock, SimNet, SiteId};
use samoa_transport::{Endpoint, TransportConfig};

use crate::independence::StaticIndependence;

/// Build the [`StaticIndependence`] relation of a stack *shape*: run the
/// conflict analysis with the given roots and export the matrix. Scenario
/// shapes must register protocols in the same order as their `run` stacks,
/// so the raw indices in [`SchedResource`](samoa_core::sched::SchedResource)
/// seeds line up.
fn relation_of(stack: &Stack, roots: &[EventType]) -> StaticIndependence {
    let (m, _) = ConflictMatrix::analyze(stack, roots);
    StaticIndependence::from_matrix(&m)
}

/// What one controlled run of a scenario produced.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// The recorded run and state accesses, ready for
    /// [`History::check_isolation`].
    pub history: History,
    /// A violated scenario-specific invariant, if any (isolation is checked
    /// separately by the explorer).
    pub invariant_violation: Option<String>,
}

/// A workload the explorer can run under many schedules.
pub trait Scenario {
    /// Stable name, recorded in witnesses.
    fn name(&self) -> String;

    /// Run the workload once under `hook`'s schedule and report.
    ///
    /// Called from the controller's main thread (thread 0, holding the
    /// turn); must quiesce all spawned computations before returning.
    fn run(&self, hook: Arc<dyn SchedHook>) -> RunReport;

    /// The scenario stack's [`StaticIndependence`] relation, derived from
    /// its conflict matrix, for DPOR pruning
    /// ([`DporSearch::with_independence`]). `None` (the default) runs
    /// classic DPOR. Implementations must keep the analyzed stack's
    /// protocol order identical to the stack `run` builds, so raw protocol
    /// indices agree.
    ///
    /// [`DporSearch::with_independence`]: crate::dpor::DporSearch::with_independence
    fn static_independence(&self) -> Option<StaticIndependence> {
        None
    }

    /// The trace buffer this scenario's runtime emits into, when it runs
    /// traced. [`Strategy::Guided`](crate::explorer::Strategy::Guided)
    /// drains it between schedules and steers PCT change points toward the
    /// microprotocols where the drained events concentrate; the default
    /// (`None`) leaves guided search running as plain PCT.
    fn trace_buffer(&self) -> Option<Arc<samoa_core::TraceBuffer>> {
        None
    }
}

/// Spawn one computation that triggers `ev` under `policy`, declaring one
/// visit to each of `protocols`, along `route`.
fn spawn_once(
    rt: &Runtime,
    policy: Policy,
    ev: EventType,
    protocols: &[ProtocolId],
    route: &RoutePattern,
) -> CompHandle {
    let bounds: Vec<(ProtocolId, u64)> = protocols.iter().map(|&p| (p, 1)).collect();
    rt.spawn(policy.decl(protocols, &bounds, route), move |ctx| {
        ctx.trigger(ev, EventData::empty())
    })
}

/// The Figure 1 diamond: handlers P, Q, R, S; computation `ka` routes
/// P → R → S, `kb` routes Q → R → S; R and S record writer order.
///
/// Under [`Policy::Unsync`] the explorer can drive the execution
/// into the paper's run `r3` (`ka` before `kb` on R, `kb` before `ka` on S)
/// — a precedence cycle. Under any isolating policy no schedule produces a
/// violation.
pub struct DiamondScenario {
    policy: Policy,
    width: usize,
}

impl DiamondScenario {
    /// The paper's two-computation diamond under `policy`.
    pub fn new(policy: Policy) -> DiamondScenario {
        DiamondScenario::sized(policy, 2)
    }

    /// A diamond with `width` concurrent computations, alternating the
    /// `a0` (via P) and `b0` (via Q) roots. The schedule space grows
    /// exponentially in `width`, which is what makes it the reduction
    /// benchmark: at `width ≥ 3` exhaustive enumeration runs tens of
    /// thousands of schedules where DPOR needs a fraction of them.
    pub fn sized(policy: Policy, width: usize) -> DiamondScenario {
        assert!(width >= 1, "diamond needs at least one computation");
        DiamondScenario { policy, width }
    }

    /// The diamond stack's *shape* — same protocol/event registration
    /// order as [`Scenario::run`]'s stack, noop handlers — plus its root
    /// events, for static analysis.
    fn shape() -> (Stack, [EventType; 2]) {
        let mut b = StackBuilder::new();
        let p = b.protocol("P");
        let q = b.protocol("Q");
        let r = b.protocol("R");
        let s = b.protocol("S");
        let a0 = b.event("a0");
        let b0 = b.event("b0");
        let to_r = b.event("r");
        let to_s = b.event("s");
        b.bind_with_triggers(a0, p, "P", &[to_r], |_, _| Ok(()));
        b.bind_with_triggers(b0, q, "Q", &[to_r], |_, _| Ok(()));
        b.bind_with_triggers(to_r, r, "R", &[to_s], |_, _| Ok(()));
        b.bind_with_triggers(to_s, s, "S", &[], |_, _| Ok(()));
        (b.build(), [a0, b0])
    }
}

impl Scenario for DiamondScenario {
    fn name(&self) -> String {
        format!("diamond/{}", self.policy)
    }

    fn run(&self, hook: Arc<dyn SchedHook>) -> RunReport {
        let mut b = StackBuilder::new();
        let p = b.protocol("P");
        let q = b.protocol("Q");
        let r = b.protocol("R");
        let s = b.protocol("S");
        let a0 = b.event("a0");
        let b0 = b.event("b0");
        let to_r = b.event("r");
        let to_s = b.event("s");
        let r_trace = ProtocolState::new(r, Vec::<u64>::new());
        let s_trace = ProtocolState::new(s, Vec::<u64>::new());

        let h_p = b.bind_with_triggers(a0, p, "P", &[to_r], move |ctx, ev| {
            ctx.trigger(to_r, ev.clone())
        });
        let h_q = b.bind_with_triggers(b0, q, "Q", &[to_r], move |ctx, ev| {
            ctx.trigger(to_r, ev.clone())
        });
        let h_r = {
            let tr = r_trace.clone();
            b.bind_with_triggers(to_r, r, "R", &[to_s], move |ctx, ev| {
                tr.with(ctx, |t| t.push(ctx.comp_id()));
                ctx.trigger(to_s, ev.clone())
            })
        };
        let h_s = {
            let ts = s_trace.clone();
            b.bind_with_triggers(to_s, s, "S", &[], move |ctx, _| {
                ts.with(ctx, |t| t.push(ctx.comp_id()));
                Ok(())
            })
        };

        let rt = Runtime::with_parts(b.build(), RuntimeConfig::recording(), Some(hook), None);
        let a_pat = RoutePattern::new().root(h_p).edge(h_p, h_r).edge(h_r, h_s);
        let b_pat = RoutePattern::new().root(h_q).edge(h_q, h_r).edge(h_r, h_s);
        for i in 0..self.width {
            if i % 2 == 0 {
                spawn_once(&rt, self.policy, a0, &[p, r, s], &a_pat);
            } else {
                spawn_once(&rt, self.policy, b0, &[q, r, s], &b_pat);
            }
        }
        rt.quiesce();

        RunReport {
            history: rt.history(),
            invariant_violation: None,
        }
    }

    fn static_independence(&self) -> Option<StaticIndependence> {
        let (stack, roots) = DiamondScenario::shape();
        Some(relation_of(&stack, &roots))
    }
}

/// Two statically disjoint clusters sharing one runtime: the Figure 1
/// diamond (P, Q, R, S; computations `ka` via P and `kb` via Q) next to an
/// independent two-protocol chain (X → Y; computation `kc`).
///
/// The conflict matrix proves every diamond protocol independent of the
/// chain, so a DPOR search armed with the scenario's
/// [`StaticIndependence`] relation never seeds backtrack points that
/// merely reorder `kc` against the diamond: the chain multiplies the
/// exhaustive schedule space but (mostly) not the reduced one. Under
/// [`Policy::Unsync`] the diamond still hides the paper's run
/// `r3`; the chain itself is race-free under every policy.
pub struct DisjointClustersScenario {
    policy: Policy,
}

impl DisjointClustersScenario {
    /// The diamond-plus-chain workload under `policy`.
    pub fn new(policy: Policy) -> DisjointClustersScenario {
        DisjointClustersScenario { policy }
    }

    /// The stack *shape* (registration order matches [`Scenario::run`]'s
    /// stack) plus the three root events, for static analysis.
    fn shape() -> (Stack, [EventType; 3]) {
        let mut b = StackBuilder::new();
        let p = b.protocol("P");
        let q = b.protocol("Q");
        let r = b.protocol("R");
        let s = b.protocol("S");
        let x = b.protocol("X");
        let y = b.protocol("Y");
        let a0 = b.event("a0");
        let b0 = b.event("b0");
        let to_r = b.event("r");
        let to_s = b.event("s");
        let x0 = b.event("x0");
        let to_y = b.event("y");
        b.bind_with_triggers(a0, p, "P", &[to_r], |_, _| Ok(()));
        b.bind_with_triggers(b0, q, "Q", &[to_r], |_, _| Ok(()));
        b.bind_with_triggers(to_r, r, "R", &[to_s], |_, _| Ok(()));
        b.bind_with_triggers(to_s, s, "S", &[], |_, _| Ok(()));
        b.bind_with_triggers(x0, x, "X", &[to_y], |_, _| Ok(()));
        b.bind_with_triggers(to_y, y, "Y", &[], |_, _| Ok(()));
        (b.build(), [a0, b0, x0])
    }
}

impl Scenario for DisjointClustersScenario {
    fn name(&self) -> String {
        format!("disjoint-clusters/{}", self.policy)
    }

    fn run(&self, hook: Arc<dyn SchedHook>) -> RunReport {
        let mut b = StackBuilder::new();
        let p = b.protocol("P");
        let q = b.protocol("Q");
        let r = b.protocol("R");
        let s = b.protocol("S");
        let x = b.protocol("X");
        let y = b.protocol("Y");
        let a0 = b.event("a0");
        let b0 = b.event("b0");
        let to_r = b.event("r");
        let to_s = b.event("s");
        let x0 = b.event("x0");
        let to_y = b.event("y");
        let r_trace = ProtocolState::new(r, Vec::<u64>::new());
        let s_trace = ProtocolState::new(s, Vec::<u64>::new());
        let x_count = ProtocolState::new(x, 0u64);
        let y_count = ProtocolState::new(y, 0u64);

        let h_p = b.bind_with_triggers(a0, p, "P", &[to_r], move |ctx, ev| {
            ctx.trigger(to_r, ev.clone())
        });
        let h_q = b.bind_with_triggers(b0, q, "Q", &[to_r], move |ctx, ev| {
            ctx.trigger(to_r, ev.clone())
        });
        let h_r = {
            let tr = r_trace.clone();
            b.bind_with_triggers(to_r, r, "R", &[to_s], move |ctx, ev| {
                tr.with(ctx, |t| t.push(ctx.comp_id()));
                ctx.trigger(to_s, ev.clone())
            })
        };
        let h_s = {
            let ts = s_trace.clone();
            b.bind_with_triggers(to_s, s, "S", &[], move |ctx, _| {
                ts.with(ctx, |t| t.push(ctx.comp_id()));
                Ok(())
            })
        };
        let h_x = {
            let xc = x_count.clone();
            b.bind_with_triggers(x0, x, "X", &[to_y], move |ctx, _| {
                xc.with(ctx, |c| *c += 1);
                ctx.trigger(to_y, EventData::empty())
            })
        };
        let h_y = {
            let yc = y_count.clone();
            b.bind_with_triggers(to_y, y, "Y", &[], move |ctx, _| {
                yc.with(ctx, |c| *c += 1);
                Ok(())
            })
        };

        let rt = Runtime::with_parts(b.build(), RuntimeConfig::recording(), Some(hook), None);
        let a_pat = RoutePattern::new().root(h_p).edge(h_p, h_r).edge(h_r, h_s);
        let b_pat = RoutePattern::new().root(h_q).edge(h_q, h_r).edge(h_r, h_s);
        let c_pat = RoutePattern::new().root(h_x).edge(h_x, h_y);
        spawn_once(&rt, self.policy, a0, &[p, r, s], &a_pat);
        spawn_once(&rt, self.policy, b0, &[q, r, s], &b_pat);
        spawn_once(&rt, self.policy, x0, &[x, y], &c_pat);
        rt.quiesce();

        let chain_ok = x_count.snapshot() == 1 && y_count.snapshot() == 1;
        RunReport {
            history: rt.history(),
            invariant_violation: (!chain_ok).then(|| "chain cluster lost a write".to_string()),
        }
    }

    fn static_independence(&self) -> Option<StaticIndependence> {
        let (stack, roots) = DisjointClustersScenario::shape();
        Some(relation_of(&stack, &roots))
    }
}

/// The §3 view-change race over a manual [`SimNet`]: a broadcast
/// computation reads the current view, then stamps the channel epoch into
/// the outgoing message, while a concurrent view-change computation
/// increments both. Consistency requires every message on the wire to carry
/// `view == epoch`; without isolation the broadcast can read the old view
/// and the *new* epoch.
///
/// Delivery is folded into the controlled schedule: the manual network is
/// pumped from the scenario's own (controlled) thread, so the whole run —
/// including what site 1 receives — is a pure function of the choice
/// sequence and the network seed.
pub struct ViewChangeScenario {
    policy: Policy,
    net_seed: u64,
    trace: Option<Arc<TraceBuffer>>,
}

impl ViewChangeScenario {
    /// A view-change race under `policy`, network delays drawn from
    /// `net_seed`.
    pub fn new(policy: Policy, net_seed: u64) -> ViewChangeScenario {
        ViewChangeScenario {
            policy,
            net_seed,
            trace: None,
        }
    }

    /// The same workload with each run's runtime also emitting into a
    /// shared [`TraceBuffer`] — the feedback channel
    /// [`Strategy::Guided`](crate::explorer::Strategy::Guided) drains to
    /// steer the next schedule.
    pub fn traced(self) -> ViewChangeScenario {
        ViewChangeScenario {
            trace: Some(TraceBuffer::new()),
            ..self
        }
    }

    /// The stack *shape* (registration order matches [`Scenario::run`]'s
    /// stack) plus the root events, for static analysis.
    fn shape() -> (Stack, [EventType; 2]) {
        let mut b = StackBuilder::new();
        let p_view = b.protocol("View");
        let p_chan = b.protocol("Chan");
        let bcast = b.event("bcast");
        let send = b.event("send");
        let vchange = b.event("vchange");
        b.bind_with_triggers(bcast, p_view, "bcast", &[send], |_, _| Ok(()));
        b.bind_with_triggers(send, p_chan, "chan.send", &[], |_, _| Ok(()));
        let echange = b.event("echange");
        b.bind_with_triggers(vchange, p_view, "vchange", &[echange], |_, _| Ok(()));
        b.bind_with_triggers(echange, p_chan, "echange", &[], |_, _| Ok(()));
        (b.build(), [bcast, vchange])
    }
}

impl Scenario for ViewChangeScenario {
    fn name(&self) -> String {
        format!("view-change/{}", self.policy)
    }

    fn run(&self, hook: Arc<dyn SchedHook>) -> RunReport {
        let net = SimNet::new_manual(2, NetConfig::fast(self.net_seed));
        let received: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        {
            let received = Arc::clone(&received);
            net.handle().register(SiteId(1), move |dg| {
                let b = &dg.payload;
                if b.len() == 16 {
                    let view = u64::from_be_bytes(b[0..8].try_into().unwrap());
                    let epoch = u64::from_be_bytes(b[8..16].try_into().unwrap());
                    received.lock().push((view, epoch));
                }
            });
        }

        let mut b = StackBuilder::new();
        let p_view = b.protocol("View");
        let p_chan = b.protocol("Chan");
        let bcast = b.event("bcast");
        let send = b.event("send");
        let vchange = b.event("vchange");
        let view = ProtocolState::new(p_view, 0u64);
        let chan = ProtocolState::new(p_chan, 0u64);

        // Broadcast: read the view under View, then hand off to the channel
        // layer which stamps the epoch and emits the datagram.
        let h_b = {
            let view = view.clone();
            b.bind_with_triggers(bcast, p_view, "bcast", &[send], move |ctx, _| {
                let v = view.read_with(ctx, |v| *v);
                ctx.trigger(send, v)
            })
        };
        let h_s = {
            let chan = chan.clone();
            let handle = net.handle();
            b.bind_with_triggers(send, p_chan, "chan.send", &[], move |ctx, ev| {
                let v: &u64 = ev.expect(send)?;
                let e = chan.read_with(ctx, |e| *e);
                let mut payload = Vec::with_capacity(16);
                payload.extend_from_slice(&v.to_be_bytes());
                payload.extend_from_slice(&e.to_be_bytes());
                handle.send(SiteId(0), SiteId(1), Bytes::from(payload));
                Ok(())
            })
        };
        // View change: bump the view, then (next handler down) the channel
        // epoch — the window between the two writes is the race.
        let echange = b.event("echange");
        let h_v = {
            let view = view.clone();
            b.bind_with_triggers(vchange, p_view, "vchange", &[echange], move |ctx, _| {
                view.with(ctx, |v| *v += 1);
                ctx.trigger(echange, EventData::empty())
            })
        };
        let h_e = {
            let chan = chan.clone();
            b.bind_with_triggers(echange, p_chan, "echange", &[], move |ctx, _| {
                chan.with(ctx, |e| *e += 1);
                Ok(())
            })
        };

        let sink = self.trace.clone().map(|t| t as Arc<dyn TraceSink>);
        let rt = Runtime::with_parts(b.build(), RuntimeConfig::recording(), Some(hook), sink);
        let bcast_pat = RoutePattern::new().root(h_b).edge(h_b, h_s);
        let vc_pat = RoutePattern::new().root(h_v).edge(h_v, h_e);
        spawn_once(&rt, self.policy, bcast, &[p_view, p_chan], &bcast_pat);
        spawn_once(&rt, self.policy, vchange, &[p_view, p_chan], &vc_pat);
        rt.quiesce();
        // Deliver on the controlled thread; callbacks only append to the
        // collector, so ordering beyond the seed does not matter here.
        net.handle().pump_all();

        let bad = received
            .lock()
            .iter()
            .find(|(v, e)| v != e)
            .map(|(v, e)| format!("message on the wire with view {v} != epoch {e}"));
        RunReport {
            history: rt.history(),
            invariant_violation: bad,
        }
    }

    fn static_independence(&self) -> Option<StaticIndependence> {
        let (stack, roots) = ViewChangeScenario::shape();
        Some(relation_of(&stack, &roots))
    }

    fn trace_buffer(&self) -> Option<Arc<TraceBuffer>> {
        self.trace.clone()
    }
}

/// The transport sliding window under a controlled schedule: two concurrent
/// sends from site 0 to site 1 over a manual network, with timers off and
/// delivery pumped from the controlled main thread. Invariants: the
/// endpoint histories stay serializable (checked by the explorer) and both
/// messages are delivered intact.
pub struct TransportWindowScenario {
    policy: Policy,
    net_seed: u64,
}

impl TransportWindowScenario {
    /// A two-message window workload under `policy`.
    pub fn new(policy: Policy, net_seed: u64) -> TransportWindowScenario {
        TransportWindowScenario { policy, net_seed }
    }
}

impl Scenario for TransportWindowScenario {
    fn name(&self) -> String {
        format!("transport-window/{}", self.policy)
    }

    fn run(&self, hook: Arc<dyn SchedHook>) -> RunReport {
        let net = SimNet::new_manual(2, NetConfig::fast(self.net_seed));
        let cfg = TransportConfig {
            policy: self.policy,
            mtu: 16,
            window: 4,
            clock: ProtoClock::manual(),
            ..TransportConfig::default()
        };
        let e0 = Endpoint::with_parts(
            net.handle(),
            SiteId(0),
            cfg.clone(),
            Some(hook.clone()),
            true,
        );
        let e1 = Endpoint::with_parts(net.handle(), SiteId(1), cfg, Some(hook), false);

        let msg_a: Vec<u8> = (0u8..40).collect();
        let msg_b: Vec<u8> = (100u8..140).collect();
        e0.send(SiteId(1), msg_a.clone());
        e0.send(SiteId(1), msg_b.clone());
        // Settle: drain both runtimes, pump deliveries (which spawn new
        // computations), repeat until nothing is in flight.
        loop {
            e0.runtime().quiesce();
            e1.runtime().quiesce();
            if net.handle().pump_all() == 0 {
                break;
            }
        }

        let delivered = e1.delivered();
        let payloads: Vec<Vec<u8>> = delivered.iter().map(|(_, b)| b.to_vec()).collect();
        let mut bad = None;
        if !payloads.contains(&msg_a) || !payloads.contains(&msg_b) {
            bad = Some(format!(
                "expected both messages delivered, got {} messages",
                payloads.len()
            ));
        }
        RunReport {
            history: e0.runtime().history(),
            invariant_violation: bad,
        }
    }
}
