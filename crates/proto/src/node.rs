//! One site of the group-communication system: a SAMOA runtime running the
//! full stack (RelComm, RelCast, failure detector, consensus, atomic
//! broadcast, membership, application sink) over the simulated network —
//! plus [`Cluster`], a convenience bundle of `n` such sites.
//!
//! ## External events and their isolation declarations
//!
//! Every external event spawns a computation (paper §4), rooted at the
//! entry event of its kind ([`Events::entries`]): a datagram is classed by
//! its first frame — a plain user cast enters on `RcDataUser`, any other
//! data on `RcData` — a client request by its API call, a tick by its
//! timer. The node hands each arrival to [`Runtime::enter`] with that event
//! and keeps no declaration of its own: what the computation declares is
//! derived from the stack's call graph at the event, once, when the runtime
//! is built ([`External::new`]), and the node's [`StackPolicy`] — the
//! core's [`Policy`], under the name this crate has always exported — picks
//! one of the three ([`Policy::decl`]):
//!
//! * [`StackPolicy::Basic`] — `isolated M e` with `M` = the microprotocols
//!   the event's cascade can reach (e.g. an inbound ack only touches
//!   RelComm; an inbound consensus message may reach everything). This is
//!   exactly the paper's `isolated [relComm relCast ...] {trigger FromNet m}`.
//! * [`StackPolicy::Bound`] — `isolated bound`, with each microprotocol's
//!   worst-case visit count: exact above a fan-out (a send per peer, a
//!   delivery per decided message), the analysis' fallback below one and
//!   wherever the call graph is cyclic (the paper notes that tight bounds
//!   are hard to state for recursive protocols).
//! * [`StackPolicy::Route`] — `isolated route`, with the routing pattern cut
//!   from the same call graph, rooted at the event's handler.
//! * [`StackPolicy::Serial`] — the Appia baseline: every computation
//!   declares every microprotocol.
//! * [`StackPolicy::Unsync`] — the Cactus-without-locks baseline: no
//!   isolation. The §3 "Problem" race is observable under this policy.
//! * [`StackPolicy::TwoPhase`] — conservative 2PL over the same sets as
//!   `Basic`.
//!
//! Which thread runs the computation, how many may be in flight and who
//! counts the ones that fail is [`Runtime::external`]'s business, not this
//! crate's; so is the timer thread [`Ticker::attach`]'s, which builds the
//! node around it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use samoa_core::metrics::Registry;
use samoa_core::prelude::*;
use samoa_net::{
    Alarm, Datagram, Host, NetConfig, NetHandle, SimNet, SiteId, TcpMesh, Ticker, Transport,
};

use crate::abcast::{self, AbcastState};
use crate::app::{self, AppState};
use crate::clock::ProtoClock;
use crate::consensus::{self, ConsensusState};
use crate::events::Events;
use crate::fd::{self, FdState};
use crate::kv::{self, KvApplied, KvCmd, KvPending, KvState, KvWaiters};
use crate::membership::{self, MembershipState};
use crate::msgs::{AbPayload, CastData, Frames, Payload, Wire};
use crate::observe::{
    AbcastInstruments, ClusterTracer, ConsensusInstruments, KvInstruments, RelCommInstruments,
};
use crate::relcast::{self, RelCastState};
use crate::relcomm::{self, RcAckIn, RcDataIn, RelCommState};
use crate::view::{GroupView, ViewOp};

/// Observability attachments for a node or cluster, all optional. A
/// default `Observe` adds no trace work to any hot path (every trace site is
/// one never-taken branch). Counts are always kept: every node holds its
/// per-protocol instruments, and a registry only names them.
#[derive(Clone, Default)]
pub struct Observe {
    /// Trace sink receiving both the runtime's scheduling events and the
    /// stack's cluster-level causal spans (`ClientSubmit`, `CtxSend`,
    /// `CtxRecv`, `AbDeliver`, `KvApply`, ...). Only a node with a sink puts
    /// a causal context ([`TraceCtx`](crate::msgs::TraceCtx)) on the frames
    /// it sends and learns hop counts from those it receives; an untraced
    /// node's frames are context-free, and a traced node that receives one
    /// emits no `CtxRecv` for it (in a partly traced cluster a causal tree
    /// is cut at the untraced sites).
    pub sink: Option<Arc<dyn samoa_core::TraceSink>>,
    /// Metrics registry that names the node's per-protocol instruments
    /// (`site{N}.<proto>.<metric>`), so a snapshot of it reads them.
    pub registry: Option<Arc<Registry>>,
    /// Timestamp epoch. Share one across a cluster so every site's spans
    /// land on a single comparable timeline; defaults to "now" per node.
    pub epoch: Option<Instant>,
}

impl Observe {
    /// Tracing only.
    pub fn traced(sink: Arc<dyn samoa_core::TraceSink>) -> Observe {
        Observe {
            sink: Some(sink),
            ..Observe::default()
        }
    }

    /// Metrics only.
    pub fn metered(registry: Arc<Registry>) -> Observe {
        Observe {
            registry: Some(registry),
            ..Observe::default()
        }
    }
}

impl std::fmt::Debug for Observe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observe")
            .field("sink", &self.sink.is_some())
            .field("registry", &self.registry.is_some())
            .finish()
    }
}

/// Which isolation policy the node's external events run under: the
/// core's [`Policy`], re-exported under this crate's historical name.
pub use samoa_core::Policy as StackPolicy;

/// Worker threads per computation: 1 keeps intra-computation event
/// processing FIFO, which the delivery-order assertions rely on.
const INTRA_THREADS: usize = 1;

/// Node tunables.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Isolation policy for external events.
    pub policy: StackPolicy,
    /// Failure-detector suspicion timeout.
    pub fd_timeout: Duration,
    /// Run the failure detector (off by default so fault-free workloads can
    /// fully quiesce).
    pub enable_fd: bool,
    /// Initial group view (defaults to all sites of the network).
    pub initial_members: Option<Vec<SiteId>>,
    /// Record history for the isolation checker.
    pub record_history: bool,
    /// The time source the stack's timeout logic (failure detector,
    /// RelComm retransmission) reads. The node's one [`Alarm`] is armed on
    /// it for each deadline — a frame due for a resend, an ack that has
    /// waited long enough for a ride, the failure detector's next heartbeat
    /// with `enable_fd` — and when it rings the node injects the tick it is
    /// for. On the wall clock (the default) a thread, `node-N-timer`, rings
    /// it, and sleeps while none is armed. On a [`ProtoClock::manual`]
    /// clock no thread starts: the driver ([`NetHandle::run_until`]) rings
    /// it, or a test or explorer injects ticks of its own choosing
    /// ([`Node::inject_retransmit_tick`], [`Node::inject_fd_tick`]).
    /// Shared across a cluster, a manual clock makes every timeout a
    /// function of explicit [`ProtoClock::advance`] calls — the substrate
    /// for deterministic tests and fault exploration.
    pub clock: ProtoClock,
    /// When false, abcast delivers decisions in *arrival* order instead of
    /// instance order — an **injected bug** the fault explorer uses to
    /// demonstrate a minimised, replayable cluster-level witness: two
    /// reordered `Decide`s make two sites disagree on the delivery prefix.
    /// Leave true everywhere else.
    pub ab_order_enabled: bool,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            policy: StackPolicy::Basic,
            fd_timeout: Duration::from_millis(200),
            enable_fd: false,
            initial_members: None,
            record_history: false,
            clock: ProtoClock::wall(),
            ab_order_enabled: true,
        }
    }
}

impl NodeConfig {
    /// Default config with the given policy.
    pub fn with_policy(policy: StackPolicy) -> Self {
        NodeConfig {
            policy,
            ..NodeConfig::default()
        }
    }
}

/// One site of the group-communication system.
pub struct Node {
    /// This node's site id.
    pub site: SiteId,
    rt: Runtime,
    ev: Events,
    transport: Arc<dyn Transport>,
    tracer: Option<ClusterTracer>,
    cfg: NodeConfig,
    app: ProtocolState<AppState>,
    membership: ProtocolState<MembershipState>,
    relcomm: ProtocolState<RelCommState>,
    relcast: ProtocolState<RelCastState>,
    abcast: ProtocolState<AbcastState>,
    fd: ProtocolState<FdState>,
    consensus: ProtocolState<ConsensusState>,
    kv: ProtocolState<KvState>,
    kv_waiters: KvWaiters,
    kv_req: AtomicU64,
    /// The Timer Module; rung by its thread on the wall clock, by the
    /// driver on a manual one.
    timer: Ticker,
}

impl Node {
    /// Build the node, wire its stack, register it on `transport`, and (on
    /// the wall clock) start its timer. The same stack runs unchanged over a
    /// `SimNet` (`Arc::new(net.handle())`) or a real-socket
    /// [`TcpNet`](samoa_net::TcpNet):
    ///
    /// ```no_run
    /// use std::sync::Arc;
    /// use samoa_net::{SiteId, TcpMesh, Transport};
    /// use samoa_proto::{Node, NodeConfig};
    ///
    /// let mesh = TcpMesh::new(3).unwrap();
    /// let t: Arc<dyn Transport> = Arc::clone(mesh.net(0)) as Arc<dyn Transport>;
    /// let node = Node::new_on(t, SiteId(0), NodeConfig::default());
    /// ```
    pub fn new_on(transport: Arc<dyn Transport>, site: SiteId, cfg: NodeConfig) -> Arc<Node> {
        Node::new_observed_on(transport, site, cfg, None, Observe::default())
    }

    /// The general constructor: any [`Transport`], an optional scheduling
    /// hook, and any combination of [`Observe`] attachments.
    ///
    /// With a `hook` the node's runtime is under `samoa-check`-style
    /// controlled exploration; pair it with a manual network
    /// ([`SimNet::new_manual`](samoa_net::SimNet::new_manual)) and a
    /// [`ProtoClock::manual`] clock so every thread in the system is under
    /// the controller. With [`Observe::sink`] every
    /// computation spawn, admission wait (with the blocking computation's
    /// identity), handler call, early release, and completion in this
    /// node's stack is delivered as a structured event, cheap enough to
    /// leave on in production (see `samoa_core::trace`). The two compose
    /// ([`Runtime::with_parts`]): a controlled exploration records the same
    /// structured trace a production run would — the substrate for
    /// `samoa-check`'s trace-guided schedule search and the cross-site
    /// causal-propagation tests.
    pub fn new_observed_on(
        transport: Arc<dyn Transport>,
        site: SiteId,
        cfg: NodeConfig,
        hook: Option<Arc<dyn samoa_core::SchedHook>>,
        observe: Observe,
    ) -> Arc<Node> {
        let tracer = observe.sink.as_ref().map(|s| {
            let epoch = observe.epoch.unwrap_or_else(Instant::now);
            ClusterTracer::new(site, Arc::clone(s), epoch)
        });
        let view = match &cfg.initial_members {
            Some(m) => GroupView::initial(m.iter().copied()),
            None => GroupView::initial(transport.sites()),
        };

        let mut b = StackBuilder::new();
        let p_relcomm = b.protocol("RelComm");
        let p_relcast = b.protocol("RelCast");
        let p_fd = b.protocol("FD");
        let p_consensus = b.protocol("Consensus");
        let p_abcast = b.protocol("ABcast");
        let p_membership = b.protocol("Membership");
        let p_app = b.protocol("App");
        let p_kv = b.protocol("Kv");
        let ev = Events::declare(&mut b);

        let relcomm_st = ProtocolState::new(
            p_relcomm,
            RelCommState::with_clock(site, view.clone(), cfg.clock.clone()),
        );
        let relcast_st = ProtocolState::new(p_relcast, RelCastState::new(site, view.clone()));
        let fd_st = ProtocolState::new(
            p_fd,
            FdState::with_clock(site, view.clone(), cfg.fd_timeout, cfg.clock.clone()),
        );
        let consensus_st = ProtocolState::new(p_consensus, ConsensusState::new(site, view.clone()));
        let abcast_st = ProtocolState::new(p_abcast, AbcastState::new(site, view.clone()));
        let membership_st = ProtocolState::new(p_membership, MembershipState::new(view));
        let app_st = ProtocolState::new(p_app, AppState::default());
        let kv_st = ProtocolState::new(p_kv, KvState::default());

        if let Some(t) = &tracer {
            relcomm_st.write(|s| s.tracer = Some(t.clone()));
            abcast_st.write(|s| s.tracer = Some(t.clone()));
            membership_st.write(|s| s.tracer = Some(t.clone()));
        }
        // Counts are kept either way; a registry only names them.
        let (relcomm_ins, abcast_ins, consensus_ins, kv_ins) = match &observe.registry {
            Some(reg) => (
                RelCommInstruments::new(reg, site),
                AbcastInstruments::new(reg, site),
                ConsensusInstruments::new(reg, site),
                KvInstruments::new(reg, site),
            ),
            None => Default::default(),
        };
        relcomm_st.write(|s| s.instruments = relcomm_ins);
        abcast_st.write(|s| s.instruments = abcast_ins);
        consensus_st.write(|s| s.instruments = consensus_ins.clone());
        membership_st.write(|s| s.instruments = consensus_ins);
        let kv_waiters = KvWaiters::new(kv_ins.apply_latency_us);

        // The Timer Module: RelComm arms it for what it sends and owes, and
        // a running failure detector for its heartbeats, from the first on.
        let alarm = Alarm::new(&cfg.clock);
        relcomm_st.write(|s| s.alarm = alarm.clone());
        if cfg.enable_fd {
            fd_st.write(|s| {
                s.alarm = alarm.clone();
                alarm.arm(s.next_beat());
            });
        }
        if !cfg.ab_order_enabled {
            abcast_st.write(|s| s.order_enabled = false);
        }

        // RelCast registers before RelComm so that `triggerAll ViewChange`
        // updates the upper layer first — the §3 race window: RelCast fans
        // out using the new view while RelComm still holds the old one.
        relcast::register(&mut b, p_relcast, &ev, relcast_st.clone());
        let net = Arc::clone(&transport);
        relcomm::register(&mut b, p_relcomm, &ev, relcomm_st.clone(), net);
        fd::register(&mut b, p_fd, &ev, fd_st.clone(), Arc::clone(&transport));
        consensus::register(&mut b, p_consensus, &ev, consensus_st.clone());
        abcast::register(&mut b, p_abcast, &ev, abcast_st.clone());
        membership::register(&mut b, p_membership, &ev, membership_st.clone());
        app::register(&mut b, p_app, &ev, app_st.clone());
        kv::register(
            &mut b,
            p_kv,
            &ev,
            kv_st.clone(),
            kv_waiters.clone(),
            site,
            kv::KvObserve {
                tracer: tracer.clone(),
                applies: kv_ins.applies,
            },
        );

        let stack = b.build();
        let rt_cfg = RuntimeConfig {
            record_history: cfg.record_history,
            max_threads_per_computation: INTRA_THREADS,
        };
        let rt = Runtime::with_parts(stack, rt_cfg, hook, observe.sink);

        // The Network Module and the Timer Module.
        let name = format!("node-{}-timer", site.0);
        let net = Arc::clone(&transport);
        Ticker::attach(site, &*net, alarm, name, |timer| Node {
            site,
            rt,
            ev,
            transport,
            tracer,
            cfg,
            app: app_st,
            membership: membership_st,
            relcomm: relcomm_st,
            relcast: relcast_st,
            abcast: abcast_st,
            fd: fd_st,
            consensus: consensus_st,
            kv: kv_st,
            kv_waiters,
            kv_req: AtomicU64::new(0),
            timer,
        })
    }

    /// Hand an external event to the runtime, rooted at `entry` and
    /// declared according to the node's policy (see module docs).
    fn spawn_external(&self, entry: EventType, data: EventData) {
        self.rt.enter(self.cfg.policy, entry, data);
    }

    /// Inject one retransmission-timer tick, exactly as the timer thread
    /// would. On a [`ProtoClock::manual`] clock this is the *only* way
    /// RelComm retransmits — the seam that turns timeout behaviour into an
    /// explicit, explorable decision.
    /// Returns as [`Node::rbcast`] does.
    pub fn inject_retransmit_tick(&self) {
        self.spawn_external(self.ev.retransmit_tick, EventData::empty());
    }

    /// Inject one failure-detector tick (heartbeats + suspicion sweep),
    /// exactly as the timer thread would. Deterministic counterpart of
    /// `enable_fd` under a manual clock.
    pub fn inject_fd_tick(&self) {
        self.spawn_external(self.ev.fd_tick, EventData::empty());
    }

    /// Application request: reliable broadcast (RelCast). Where
    /// [`Runtime::external`] runs inline the request's own computation is
    /// complete on return.
    pub fn rbcast(&self, data: impl Into<Bytes>) {
        self.spawn_external(
            self.ev.bcast_user,
            EventData::new(CastData::User(data.into())),
        );
    }

    /// Application request: atomic broadcast; returns as [`Node::rbcast`].
    pub fn abcast(&self, data: impl Into<Bytes>) {
        self.spawn_external(self.ev.abcast, EventData::new(AbPayload::User(data.into())));
    }

    /// Request that `site` join the group; returns as [`Node::rbcast`].
    pub fn request_join(&self, site: SiteId) {
        self.spawn_external(self.ev.join_leave, EventData::new((ViewOp::Join, site)));
    }

    /// Request that `site` leave the group; returns as [`Node::rbcast`].
    pub fn request_leave(&self, site: SiteId) {
        self.spawn_external(self.ev.join_leave, EventData::new((ViewOp::Leave, site)));
    }

    fn kv_submit(&self, make: impl FnOnce(u64) -> KvCmd) -> KvPending {
        let req = self.kv_req.fetch_add(1, Ordering::Relaxed);
        // Install the waiter before broadcasting so the reply cannot race
        // past it.
        let pending = self.kv_waiters.pending(req);
        let cmd = make(req);
        self.spawn_external(
            self.ev.abcast,
            EventData::new(AbPayload::User(cmd.encode())),
        );
        pending
    }

    /// Replicated KV: set `key` to `value`, totally ordered by abcast.
    /// The returned handle resolves (with the previous value) once this
    /// site applies the command; see [`KvPending::wait`]. Where
    /// [`Runtime::external`] runs inline the command has been cast, on the
    /// caller's thread, by then.
    pub fn kv_put(&self, key: impl Into<Bytes>, value: impl Into<Bytes>) -> KvPending {
        let (key, value) = (key.into(), value.into());
        self.kv_submit(|req| KvCmd::Put { req, key, value })
    }

    /// Replicated KV: linearizable read of `key` (ordered through abcast
    /// like a write).
    pub fn kv_get(&self, key: impl Into<Bytes>) -> KvPending {
        let key = key.into();
        self.kv_submit(|req| KvCmd::Get { req, key })
    }

    /// Replicated KV: compare-and-swap — install `value` iff `key`
    /// currently equals `expect` (`None` = expect absent).
    pub fn kv_cas(
        &self,
        key: impl Into<Bytes>,
        expect: Option<Bytes>,
        value: impl Into<Bytes>,
    ) -> KvPending {
        let (key, value) = (key.into(), value.into());
        self.kv_submit(|req| KvCmd::Cas {
            req,
            key,
            expect,
            value,
        })
    }

    /// FNV digest of this site's KV map (equal digests ⇔ byte-identical
    /// replicas).
    pub fn kv_digest(&self) -> u64 {
        self.kv.read(|s| s.digest())
    }

    /// Number of KV commands this site has applied.
    pub fn kv_applied(&self) -> usize {
        self.kv.read(|s| s.applied())
    }

    /// This site's applied-command log (its view of the total order).
    pub fn kv_log(&self) -> Vec<KvApplied> {
        self.kv.read(|s| s.log().to_vec())
    }

    /// Snapshot of this site's KV map.
    pub fn kv_snapshot(&self) -> Vec<(Bytes, Bytes)> {
        self.kv.read(|s| s.snapshot())
    }

    /// Reliable-broadcast deliveries observed by the application.
    pub fn rb_delivered(&self) -> Vec<(SiteId, Bytes)> {
        self.app.read(|s| s.rb_delivered.clone())
    }

    /// Atomic-broadcast deliveries observed by the application (the total
    /// order).
    pub fn ab_delivered(&self) -> Vec<(SiteId, Bytes)> {
        self.app.read(|s| s.ab_delivered.clone())
    }

    /// Views the application saw installed.
    pub fn observed_views(&self) -> Vec<GroupView> {
        self.app.read(|s| s.views.clone())
    }

    /// Membership's current view.
    pub fn current_view(&self) -> GroupView {
        self.membership.read(|s| s.view().clone())
    }

    /// RelComm retransmission count (diagnostics).
    pub fn retransmissions(&self) -> u64 {
        self.relcomm.read(|s| s.instruments.retransmits.get())
    }

    /// RelComm messages sent but not yet acknowledged (diagnostics).
    pub fn relcomm_pending(&self) -> usize {
        self.relcomm.read(|s| s.pending_count())
    }

    /// Sends RelComm discarded because the target was outside its view
    /// (the §3 race indicator under `Unsync`; see EXPERIMENTS.md E5).
    pub fn relcomm_discards(&self) -> u64 {
        self.relcomm.read(|s| s.instruments.discards.get())
    }

    /// External computations that ended in an error
    /// ([`RuntimeStats::external_errors`]); 0 on a healthy node.
    pub fn external_errors(&self) -> u64 {
        self.rt.stats().external_errors
    }

    /// Distinct RelCast messages seen (diagnostics).
    pub fn cast_seen(&self) -> usize {
        self.relcast.read(|s| s.seen_count())
    }

    /// Undelivered atomic-broadcast requests (diagnostics).
    pub fn ab_pending(&self) -> usize {
        self.abcast.read(|s| s.pending_count())
    }

    /// Sites this node's failure detector currently suspects.
    pub fn suspects(&self) -> Vec<SiteId> {
        self.fd.read(|s| s.suspects())
    }

    /// Live consensus instances (diagnostics).
    pub fn consensus_instances(&self) -> usize {
        self.consensus.read(|s| s.live_instances())
    }

    /// The node's SAMOA runtime (for quiescing and isolation checks).
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }

    /// The stack's event types (for static analysis and direct injection).
    pub fn events(&self) -> &Events {
        &self.ev
    }

    /// The transport this node is attached to.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// Stop the timer thread (dropping the node does the same). Idempotent.
    pub fn stop_timers(&self) {
        self.timer.stop();
    }
}

impl Host for Node {
    /// The Network Module: decode the datagram frame by frame, straight
    /// into the event of the **one** computation it starts. A datagram is
    /// a lone heartbeat, a data frame followed by the acks going the same
    /// way, or acks alone ([`Frames`] holds that rule); anything else is
    /// malformed and dropped, like a real UDP stack would.
    fn on_datagram(&self, dg: Datagram) {
        let from = dg.from;
        let mut frames = Frames::new(dg.payload);
        let Some(Ok(first)) = frames.next() else {
            return;
        };
        let (data, mut acks) = match first {
            // The rule admits a heartbeat only alone.
            Wire::Heartbeat => {
                self.spawn_external(self.ev.fd_beat, EventData::new(from));
                return;
            }
            Wire::Data { seq, ctx, payload } => (
                Some((seq, ctx, payload)),
                Vec::with_capacity(frames.acks_left()),
            ),
            Wire::Ack { seq } => {
                let mut acks = Vec::with_capacity(1 + frames.acks_left());
                acks.push(seq);
                (None, acks)
            }
        };
        for frame in frames {
            match frame {
                Ok(Wire::Ack { seq }) => acks.push(seq),
                _ => return,
            }
        }
        match data {
            Some((seq, ctx, payload)) => {
                if let (Some(t), Some(c)) = (&self.tracer, ctx) {
                    t.emit(samoa_core::TraceKind::CtxRecv {
                        site: t.site().0,
                        origin: c.origin.0,
                        op: c.op,
                        hop: c.hop,
                    });
                }
                let entry = match &payload {
                    Payload::Cast(c) if c.data.is_user() => self.ev.rc_data_user,
                    _ => self.ev.rc_data,
                };
                self.spawn_external(
                    entry,
                    EventData::new(RcDataIn {
                        sender: from,
                        seq,
                        ctx,
                        payload,
                        acks,
                    }),
                );
            }
            None => {
                self.spawn_external(
                    self.ev.rc_ack,
                    EventData::new(RcAckIn {
                        sender: from,
                        seqs: acks,
                    }),
                );
            }
        }
    }

    /// The Timer Module: a retransmission tick if RelComm has a deadline
    /// that has passed, a failure-detector tick if `enable_fd` is set and a
    /// heartbeat is due. Each tick arms the alarm for what it leaves; a
    /// deadline still to come is armed again here.
    fn on_alarm(&self) {
        let alarm = self.timer.alarm();
        let now = self.cfg.clock.now();
        let relcomm = self.relcomm.read(RelCommState::next_due);
        let fd = self.cfg.enable_fd.then(|| self.fd.read(FdState::next_beat));
        for (due, tick) in [(relcomm, self.ev.retransmit_tick), (fd, self.ev.fd_tick)] {
            match due {
                Some(at) if at <= now => self.spawn_external(tick, EventData::empty()),
                Some(at) => alarm.arm(at),
                None => {}
            }
        }
    }

    fn alarm(&self) -> &Alarm {
        self.timer.alarm()
    }

    fn quiesce(&self) {
        self.rt.quiesce();
    }
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("site", &self.site)
            .field("policy", &self.cfg.policy)
            .finish()
    }
}

/// A point-in-time cluster health snapshot: every node's metric
/// instruments (from the shared [`Registry`]) alongside canonical
/// per-site transport counters — the **same counter names over `SimNet`
/// and `TcpNet`** (see [`Transport::stats_named`]), so a health report
/// reads identically whichever backend the cluster runs on.
#[derive(Debug, Clone)]
pub struct ClusterMetrics {
    /// Registry snapshot (instrument names are `site{N}.<proto>.<metric>`).
    pub metrics: samoa_core::MetricsSnapshot,
    /// Canonical transport counters per site.
    pub transport: Vec<(u16, Vec<(&'static str, u64)>)>,
}

impl ClusterMetrics {
    /// JSON object: `{"metrics": <registry snapshot>, "transport":
    /// {"site0": {"sent": ..., ...}, ...}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"metrics\": ");
        out.push_str(&self.metrics.to_json());
        out.push_str(", \"transport\": {");
        for (i, (site, counters)) in self.transport.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"site{site}\": {{"));
            for (j, (name, v)) in counters.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{name}\": {v}"));
            }
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// A plain-text health report: the transport counters per site, then
    /// every registered instrument.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (site, counters) in &self.transport {
            out.push_str(&format!("site{site}.net:"));
            for (name, v) in counters {
                out.push_str(&format!(" {name}={v}"));
            }
            out.push('\n');
        }
        out.push_str(&self.metrics.render());
        out
    }
}

/// A bundle of `n` nodes over one simulated network.
pub struct Cluster {
    net: SimNet,
    nodes: Vec<Arc<Node>>,
    registry: Option<Arc<Registry>>,
}

impl Cluster {
    /// Build `n` nodes over a fresh network.
    pub fn new(n: usize, net_cfg: NetConfig, node_cfg: NodeConfig) -> Cluster {
        Cluster::new_observed_on(SimNet::new(n, net_cfg), node_cfg, None, Observe::default())
    }

    /// Build `n` nodes over a **manual** network
    /// ([`SimNet::new_manual`]): no delivery thread — datagrams sit until
    /// [`NetHandle::pump_one`]/[`NetHandle::pump_all`] (and [`Cluster::settle`],
    /// which pumps) deliver them on the calling thread. Pair with a shared
    /// [`ProtoClock::manual`] in `node_cfg` (which starts no timer thread)
    /// for fully deterministic virtual-time tests: [`NetHandle::run_until`]
    /// over [`Cluster::nodes`] rings each node's alarm when the clock
    /// reaches it — retransmission and, with `enable_fd`, failure detection
    /// — instead of polling wall-clock deadlines.
    pub fn new_manual(n: usize, net_cfg: NetConfig, node_cfg: NodeConfig) -> Cluster {
        Cluster::new_observed_on(
            SimNet::new_manual(n, net_cfg),
            node_cfg,
            None,
            Observe::default(),
        )
    }

    /// The general constructor: one node per site of a network the caller
    /// built (threaded or manual), each with the optional scheduling
    /// `hook` and the [`Observe`] attachments, shared across the cluster —
    /// one sink (merged cross-site causal trace), one registry (aggregate
    /// via [`Cluster::metrics`]), one timestamp epoch. A manual network
    /// plus a hook is the construction `samoa-check` uses for
    /// deterministic, traced exploration of the full cluster. For a sink
    /// *per site*, build the nodes directly ([`Node::new_observed_on`]) and
    /// settle them with [`NetHandle::settle`].
    pub fn new_observed_on(
        net: SimNet,
        node_cfg: NodeConfig,
        hook: Option<Arc<dyn samoa_core::SchedHook>>,
        observe: Observe,
    ) -> Cluster {
        let observe = Observe {
            epoch: Some(observe.epoch.unwrap_or_else(Instant::now)),
            ..observe
        };
        let nodes = net
            .sites()
            .into_iter()
            .map(|site| {
                Node::new_observed_on(
                    Arc::new(net.handle()),
                    site,
                    node_cfg.clone(),
                    hook.clone(),
                    observe.clone(),
                )
            })
            .collect();
        Cluster {
            net,
            nodes,
            registry: observe.registry,
        }
    }

    /// Snapshot the cluster's health: registry instruments plus canonical
    /// per-site transport counters. `None` when the cluster was built
    /// without a registry.
    pub fn metrics(&self) -> Option<ClusterMetrics> {
        let reg = self.registry.as_ref()?;
        Some(ClusterMetrics {
            metrics: reg.snapshot(),
            transport: self
                .nodes
                .iter()
                .map(|n| (n.site.0, n.transport().stats_named(n.site)))
                .collect(),
        })
    }

    /// Node `i`.
    pub fn node(&self, i: usize) -> &Arc<Node> {
        &self.nodes[i]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Arc<Node>] {
        &self.nodes
    }

    /// The network handle (for fault injection and stats).
    pub fn net(&self) -> NetHandle {
        self.net.handle()
    }

    /// Drain the whole system to a fixed point ([`NetHandle::settle`]): no
    /// datagrams in flight and no computation running anywhere, stable
    /// across one full round.
    ///
    /// Only terminates for workloads that stop generating traffic. On the
    /// wall clock the failure detector's heartbeats never stop; on a manual
    /// clock nothing is rung while settling, and [`NetHandle::run_until`]
    /// moves time on.
    pub fn settle(&self) {
        self.net.settle(|| {
            for n in &self.nodes {
                n.runtime().quiesce();
            }
        });
    }

    /// Stop all timers and shut the network down.
    pub fn shutdown(&mut self) {
        for n in &self.nodes {
            n.stop_timers();
        }
        self.net.shutdown();
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.nodes.len())
            .finish()
    }
}

/// A bundle of `n` nodes over real localhost TCP sockets
/// ([`TcpMesh`]) — the same stack as [`Cluster`], different backend.
///
/// There is no `settle()` here: real sockets have no global quiescence
/// oracle. Poll observable state with a deadline instead (e.g. all sites'
/// [`Node::kv_applied`] reaching a target).
pub struct TcpCluster {
    mesh: TcpMesh,
    nodes: Vec<Option<Arc<Node>>>,
    registry: Option<Arc<Registry>>,
}

impl TcpCluster {
    /// Build `n` nodes over a fresh localhost TCP mesh (ephemeral ports).
    pub fn new(n: usize, node_cfg: NodeConfig) -> std::io::Result<TcpCluster> {
        TcpCluster::new_observed(n, node_cfg, Observe::default())
    }

    /// [`TcpCluster::new`] with shared [`Observe`] attachments — same
    /// semantics as [`Cluster::new_observed_on`], real sockets underneath.
    pub fn new_observed(
        n: usize,
        node_cfg: NodeConfig,
        observe: Observe,
    ) -> std::io::Result<TcpCluster> {
        let observe = Observe {
            epoch: Some(observe.epoch.unwrap_or_else(Instant::now)),
            ..observe
        };
        let mesh = TcpMesh::new(n)?;
        let nodes = (0..n)
            .map(|i| {
                let t: Arc<dyn Transport> = Arc::clone(mesh.net(i)) as Arc<dyn Transport>;
                Some(Node::new_observed_on(
                    t,
                    SiteId(i as u16),
                    node_cfg.clone(),
                    None,
                    observe.clone(),
                ))
            })
            .collect();
        Ok(TcpCluster {
            mesh,
            nodes,
            registry: observe.registry,
        })
    }

    /// Snapshot the cluster's health (see [`Cluster::metrics`]); crashed
    /// sites report no transport counters. `None` without a registry.
    pub fn metrics(&self) -> Option<ClusterMetrics> {
        let reg = self.registry.as_ref()?;
        Some(ClusterMetrics {
            metrics: reg.snapshot(),
            transport: self
                .live_nodes()
                .map(|(_, n)| (n.site.0, n.transport().stats_named(n.site)))
                .collect(),
        })
    }

    /// Node `i`.
    ///
    /// # Panics
    ///
    /// Panics if site `i` was crashed.
    pub fn node(&self, i: usize) -> &Arc<Node> {
        self.nodes[i].as_ref().expect("site was crashed")
    }

    /// All live nodes with their site indices.
    pub fn live_nodes(&self) -> impl Iterator<Item = (usize, &Arc<Node>)> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.as_ref().map(|n| (i, n)))
    }

    /// The underlying mesh (for stats and addresses).
    pub fn mesh(&self) -> &TcpMesh {
        &self.mesh
    }

    /// Crash site `i`: tear its TCP endpoint down (it neither sends nor
    /// receives afterwards), stop its timers, and drop the node. Survivors'
    /// failure detectors will suspect it and consensus will rotate away —
    /// this is the failover injection for the e12 scenario.
    pub fn crash(&mut self, i: usize) {
        self.mesh.crash(i);
        if let Some(n) = self.nodes[i].take() {
            n.stop_timers();
        }
    }

    /// Stop all timers and tear every endpoint down.
    pub fn shutdown(&mut self) {
        for n in self.nodes.iter().flatten() {
            n.stop_timers();
        }
        self.mesh.shutdown();
    }
}

impl Drop for TcpCluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for TcpCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpCluster")
            .field("sites", &self.nodes.len())
            .field("live", &self.nodes.iter().flatten().count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// ROADMAP item 3(a), for RelCast's `seen` and atomic broadcast's
    /// `delivered`: their size follows origins and holes, not messages.
    /// Every site casts both ways, so every origin's numbering runs in both
    /// sets. Consensus's store is bounded too: a decision is kept only until
    /// every member has reported delivering past it.
    #[test]
    fn a_hundred_thousand_abcasts_leave_a_range_or_two_per_origin() {
        const ROUNDS: usize = 1000;
        const PER_SITE: usize = 34;
        let cfg = NodeConfig {
            clock: ProtoClock::manual(),
            ..NodeConfig::default()
        };
        let c = Cluster::new_manual(3, NetConfig::fast(7), cfg);
        for round in 0..ROUNDS {
            for node in c.nodes() {
                for i in 0..PER_SITE {
                    node.abcast(format!("{round}.{i}"));
                }
                node.rbcast(format!("{round}"));
            }
            c.settle();
        }
        let total = ROUNDS * PER_SITE * 3;
        assert!(total >= 100_000);
        for node in c.nodes() {
            assert_eq!(node.ab_delivered().len(), total, "{}", node.site);
            assert_eq!(node.external_errors(), 0, "{}", node.site);
            assert_eq!(node.cast_seen(), ROUNDS * 3, "{}", node.site);
            // The last few decisions, not one per instance.
            assert!(node.consensus_instances() < 8, "{}", node.site);
            let seen = node.relcast.read(|s| s.seen_ranges());
            let delivered = node.abcast.read(|s| s.delivered_ranges());
            let sites: Vec<SiteId> = c.nodes().iter().map(|n| n.site).collect();
            for (what, ranges, origins) in [
                ("seen", seen, sites.clone()),
                ("delivered", delivered, sites),
            ] {
                assert!(ranges.iter().all(|r| origins.contains(&r.0)), "{ranges:?}");
                for &origin in &origins {
                    let of_origin = ranges.iter().filter(|r| r.0 == origin).count();
                    assert!(
                        (1..=2).contains(&of_origin),
                        "{}: {what} holds {of_origin} ranges of {origin}: {ranges:?}",
                        node.site
                    );
                }
            }
        }
    }

    /// With the failure detector off a node keeps no period: once a
    /// broadcast's frames are acknowledged and its acks have left — RelComm
    /// then has no deadline — the timer has no instant armed, and for the
    /// next 100 ms no node starts a single computation.
    #[test]
    fn an_idle_node_arms_nothing_and_spawns_nothing() {
        let c = Cluster::new(3, NetConfig::fast(3), NodeConfig::default());
        c.node(0).rbcast("ping");
        let armed = |n: &Arc<Node>| n.timer.alarm().deadline();
        let idle = |n: &Arc<Node>| n.relcomm.read(RelCommState::next_due).is_none();
        let patience = Instant::now() + Duration::from_secs(10);
        while !c.nodes().iter().all(|n| idle(n) && armed(n).is_none()) {
            assert!(Instant::now() < patience, "RelComm never went idle");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(c.nodes().iter().all(|n| n.rb_delivered().len() == 1));
        let spawned = |c: &Cluster| {
            let stats = c.nodes().iter().map(|n| n.runtime().stats());
            stats.map(|s| s.computations_spawned).collect::<Vec<_>>()
        };
        let before = spawned(&c);
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(spawned(&c), before, "an idle node started a computation");
        for n in c.nodes() {
            assert_eq!(armed(n), None, "{}: an idle node armed its timer", n.site);
            assert_eq!(n.external_errors(), 0, "{}", n.site);
        }
    }

    /// The Timer Module is the same on both clocks: on a manual clock a
    /// node's one alarm is armed for RelComm's next deadline
    /// ([`RelCommState::next_due`]) and, with `enable_fd`, the detector's
    /// next heartbeat ([`FdState::next_beat`]), whichever is first; and each
    /// ring, as the driver gives it, arms it again for what is left. The
    /// frame site 0 sends is never delivered, so it is resent again and
    /// again.
    #[test]
    fn a_manual_clock_alarm_is_armed_for_the_nodes_next_deadline() {
        for enable_fd in [false, true] {
            let clock = ProtoClock::manual();
            let cfg = NodeConfig {
                clock: clock.clone(),
                enable_fd,
                ..NodeConfig::default()
            };
            let c = Cluster::new_manual(2, NetConfig::fast(1), cfg);
            let node = c.node(0);
            let due = || {
                let relcomm = node.relcomm.read(RelCommState::next_due);
                let fd = enable_fd.then(|| node.fd.read(FdState::next_beat));
                relcomm.into_iter().chain(fd).min()
            };
            let armed = || node.timer.alarm().deadline();
            assert_eq!((armed(), armed().is_some()), (due(), enable_fd));
            node.rbcast("m");
            for ring in 0..12 {
                assert_eq!(armed(), due(), "fd {enable_fd}, ring {ring}");
                let at = armed().expect("something is always due");
                clock.advance(at.saturating_duration_since(clock.now()));
                samoa_net::ring_due(std::slice::from_ref(node));
                node.runtime().quiesce();
            }
            assert!(node.retransmissions() >= 2, "fd {enable_fd}");
            assert_eq!(node.external_errors(), 0);
        }
    }

    /// `Observe`'s promise, for causal tracing: an untraced cluster puts no
    /// context on any frame it sends and learns no hop count from any it
    /// receives; a traced one does both (so the zeros are not vacuous).
    #[test]
    fn an_untraced_cluster_learns_no_hops_a_traced_one_does() {
        let cfg = NodeConfig {
            clock: ProtoClock::manual(),
            ..NodeConfig::default()
        };
        let run = |observe: Observe| {
            let net = SimNet::new_manual(3, NetConfig::fast(1));
            let c = Cluster::new_observed_on(net, cfg.clone(), None, observe);
            for node in c.nodes() {
                node.abcast("m");
            }
            c.settle();
            let hops = |n: &Arc<Node>| n.relcomm.read(|s| s.hops_known());
            assert!(c.nodes().iter().all(|n| n.ab_delivered().len() == 3));
            c.nodes().iter().map(hops).collect::<Vec<_>>()
        };
        assert_eq!(run(Observe::default()), [0, 0, 0]);
        let sink = samoa_core::TraceBuffer::new() as Arc<dyn samoa_core::TraceSink>;
        assert!(run(Observe::traced(sink)).iter().all(|&known| known > 0));
    }

    /// The Network Module's rule for a datagram: a lone heartbeat, a data
    /// frame followed by acks, or acks alone. Anything else is dropped
    /// before a computation starts.
    #[test]
    fn a_datagram_outside_the_rule_starts_no_computation() {
        let cfg = NodeConfig {
            clock: ProtoClock::manual(),
            ..NodeConfig::default()
        };
        let trace = samoa_core::TraceBuffer::new();
        let observe = Observe::traced(Arc::clone(&trace) as Arc<dyn samoa_core::TraceSink>);
        let c = Cluster::new_observed_on(
            SimNet::new_manual(2, NetConfig::fast(1)),
            cfg,
            None,
            observe,
        );
        let node = c.node(0);
        // The handlers site 0 enters for `frames`, sent by site 1.
        let deliver = |frames: &[&[u8]]| {
            trace.drain();
            let before = node.runtime().stats().computations_spawned;
            c.net()
                .send(SiteId(1), SiteId(0), Bytes::from(frames.concat()));
            assert!(c.net().pump_one());
            node.runtime().quiesce();
            let spawned = node.runtime().stats().computations_spawned - before;
            let entered: Vec<String> = trace
                .drain()
                .into_iter()
                .filter_map(|e| match e.kind {
                    samoa_core::TraceKind::HandlerEnter { handler, .. } => {
                        Some(node.runtime().stack().handler_name(handler).to_string())
                    }
                    _ => None,
                })
                .collect();
            (spawned, entered)
        };
        let data = |seq| {
            let payload = Payload::Cast(crate::msgs::CastMsg {
                uid: crate::msgs::MsgUid {
                    origin: SiteId(1),
                    seq,
                },
                data: CastData::User(Bytes::from_static(b"x")),
            });
            Wire::Data {
                seq,
                ctx: None,
                payload,
            }
            .encode()
        };
        let (beat, ack, d1, d2) = (
            Wire::Heartbeat.encode(),
            Wire::Ack { seq: 1 }.encode(),
            data(1),
            data(2),
        );
        let nothing = (0, Vec::new());
        for (what, frames) in [
            ("a heartbeat and an ack", vec![&beat[..], &ack[..]]),
            ("an ack and a data frame", vec![&ack[..], &d1[..]]),
            ("two data frames", vec![&d1[..], &d2[..]]),
            ("a truncated trailing ack", vec![&d1[..], &ack[..4]]),
            ("an empty datagram", vec![]),
        ] {
            assert_eq!(deliver(&frames), nothing, "{what}");
        }
        assert_eq!(deliver(&[&beat[..]]), (1, vec!["fd.beat".to_string()]));
        let acks = deliver(&[&ack[..], &Wire::Ack { seq: 2 }.encode()[..]]);
        assert_eq!(acks, (1, vec!["relcomm.recv_ack".to_string()]));
        assert_eq!(node.external_errors(), 0);
    }
}
