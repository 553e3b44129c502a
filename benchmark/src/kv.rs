//! The replicated-KV workloads: a 3-site `samoa-proto` cluster on SimNet or
//! localhost TCP, driven by two closed-loop clients homed on sites 0 and 1.
//!
//! The cluster is assembled here from the public pieces (`SimNet` or
//! `TcpMesh`, and `Node::new_on`/`new_observed_on`) rather than through
//! `Cluster`, so the traced run can pass each node a [`TimedTransport`] and
//! its own sink.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use samoa_core::{Registry, TraceBuffer, TraceEvent, TraceKind, TraceSink};

use samoa_net::{NetConfig, SimNet, SiteId, TcpMesh, Transport};
use samoa_proto::{
    CastData, KvPending, KvReply, KvState, Node, NodeConfig, Observe, Payload, StackPolicy, Wire,
};

use crate::harness::{Counters, Gate, Workload, WARMUP_OPS};
use crate::lifecycle::{comp_phases, handler_spans, report_comp_phases};
use crate::load::{self, OpRecord, Round, CLIENTS};
use crate::probes;
use crate::report::Report;
use crate::spans::{self, op_id, write_trace_file, Span, SpanLog};
use crate::stats;
use crate::timed::{NetTimes, TimedTransport};

/// Keys the clients choose from.
const KEYS: u32 = 32;
/// How long a client waits for one operation before counting it failed.
const OP_TIMEOUT: Duration = Duration::from_secs(10);
/// Deadline for every site to apply everything submitted.
const CONVERGE_TIMEOUT: Duration = Duration::from_secs(20);
/// Most benchmark spans kept in memory during a traced phase.
const SPAN_CAP: usize = 400_000;
/// Most operations whose spans go into the trace file.
const TRACE_FILE_OPS: usize = 40;

/// Which network carries the cluster's datagrams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `SimNet` with `NetConfig::fast`: injected one-way delay uniform
    /// 0–20 µs, no loss — latency is processor time only, which is what
    /// these workloads measure.
    Sim,
    /// Length-prefixed framed TCP on localhost (`TcpMesh`).
    Tcp,
}

enum Net {
    Sim(SimNet),
    Tcp(TcpMesh),
}

/// What a traced cluster carries besides its nodes.
pub struct Tracing {
    /// One sink per site: each runtime numbers its computations from 1, so
    /// a shared sink could not tell them apart.
    pub sinks: Vec<Arc<TraceBuffer>>,
    /// Each site's runtime epoch as nanoseconds after `epoch` (taken when
    /// its node was built) — only used to place handler spans in the file.
    pub rt_offset_ns: Vec<u64>,
    pub registry: Arc<Registry>,
    pub spans: Arc<SpanLog>,
    pub net: Arc<NetTimes>,
}

/// `sites` nodes over one network.
pub struct KvCluster {
    nodes: Vec<Option<Arc<Node>>>,
    net: Net,
    /// Zero of every timestamp taken on this cluster (client records,
    /// benchmark spans, the program's causal events).
    pub epoch: Instant,
    pub tracing: Option<Tracing>,
}

impl KvCluster {
    pub fn build(
        backend: Backend,
        sites: usize,
        seed: u64,
        node_cfg: NodeConfig,
        traced: bool,
    ) -> KvCluster {
        let net = match backend {
            Backend::Sim => Net::Sim(SimNet::new(sites, NetConfig::fast(seed))),
            Backend::Tcp => Net::Tcp(TcpMesh::new(sites).expect("bind localhost TCP mesh")),
        };
        let epoch = Instant::now();
        let mut tracing = traced.then(|| {
            let spans = Arc::new(SpanLog::new(SPAN_CAP));
            Tracing {
                sinks: (0..sites).map(|_| TraceBuffer::new()).collect(),
                rt_offset_ns: Vec::new(),
                registry: Arc::new(Registry::new()),
                net: NetTimes::new(epoch, Arc::clone(&spans)),
                spans,
            }
        });
        let nodes = (0..sites)
            .map(|i| {
                let bare: Arc<dyn Transport> = match &net {
                    Net::Sim(n) => Arc::new(n.handle()),
                    Net::Tcp(m) => Arc::clone(m.net(i)) as Arc<dyn Transport>,
                };
                let site = SiteId(i as u16);
                let node = match &mut tracing {
                    None => Node::new_on(bare, site, node_cfg.clone()),
                    Some(t) => {
                        let node = Node::new_observed_on(
                            TimedTransport::wrap(bare, Arc::clone(&t.net)),
                            site,
                            node_cfg.clone(),
                            None,
                            Observe {
                                sink: Some(Arc::clone(&t.sinks[i]) as Arc<dyn TraceSink>),
                                registry: Some(Arc::clone(&t.registry)),
                                epoch: Some(epoch),
                            },
                        );
                        t.rt_offset_ns.push(epoch.elapsed().as_nanos() as u64);
                        node
                    }
                };
                Some(node)
            })
            .collect();
        KvCluster {
            nodes,
            net,
            epoch,
            tracing,
        }
    }

    /// Node `i`.
    ///
    /// # Panics
    ///
    /// Panics if site `i` was crashed.
    pub fn node(&self, i: usize) -> &Arc<Node> {
        self.nodes[i].as_ref().expect("site was crashed")
    }

    pub fn live(&self) -> impl Iterator<Item = &Arc<Node>> {
        self.nodes.iter().flatten()
    }

    /// Crash site `i`: take it off the network and drop the node.
    pub fn crash(&mut self, i: usize) {
        match &self.net {
            Net::Tcp(m) => m.crash(i),
            Net::Sim(n) => n.handle().crash(SiteId(i as u16)),
        }
        if let Some(n) = self.nodes[i].take() {
            n.stop_timers();
        }
    }

    pub fn counters(&self) -> Counters {
        let mut c = Counters::of_runtimes(self.live().map(|n| n.runtime()));
        match &self.net {
            Net::Sim(n) => {
                let s = n.handle().total_stats();
                c.datagrams = s.sent;
                c.net_dropped = s.dropped();
            }
            Net::Tcp(m) => {
                let s = m.total_stats();
                c.datagrams = s.frames_sent;
                c.net_dropped = s.dropped();
                c.net_retried = s.retried;
                c.net_reconnects = s.reconnects;
            }
        }
        c.relcomm_retransmits = self.live().map(|n| n.retransmissions()).sum();
        c
    }

    /// Wait until every live site applied `total` commands.
    pub fn converge(&self, total: usize) -> Gate {
        let end = Instant::now() + CONVERGE_TIMEOUT;
        loop {
            let applied: Vec<usize> = self.live().map(|n| n.kv_applied()).collect();
            if applied.iter().all(|&a| a == total) {
                return Ok(());
            }
            if Instant::now() > end {
                return Err(format!(
                    "sites applied {applied:?} commands, {total} were submitted"
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for KvCluster {
    fn drop(&mut self) {
        for n in self.live() {
            n.stop_timers();
        }
        match &mut self.net {
            Net::Sim(n) => n.shutdown(),
            Net::Tcp(m) => m.shutdown(),
        }
    }
}

/// What a client remembers about an operation in flight.
struct OpMeta {
    kind: u8,
    key: Bytes,
    /// The value a put or cas tries to install.
    value: Bytes,
}

/// Operation kinds, as `OpRecord::kind`.
const PUT: u8 = 0;
const GET: u8 = 1;
const CAS: u8 = 2;

/// One closed-loop client: its generator state and everything it was told.
pub struct KvClient {
    node: Arc<Node>,
    pub site: u16,
    id: u8,
    rng: StdRng,
    /// Last value this client saw for each key: what its next cas expects.
    observed: HashMap<Bytes, Option<Bytes>>,
    /// Every acknowledged operation: request id and the reply received.
    pub acked: Vec<(u64, KvReply)>,
    pub submitted: usize,
}

impl KvClient {
    pub fn new(node: Arc<Node>, id: usize, seed: u64) -> KvClient {
        KvClient {
            site: node.site.0,
            node,
            id: id as u8,
            rng: StdRng::seed_from_u64(seed ^ (id as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            observed: HashMap::new(),
            acked: Vec::new(),
            submitted: 0,
        }
    }

    /// Closed loop until `deadline`: 50 % put, 40 % get, 10 % cas over
    /// `KEYS` keys, `window` operations outstanding.
    pub fn run(&mut self, epoch: Instant, deadline: Instant, window: usize) -> Vec<OpRecord> {
        let KvClient {
            node,
            id,
            rng,
            observed,
            acked,
            submitted,
            ..
        } = self;
        // `observed` is read by submit and written by wait; both run on this
        // thread, never at once.
        let observed = std::cell::RefCell::new(observed);
        load::closed_loop(
            *id,
            epoch,
            deadline,
            window,
            || {
                let key = Bytes::from(format!("key-{}", rng.gen_range(0..KEYS)));
                let value = Bytes::from(format!("c{id}-o{submitted}"));
                *submitted += 1;
                let (kind, pending) = match rng.gen_range(0..10u32) {
                    0..=4 => (PUT, node.kv_put(key.clone(), value.clone())),
                    5..=8 => (GET, node.kv_get(key.clone())),
                    _ => {
                        let expect = observed.borrow().get(&key).cloned().flatten();
                        (CAS, node.kv_cas(key.clone(), expect, value.clone()))
                    }
                };
                (kind, pending.req(), (pending, OpMeta { kind, key, value }))
            },
            |(pending, meta): (KvPending, OpMeta)| {
                let req = pending.req();
                let Some(reply) = pending.wait(OP_TIMEOUT) else {
                    return false;
                };
                // put replies with the previous value, get and cas with the
                // value now stored.
                let now = if meta.kind == PUT {
                    Some(meta.value)
                } else {
                    reply.value.clone()
                };
                observed.borrow_mut().insert(meta.key, now);
                acked.push((req, reply));
                true
            },
        )
    }
}

/// Run every client for one round, two threads at most.
pub fn clients_round(
    clients: &mut [KvClient],
    epoch: Instant,
    deadline: Instant,
    window: usize,
) -> Vec<OpRecord> {
    assert!(clients.len() <= CLIENTS);
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| scope.spawn(move || c.run(epoch, deadline, window)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// The KV correctness gates, over the live sites: every site applied
/// exactly the `total` commands submitted; replaying one site's log through
/// a fresh state machine reproduces every site's digest (so every
/// acknowledged put is in the state each replica serves reads from), and
/// every acknowledged operation `(site, request id, reply)` is in that log
/// with the reply the total order implies.
pub fn verify_kv<'a>(
    cluster: &KvCluster,
    total: usize,
    acked: impl Iterator<Item = (u16, u64, &'a KvReply)>,
) -> Gate {
    cluster.converge(total)?;
    let log = cluster.live().next().expect("a live site").kv_log();
    let mut model = KvState::default();
    let mut replies: HashMap<(u16, u64), KvReply> = HashMap::with_capacity(log.len());
    for entry in &log {
        let reply = model.apply(entry.uid, entry.cmd.clone());
        replies.insert((entry.uid.origin.0, entry.cmd.req()), reply);
    }
    for n in cluster.live() {
        if n.kv_digest() != model.digest() {
            return Err(format!(
                "site {} digest {:#x} differs from its log replayed ({:#x})",
                n.site.0,
                n.kv_digest(),
                model.digest()
            ));
        }
    }
    for (site, req, got) in acked {
        match replies.get(&(site, req)) {
            Some(want) if want == got => {}
            Some(want) => {
                return Err(format!(
                    "site {site} req {req}: replied {got:?}, the total order says {want:?}"
                ))
            }
            None => {
                return Err(format!(
                    "site {site} req {req} was acknowledged but is in no log"
                ))
            }
        }
    }
    Ok(())
}

/// Everything `clients` were told, as `verify_kv` takes it.
pub fn acked_of(clients: &[KvClient]) -> impl Iterator<Item = (u16, u64, &KvReply)> {
    clients.iter().flat_map(|c| {
        c.acked
            .iter()
            .map(move |(req, reply)| (c.site, *req, reply))
    })
}

/// `kv-sim3-closed`, `kv-sim3-window8`, `kv-tcp3-closed`.
pub struct KvWorkload {
    pub name: String,
    pub backend: Backend,
    pub window: usize,
    pub seed: u64,
}

pub struct KvEnv {
    pub cluster: KvCluster,
    pub clients: Vec<KvClient>,
}

impl KvEnv {
    /// A 3-site cluster under `vca-basic` with two clients on sites 0 and
    /// 1, warmed up.
    fn new(w: &KvWorkload, traced: bool) -> KvEnv {
        let cluster = KvCluster::build(
            w.backend,
            3,
            w.seed,
            NodeConfig::with_policy(StackPolicy::Basic),
            traced,
        );
        let mut clients: Vec<KvClient> = (0..CLIENTS)
            .map(|i| KvClient::new(Arc::clone(cluster.node(i)), i, w.seed))
            .collect();
        warm_up(&mut clients, cluster.epoch, w.window);
        KvEnv { cluster, clients }
    }
}

/// `WARMUP_OPS` operations across the clients, not measured.
pub fn warm_up(clients: &mut [KvClient], epoch: Instant, window: usize) {
    while clients.iter().map(|c| c.submitted).sum::<usize>() < WARMUP_OPS {
        clients_round(
            clients,
            epoch,
            Instant::now() + Duration::from_millis(20),
            window,
        );
    }
}

impl Workload for KvWorkload {
    type Env = KvEnv;

    fn cpu_bound(&self) -> bool {
        true
    }

    fn setup(&self, traced: bool) -> KvEnv {
        KvEnv::new(self, traced)
    }

    fn round(&self, env: &mut KvEnv, deadline: Instant) -> Vec<OpRecord> {
        clients_round(&mut env.clients, env.cluster.epoch, deadline, self.window)
    }

    fn counters(&self, env: &KvEnv) -> Counters {
        env.cluster.counters()
    }

    fn verify(&self, env: &mut KvEnv) -> Gate {
        let total = env.clients.iter().map(|c| c.submitted).sum();
        verify_kv(&env.cluster, total, acked_of(&env.clients))
    }

    fn layer_report(&self, _env: &KvEnv, rounds: &[Round], r: &mut Report) {
        report_op_kinds(rounds, r);
    }

    fn traced_report(&self, env: &mut KvEnv, rounds: &[Round], r: &mut Report) -> u64 {
        let sites: Vec<u16> = env.clients.iter().map(|c| c.site).collect();
        traced_kv_report(&self.name, &env.cluster, rounds, r, |o| {
            (sites[usize::from(o.client)], o.tag)
        })
    }

    fn probes(&self, budget: Duration, r: &mut Report) {
        let each = budget / 6;
        probes::proto_codecs(each, r);
        match self.backend {
            Backend::Sim => probes::net_sim(self.seed, each, r),
            Backend::Tcp => probes::net_tcp(each, r),
        }
        if self.name == "kv-sim3-closed" {
            probes::single_site_op(self.seed, each * 2, r);
        }
    }
}

/// Median latency by operation kind.
pub fn report_op_kinds(rounds: &[Round], r: &mut Report) {
    for (kind, name) in [
        (0, "client.put_p50_us"),
        (1, "client.get_p50_us"),
        (2, "client.cas_p50_us"),
    ] {
        let lat: Vec<u64> = rounds
            .iter()
            .flat_map(|r| &r.ops)
            .filter(|o| o.ok && o.kind == kind)
            .map(OpRecord::latency_ns)
            .collect();
        let n = lat.len();
        r.single(name, stats::p50_us(lat), n);
    }
}

/// Where the program's causal events put one operation on the timeline.
#[derive(Default, Clone, Copy)]
struct OpMarks {
    first_send: Option<u64>,
    ab_deliver: Option<u64>,
    kv_apply: Option<u64>,
    ctx_sends: u32,
}

/// Digest a traced KV phase: the per-operation budget from the causal
/// events joined to the client spans by `(site, op)`, the per-computation
/// phases, the net timings, the registry's instruments — and the trace
/// file. Returns the number of events and spans recorded.
///
/// `origin` names the site and request id of a client record.
pub fn traced_kv_report(
    workload: &str,
    cluster: &KvCluster,
    rounds: &[Round],
    r: &mut Report,
    origin: impl Fn(&OpRecord) -> (u16, u64),
) -> u64 {
    let t = cluster.tracing.as_ref().expect("traced cluster");
    let per_site: Vec<Vec<TraceEvent>> = t.sinks.iter().map(|s| s.drain()).collect();
    // The measured window: sinks and span log also hold the warm-up.
    let measured = || rounds.iter().flat_map(|r| &r.ops);
    let from_ns = measured().map(|o| o.start_ns).min().unwrap_or(0);
    let to_ns = measured().map(|o| o.done_ns).max().unwrap_or(0);
    let in_window = |t_ns: u64| (from_ns..=to_ns).contains(&t_ns);
    // Runtime events are stamped against their runtime's own epoch.
    let mut recorded = 0u64;
    for (events, offset) in per_site.iter().zip(&t.rt_offset_ns) {
        recorded += events
            .iter()
            .filter(|e| in_window(e.t_ns + e.kind.comp().map_or(0, |_| *offset)))
            .count() as u64;
    }

    // (origin, request id) -> abcast sequence number, from the total order.
    let log = cluster.live().next().expect("a live site").kv_log();
    let seq_of: HashMap<(u16, u64), u64> = log
        .iter()
        .map(|e| ((e.uid.origin.0, e.cmd.req()), e.uid.seq))
        .collect();

    let mut marks: HashMap<u64, OpMarks> = HashMap::new();
    let mut instants = Vec::new();
    for e in per_site.iter().flatten() {
        let (id, name, pid) = match e.kind {
            TraceKind::ClientSubmit { site, op } => (op_id(site, op), "ClientSubmit", site),
            TraceKind::CtxSend {
                from, origin, op, ..
            } => {
                let id = op_id(origin, op);
                let m = marks.entry(id).or_default();
                m.ctx_sends += 1;
                if from == origin {
                    m.first_send = Some(m.first_send.map_or(e.t_ns, |t| t.min(e.t_ns)));
                }
                (id, "CtxSend", from)
            }
            TraceKind::CtxRecv {
                site, origin, op, ..
            } => (op_id(origin, op), "CtxRecv", site),
            TraceKind::AbDeliver {
                site, origin, op, ..
            } => {
                if site == origin {
                    marks.entry(op_id(origin, op)).or_default().ab_deliver = Some(e.t_ns);
                }
                (op_id(origin, op), "AbDeliver", site)
            }
            TraceKind::KvApply { site, origin, op } => {
                if site == origin {
                    marks.entry(op_id(origin, op)).or_default().kv_apply = Some(e.t_ns);
                }
                (op_id(origin, op), "KvApply", site)
            }
            _ => continue,
        };
        instants.push(spans::Instant {
            name: name.to_string(),
            op: id,
            pid: u32::from(pid),
            t_ns: e.t_ns,
        });
    }

    // The budget: each operation's timeline cut at the marks, contiguous
    // from the moment its submit call returned.
    let mut segs: [Vec<u64>; 4] = Default::default();
    let mut hops = Vec::new();
    let mut client_spans = Vec::new();
    for o in measured() {
        let (site, req) = origin(o);
        let Some(seq) = seq_of.get(&(site, req)) else {
            continue;
        };
        let id = op_id(site, *seq);
        client_spans.extend(op_spans(o, id, site));
        let Some(m) = marks.get(&id) else { continue };
        let (Some(t2), Some(t3), Some(t4), true) = (m.first_send, m.ab_deliver, m.kv_apply, o.ok)
        else {
            continue;
        };
        let t2 = t2.max(o.submitted_ns);
        let t3 = t3.max(t2);
        let t4 = t4.max(t3);
        segs[0].push(t2 - o.submitted_ns);
        segs[1].push(t3 - t2);
        segs[2].push(t4 - t3);
        segs[3].push(o.done_ns.saturating_sub(t4));
        hops.push(m.ctx_sends);
    }
    let n = hops.len();
    let names = [
        "proto.budget.submit_to_first_send_p50_us",
        "proto.budget.first_send_to_abdeliver_p50_us",
        "proto.budget.abdeliver_to_kvapply_p50_us",
        "proto.budget.kvapply_to_reply_p50_us",
    ];
    let mut budget_sum = 0.0;
    for (name, samples) in names.into_iter().zip(segs) {
        let p50 = stats::p50_us(samples);
        budget_sum += p50;
        r.single(name, p50, n);
    }
    r.single(
        "proto.budget.hops_per_op",
        hops.iter().map(|&h| f64::from(h)).sum::<f64>() / n.max(1) as f64,
        n,
    );
    // Budget identity: the four segments plus the submit call should add up
    // to the operation. A gap means a layer boundary is missing.
    let ok_ops = || measured().filter(|o| o.ok);
    let submit_p50 = stats::p50_us(ok_ops().map(|o| o.submitted_ns - o.issued_ns).collect());
    let op_p50 = stats::p50_us(ok_ops().map(OpRecord::latency_ns).collect());
    r.single(
        "proto.budget.identity_gap",
        ((budget_sum + submit_p50) - op_p50).abs() / op_p50.max(1e-9),
        n,
    );

    let mut phases: [Vec<u64>; 4] = Default::default();
    for events in &per_site {
        for (all, one) in phases.iter_mut().zip(comp_phases(events)) {
            all.extend(one);
        }
    }
    report_comp_phases(phases, r);

    // Net layer, through the TimedTransport. Byte and wire counts, like the
    // registry's instruments below, cover the whole traced phase, warm-up
    // included: they are per operation in the total order.
    let total_ops = log.len();
    let net = t.net.take();
    r.single(
        "net.bytes_per_op",
        net.bytes as f64 / total_ops.max(1) as f64,
        total_ops,
    );
    let n_send = net.send_call_ns.len();
    r.single(
        "net.send_call_p50_us",
        stats::p50_us(net.send_call_ns),
        n_send,
    );
    let n_transit = net.transit_ns.len();
    r.single(
        "net.transit_p50_us",
        stats::p50_us(net.transit_ns),
        n_transit,
    );
    let n_cb = net.deliver_cb_ns.len();
    r.single(
        "net.deliver_cb_p50_us",
        stats::p50_us(net.deliver_cb_ns),
        n_cb,
    );
    // Decided consensus instances, read off the wire: the inverse is the
    // operations ordered per batch.
    let mut instances = std::collections::BTreeSet::new();
    for frame in net.frames {
        if let Ok(Wire::Data {
            payload: Payload::Cast(cast),
            ..
        }) = Wire::decode(frame)
        {
            if let CastData::Decide { inst, .. } = cast.data {
                instances.insert(inst);
            }
        }
    }
    r.single(
        "proto.consensus.instances_per_op",
        instances.len() as f64 / total_ops.max(1) as f64,
        total_ops,
    );

    let snap = t.registry.snapshot();
    let sum_counters = |suffix: &str| -> u64 {
        snap.counters
            .iter()
            .filter(|(k, _)| k.ends_with(suffix))
            .map(|(_, v)| *v)
            .sum()
    };
    let per_total = |x: u64| x as f64 / total_ops.max(1) as f64;
    r.single(
        "proto.relcomm.sends_per_op",
        per_total(sum_counters(".relcomm.sends")),
        total_ops,
    );
    r.single(
        "proto.consensus.rounds_per_op",
        per_total(sum_counters(".consensus.rounds")),
        total_ops,
    );
    r.single(
        "proto.membership.view_changes",
        sum_counters(".consensus.view_changes") as f64,
        1,
    );
    let gauges: Vec<f64> = snap
        .gauges
        .iter()
        .filter(|(k, _)| k.ends_with(".relcomm.rto_us"))
        .map(|(_, v)| *v as f64)
        .collect();
    r.single("proto.relcomm.rto_us", stats::median(&gauges), gauges.len());
    for (suffix, name) in [
        (".abcast.lag_us", "proto.abcast.lag_p50_us"),
        (".kv.apply_latency_us", "proto.kv.apply_latency_p50_us"),
    ] {
        let hs: Vec<_> = snap
            .histograms
            .iter()
            .filter(|(k, h)| k.ends_with(suffix) && h.count > 0)
            .map(|(_, h)| h)
            .collect();
        let p50s: Vec<f64> = hs.iter().map(|h| h.p50).collect();
        r.single(
            name,
            stats::median(&p50s),
            hs.iter().map(|h| h.count as usize).sum(),
        );
    }

    // The trace file: the first measured operations' spans, with the
    // program's causal events and handler executions of the same stretch.
    let (net_spans, dropped) = t.spans.take();
    recorded += client_spans.len() as u64;
    recorded += net_spans.iter().filter(|s| in_window(s.start_ns)).count() as u64;
    r.single("trace.dropped_events", dropped as f64, 1);
    client_spans.sort_by_key(|s| s.start_ns);
    let until_ns = client_spans
        .iter()
        .filter(|s| s.name == "client.op")
        .nth(TRACE_FILE_OPS)
        .map_or(to_ns, |s| s.start_ns);
    let in_file = |s: &Span| s.start_ns >= from_ns && s.end_ns <= until_ns;
    let mut file_spans: Vec<Span> = client_spans
        .into_iter()
        .chain(net_spans)
        .filter(in_file)
        .collect();
    for (site, events) in per_site.iter().enumerate() {
        file_spans.extend(handler_spans(events, site as u32, t.rt_offset_ns[site]).filter(in_file));
    }
    instants.retain(|i| (from_ns..=until_ns).contains(&i.t_ns));
    write_trace_file(workload, &file_spans, &instants);
    recorded
}

/// The benchmark's spans around one operation.
fn op_spans(o: &OpRecord, id: u64, site: u16) -> [Span; 3] {
    let span = |name, parent, start_ns, end_ns| Span {
        name,
        parent,
        op: id,
        pid: u32::from(site),
        tid: 10 + u32::from(o.client),
        start_ns,
        end_ns,
    };
    [
        span("client.op", None, o.start_ns, o.done_ns),
        span(
            "client.submit",
            Some("client.op"),
            o.issued_ns,
            o.submitted_ns,
        ),
        span(
            "client.wait",
            Some("client.op"),
            o.wait_from_ns.max(o.submitted_ns),
            o.done_ns,
        ),
    ]
}
