//! Always-on structured tracing for the versioning runtime (`samoa-trace`).
//!
//! The check-only [`SchedHook`](crate::sched::SchedHook) serialises the
//! runtime into cooperative turn-taking — invaluable for exploration,
//! useless in production. This module is the *other* window: a lightweight
//! [`TraceSink`] that receives structured, timestamped [`TraceEvent`]s for
//! the full computation lifecycle and is cheap enough to stay attached
//! under load:
//!
//! * **external-event spawn** ([`TraceKind::Spawn`], with the algorithm the
//!   computation runs under),
//! * **Rule 2 admission waits**
//!   ([`TraceKind::WaitBegin`]/[`WaitEnd`](TraceKind::WaitEnd), carrying the
//!   identity of the *blocking* computation and microprotocol),
//! * **handler execution**
//!   ([`TraceKind::HandlerEnter`]/[`HandlerExit`](TraceKind::HandlerExit),
//!   with service time),
//! * **Rule 4 early releases** ([`TraceKind::EarlyRelease`], bound-visit vs.
//!   route-unreachable), and
//! * **Rule 3 completion** ([`TraceKind::Complete`]).
//!
//! ## Cost model
//!
//! A runtime built without a sink ([`Runtime::new`](crate::Runtime::new),
//! [`Runtime::with_config`](crate::Runtime::with_config)) carries
//! `trace: None`, and **every instrumentation site is a single
//! well-predicted branch**: event construction — including the
//! `Instant::now()` timestamp — happens inside the `if let Some(..)`, so
//! the no-sink hot path does no clock reads, no allocation, and no atomic
//! traffic. `crates/core/tests/no_sink_guard.rs` asserts this by
//! checking the process-global [`events_emitted`] counter stays flat across
//! an untraced workload.
//!
//! With a sink attached, the shipped [`TraceBuffer`] keeps the hot path
//! short: events are appended to small sharded ring buffers (one shard per
//! OS thread, by thread-id hash, so cross-thread contention is negligible)
//! and full buffers are flushed as batches through an [`std::sync::mpsc`]
//! channel to the collector, where [`TraceBuffer::drain`] reassembles the
//! globally time-ordered stream.
//!
//! ## On top of the stream
//!
//! * [`ContentionProfile`] — per-microprotocol contention profiles:
//!   admission-wait latency histograms (p50/p95/p99), handler service
//!   times, early-release counts, plus a per-algorithm rollup.
//! * [`Runtime::waiters`](crate::Runtime::waiters) — a live wait-for-graph
//!   snapshot ([`WaitForGraph`]) naming who blocks whom, for
//!   stall/deadlock diagnosis.
//! * [`chrome_trace`] / [`ChromeTrace`] — Chrome `trace_event` JSON,
//!   loadable in `chrome://tracing` or <https://ui.perfetto.dev>, one
//!   track per computation.
//! * [`render_summary`] — a human-readable text digest.
//!
//! See guide §8 ("Observing a stack") for a worked example.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::error::CompId;
use crate::handler::HandlerId;
use crate::policy::Policy;
use crate::protocol::ProtocolId;
use crate::sched::ReleaseReason;
use crate::stack::Stack;

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// One structured trace event: a timestamp (nanoseconds since the runtime's
/// construction) plus what happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the owning runtime's epoch (its construction).
    pub t_ns: u64,
    /// What happened.
    pub kind: TraceKind,
}

/// The lifecycle points a [`TraceSink`] observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Rule 1 ran: an external event spawned computation `comp` under
    /// algorithm `algo`.
    Spawn {
        /// The new computation.
        comp: CompId,
        /// The concurrency-control algorithm it was declared under.
        algo: Policy,
    },
    /// Rule 2: `comp` found its admission predicate false for a handler of
    /// `protocol` and is about to block.
    WaitBegin {
        /// The blocked computation.
        comp: CompId,
        /// The microprotocol whose admission is awaited.
        protocol: ProtocolId,
        /// The oldest still-active predecessor holding `protocol` — the
        /// computation whose release this wait is for. `None` for 2PL lock
        /// waits (the lock table does not track owners) and for races where
        /// the holder released between the check and the snapshot.
        blocker: Option<CompId>,
    },
    /// Rule 2: the matching wait ended; `comp` was admitted.
    WaitEnd {
        /// The previously blocked computation.
        comp: CompId,
        /// The microprotocol that was awaited.
        protocol: ProtocolId,
        /// How long the wait lasted.
        wait_ns: u64,
        /// The blocker reported by the matching [`TraceKind::WaitBegin`].
        blocker: Option<CompId>,
    },
    /// A handler was admitted and is about to execute.
    HandlerEnter {
        /// The executing computation.
        comp: CompId,
        /// The handler.
        handler: HandlerId,
        /// The handler's microprotocol.
        protocol: ProtocolId,
    },
    /// The handler function returned.
    HandlerExit {
        /// The executing computation.
        comp: CompId,
        /// The handler.
        handler: HandlerId,
        /// The handler's microprotocol.
        protocol: ProtocolId,
        /// Service time of this call (enter → exit).
        service_ns: u64,
    },
    /// Rule 4: `comp` released `protocol` to successors before completing.
    EarlyRelease {
        /// The releasing computation.
        comp: CompId,
        /// The released microprotocol.
        protocol: ProtocolId,
        /// Bound-visit (VCAbound) or route-unreachable (VCAroute).
        reason: ReleaseReason,
    },
    /// Rule 3: `comp` completed and released everything it still held.
    Complete {
        /// The completed computation.
        comp: CompId,
    },
    /// Cluster: a client operation — the root of a causal tree — was
    /// submitted at `site`. `(site, op)` is the operation's cluster-wide
    /// identity; every event below that shares the pair is causally
    /// downstream of this one.
    ClientSubmit {
        /// The originating site.
        site: u16,
        /// The per-site operation id (the abcast uid sequence).
        op: u64,
    },
    /// Cluster: a wire message carrying causal context for `(origin, op)`
    /// left `from` towards `to`.
    CtxSend {
        /// The sending site.
        from: u16,
        /// The destination site.
        to: u16,
        /// The site that originated the operation.
        origin: u16,
        /// The operation id at the origin.
        op: u64,
        /// Causal hop count (0 = first transmission from the origin).
        hop: u8,
    },
    /// Cluster: a wire message carrying causal context for `(origin, op)`
    /// arrived at `site`.
    CtxRecv {
        /// The receiving site.
        site: u16,
        /// The site that originated the operation.
        origin: u16,
        /// The operation id at the origin.
        op: u64,
        /// Causal hop count observed on the wire.
        hop: u8,
    },
    /// Cluster: abcast delivered `(origin, op)` at `site` in total order.
    AbDeliver {
        /// The delivering site.
        site: u16,
        /// The site that originated the operation.
        origin: u16,
        /// The operation id at the origin.
        op: u64,
        /// Submit-to-delivery lag as observed at the origin site (0 at
        /// non-origin sites, which never saw the submit).
        lag_ns: u64,
    },
    /// Cluster: the replicated KV state machine applied `(origin, op)` at
    /// `site` — the leaf of the operation's causal tree on that site.
    KvApply {
        /// The applying site.
        site: u16,
        /// The site that originated the operation.
        origin: u16,
        /// The operation id at the origin.
        op: u64,
    },
    /// Cluster: RelComm retransmitted a pending message to `to`.
    Retransmit {
        /// The retransmitting site.
        site: u16,
        /// The peer being retransmitted to.
        to: u16,
        /// Retransmission attempts so far for this message (1-based).
        attempts: u32,
    },
    /// Cluster: `site` installed membership view `view_id`.
    ClusterViewChange {
        /// The site installing the view.
        site: u16,
        /// The new view number.
        view_id: u64,
        /// Members in the new view.
        members: u32,
    },
}

impl TraceKind {
    /// The computation this event belongs to, if any (cluster events belong
    /// to sites instead).
    pub fn comp(&self) -> Option<CompId> {
        match *self {
            TraceKind::Spawn { comp, .. }
            | TraceKind::WaitBegin { comp, .. }
            | TraceKind::WaitEnd { comp, .. }
            | TraceKind::HandlerEnter { comp, .. }
            | TraceKind::HandlerExit { comp, .. }
            | TraceKind::EarlyRelease { comp, .. }
            | TraceKind::Complete { comp } => Some(comp),
            TraceKind::ClientSubmit { .. }
            | TraceKind::CtxSend { .. }
            | TraceKind::CtxRecv { .. }
            | TraceKind::AbDeliver { .. }
            | TraceKind::KvApply { .. }
            | TraceKind::Retransmit { .. }
            | TraceKind::ClusterViewChange { .. } => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Sink
// ---------------------------------------------------------------------------

/// Receiver of structured trace events.
///
/// Distinct from [`SchedHook`](crate::sched::SchedHook): a sink only
/// *observes* — it must never block the calling thread on runtime state, and
/// it should return quickly (the shipped [`TraceBuffer`] appends to a
/// sharded buffer and occasionally flushes a batch through a channel).
/// Implementations must be `Send + Sync`; events arrive concurrently from
/// runtime worker threads.
pub trait TraceSink: Send + Sync {
    /// An event occurred. Timestamps are nanoseconds since the owning
    /// runtime's construction and are monotone per emitting thread.
    fn event(&self, ev: TraceEvent);
}

/// Process-global count of trace events ever emitted (any runtime, any
/// sink). Instrumentation sites increment it *inside* the sink branch, so a
/// workload on an untraced runtime leaves it untouched — the
/// `no_sink_guard` test in `crates/core/tests` pins the one-branch cost
/// model to this counter.
pub fn events_emitted() -> u64 {
    EMITTED.load(Ordering::Relaxed)
}

static EMITTED: AtomicU64 = AtomicU64::new(0);

/// Hand `kind` to `sink`, stamped relative to `epoch`.
pub(crate) fn deliver(sink: &Arc<dyn TraceSink>, epoch: Instant, kind: TraceKind) {
    let t_ns = epoch.elapsed().as_nanos() as u64;
    deliver_at(sink, t_ns, kind);
}

/// [`deliver`] with an already-taken timestamp.
pub(crate) fn deliver_at(sink: &Arc<dyn TraceSink>, t_ns: u64, kind: TraceKind) {
    EMITTED.fetch_add(1, Ordering::Relaxed);
    sink.event(TraceEvent { t_ns, kind });
}

/// Emit `kind` into `sink`, stamped relative to `epoch` — the public face of
/// the runtime's internal emission path, for instrumentation that lives
/// *outside* `samoa-core` (the cluster layer's causal-context events).
/// Counts against [`events_emitted`] like every other emission, so the
/// `no_sink_guard` cost-model proof covers external emitters too: callers
/// must hold the sink as an `Option` and only reach this inside the branch.
pub fn emit(sink: &Arc<dyn TraceSink>, epoch: Instant, kind: TraceKind) {
    deliver(sink, epoch, kind);
}

// ---------------------------------------------------------------------------
// TraceBuffer — the shipped production sink
// ---------------------------------------------------------------------------

/// The default production sink: per-thread ring buffers flushed through an
/// [`std::sync::mpsc`] channel.
///
/// Each OS thread appends to its own shard (chosen by thread-id hash), so
/// the common case is an uncontended lock and a `Vec::push`. When a shard
/// reaches capacity its contents are sent as one batch to the collector
/// side, which [`TraceBuffer::drain`] empties — together with the still
/// partial shards — into a single stream sorted by timestamp.
pub struct TraceBuffer {
    shards: Box<[Mutex<Vec<TraceEvent>>]>,
    shard_cap: usize,
    tx: mpsc::Sender<Vec<TraceEvent>>,
    rx: Mutex<mpsc::Receiver<Vec<TraceEvent>>>,
}

impl TraceBuffer {
    /// A buffer with default sharding (16 shards × 1024 events).
    pub fn new() -> Arc<TraceBuffer> {
        TraceBuffer::with_capacity(16, 1024)
    }

    /// A buffer with `shards` ring buffers of `shard_cap` events each.
    pub fn with_capacity(shards: usize, shard_cap: usize) -> Arc<TraceBuffer> {
        let (tx, rx) = mpsc::channel();
        Arc::new(TraceBuffer {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(Vec::new()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            shard_cap: shard_cap.max(1),
            tx,
            rx: Mutex::new(rx),
        })
    }

    /// Flush every shard and drain all batches into one stream, sorted by
    /// timestamp. Per-thread event order is preserved (the sort is stable
    /// and a thread's batches arrive in emission order).
    ///
    /// Call after [`Runtime::quiesce`](crate::Runtime::quiesce) for a
    /// complete trace; draining mid-run yields a consistent prefix per
    /// thread but may miss in-flight events.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let rx = self.rx.lock();
        let mut out: Vec<TraceEvent> = Vec::new();
        for batch in rx.try_iter() {
            out.extend(batch);
        }
        for shard in self.shards.iter() {
            out.extend(std::mem::take(&mut *shard.lock()));
        }
        out.sort_by_key(|e| e.t_ns);
        out
    }
}

impl TraceSink for TraceBuffer {
    fn event(&self, ev: TraceEvent) {
        let idx = thread_shard(self.shards.len());
        let mut buf = self.shards[idx].lock();
        buf.push(ev);
        if buf.len() >= self.shard_cap {
            let batch = std::mem::take(&mut *buf);
            drop(buf);
            // A send can only fail if the receiver half is gone, which
            // cannot happen while `self` is alive.
            let _ = self.tx.send(batch);
        }
    }
}

impl std::fmt::Debug for TraceBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceBuffer")
            .field("shards", &self.shards.len())
            .field("shard_cap", &self.shard_cap)
            .finish()
    }
}

/// This thread's shard index: thread-id hash, cached per thread.
fn thread_shard(n: usize) -> usize {
    use std::cell::Cell;
    use std::hash::{Hash, Hasher};
    thread_local! {
        static SHARD_HASH: Cell<u64> = const { Cell::new(u64::MAX) };
    }
    let h = SHARD_HASH.with(|c| {
        let mut v = c.get();
        if v == u64::MAX {
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            std::thread::current().id().hash(&mut hasher);
            v = hasher.finish() & (u64::MAX >> 1); // reserve the sentinel
            c.set(v);
        }
        v
    });
    (h % n as u64) as usize
}

// ---------------------------------------------------------------------------
// Runtime-side control block: timestamps + wait-for registry
// ---------------------------------------------------------------------------

/// One edge of the wait-for graph: `waiter` is blocked in admission on
/// `protocol`, waiting for `blocker` to release it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitEdge {
    /// The blocked computation.
    pub waiter: CompId,
    /// The microprotocol whose admission is awaited.
    pub protocol: ProtocolId,
    /// The oldest still-active predecessor holding the microprotocol
    /// (`None` for 2PL lock waits).
    pub blocker: Option<CompId>,
}

/// A point-in-time snapshot of who blocks whom
/// ([`Runtime::waiters`](crate::Runtime::waiters)).
#[derive(Debug, Clone, Default)]
pub struct WaitForGraph {
    /// The blocked-on edges at snapshot time.
    pub edges: Vec<WaitEdge>,
}

impl WaitForGraph {
    /// No computation is blocked.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Does the waiter → blocker relation contain a cycle? Versioning waits
    /// always point from younger to strictly older computations, so a cycle
    /// here means the runtime's deadlock-freedom argument has been violated
    /// (or the snapshot mixes runtimes) — surface it loudly.
    pub fn has_cycle(&self) -> bool {
        let mut succ: HashMap<CompId, Vec<CompId>> = HashMap::new();
        for e in &self.edges {
            if let Some(b) = e.blocker {
                succ.entry(e.waiter).or_default().push(b);
            }
        }
        // Iterative DFS with tri-state marks.
        let mut state: HashMap<CompId, u8> = HashMap::new(); // 1 = open, 2 = done
        for &start in succ.keys() {
            if state.contains_key(&start) {
                continue;
            }
            let mut stack = vec![(start, 0usize)];
            state.insert(start, 1);
            while let Some(&mut (node, ref mut i)) = stack.last_mut() {
                let next = succ.get(&node).and_then(|s| s.get(*i)).copied();
                *i += 1;
                match next {
                    Some(n) => match state.get(&n) {
                        Some(1) => return true,
                        Some(_) => {}
                        None => {
                            state.insert(n, 1);
                            stack.push((n, 0));
                        }
                    },
                    None => {
                        state.insert(node, 2);
                        stack.pop();
                    }
                }
            }
        }
        false
    }

    /// Human-readable rendering with microprotocol names, one edge per
    /// line: `k4 waits on RelComm held by k2`.
    pub fn render(&self, stack: &Stack) -> String {
        if self.edges.is_empty() {
            return "no computation is blocked\n".to_string();
        }
        let mut out = String::new();
        for e in &self.edges {
            match e.blocker {
                Some(b) => out.push_str(&format!(
                    "k{} waits on {} held by k{}\n",
                    e.waiter,
                    stack.protocol_name(e.protocol),
                    b
                )),
                None => out.push_str(&format!(
                    "k{} waits on {} (2PL lock)\n",
                    e.waiter,
                    stack.protocol_name(e.protocol)
                )),
            }
        }
        out
    }
}

/// Runtime-held trace state: the sink, the timestamp epoch, and the
/// wait-for registry behind [`Runtime::waiters`](crate::Runtime::waiters).
/// Present only when a sink is attached; the untraced runtime carries
/// `None` and pays one branch per instrumentation site.
pub(crate) struct TraceCtl {
    sink: Arc<dyn TraceSink>,
    epoch: Instant,
    reg: Mutex<WaitRegistry>,
}

#[derive(Default)]
struct WaitRegistry {
    /// Per protocol index: private version → holding computation, for every
    /// still-active writer declaration. The blocker of a wait is the
    /// holder with the smallest `pv` still ahead of `lv`.
    holders: Vec<BTreeMap<u64, CompId>>,
    /// Reverse index for O(1) removal at completion.
    by_comp: HashMap<CompId, Vec<(usize, u64)>>,
    /// Live waits (the wait-for edges).
    waits: Vec<WaitEdge>,
}

impl TraceCtl {
    pub(crate) fn new(sink: Arc<dyn TraceSink>, protocol_count: usize) -> TraceCtl {
        TraceCtl {
            sink,
            epoch: Instant::now(),
            reg: Mutex::new(WaitRegistry {
                holders: (0..protocol_count).map(|_| BTreeMap::new()).collect(),
                by_comp: HashMap::new(),
                waits: Vec::new(),
            }),
        }
    }

    /// Nanoseconds since this runtime's construction.
    pub(crate) fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Emit `kind` stamped now.
    pub(crate) fn emit(&self, kind: TraceKind) {
        deliver(&self.sink, self.epoch, kind);
    }

    /// Emit `kind` with an already-taken timestamp.
    pub(crate) fn emit_at(&self, t_ns: u64, kind: TraceKind) {
        deliver_at(&self.sink, t_ns, kind);
    }

    /// Rule 1 ran: register `comp`'s holds (the versions it was given).
    pub(crate) fn on_spawn(&self, comp: CompId, holds: impl Iterator<Item = (usize, u64)>) {
        let mut reg = self.reg.lock();
        let mut mine = Vec::new();
        for (idx, pv) in holds {
            reg.holders[idx].insert(pv, comp);
            mine.push((idx, pv));
        }
        if !mine.is_empty() {
            reg.by_comp.insert(comp, mine);
        }
    }

    /// `comp` is about to block on protocol `idx` while `lv` is the current
    /// local version: record the wait edge and return the blocker — the
    /// oldest still-active holder, other than `comp` itself, of a version
    /// in `(lv, upto)`.
    pub(crate) fn wait_begin(
        &self,
        comp: CompId,
        idx: usize,
        upto: u64,
        lv: u64,
    ) -> Option<CompId> {
        let mut reg = self.reg.lock();
        let blocker = reg.holders[idx]
            .range(lv + 1..upto)
            .map(|(_, &c)| c)
            .find(|&c| c != comp);
        reg.waits.push(WaitEdge {
            waiter: comp,
            protocol: ProtocolId(idx as u32),
            blocker,
        });
        blocker
    }

    /// 2PL variant of [`TraceCtl::wait_begin`]: the lock table tracks no
    /// owner, so the edge has no blocker.
    pub(crate) fn lock_wait_begin(&self, comp: CompId, idx: usize) {
        self.reg.lock().waits.push(WaitEdge {
            waiter: comp,
            protocol: ProtocolId(idx as u32),
            blocker: None,
        });
    }

    /// The wait of `comp` on protocol `idx` ended; drop its edge.
    pub(crate) fn wait_end(&self, comp: CompId, idx: usize) {
        let mut reg = self.reg.lock();
        if let Some(pos) = reg
            .waits
            .iter()
            .position(|e| e.waiter == comp && e.protocol.index() == idx)
        {
            reg.waits.swap_remove(pos);
        }
    }

    /// `comp` released protocol `idx` ahead of completion (VCAroute): its
    /// hold no longer blocks anyone.
    pub(crate) fn on_release(&self, comp: CompId, idx: usize) {
        let mut reg = self.reg.lock();
        if let Some(mine) = reg.by_comp.get_mut(&comp) {
            let mut released = Vec::new();
            mine.retain(|&(i, pv)| {
                if i == idx {
                    released.push(pv);
                    false
                } else {
                    true
                }
            });
            for pv in released {
                reg.holders[idx].remove(&pv);
            }
        }
    }

    /// Rule 3 ran: `comp` holds nothing any more.
    pub(crate) fn on_complete(&self, comp: CompId) {
        let mut reg = self.reg.lock();
        if let Some(mine) = reg.by_comp.remove(&comp) {
            for (idx, pv) in mine {
                reg.holders[idx].remove(&pv);
            }
        }
    }

    /// Snapshot the live wait edges.
    pub(crate) fn snapshot_waits(&self) -> Vec<WaitEdge> {
        self.reg.lock().waits.clone()
    }
}

impl std::fmt::Debug for TraceCtl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCtl").finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// Contention profiles
// ---------------------------------------------------------------------------

/// Per-microprotocol contention statistics aggregated from a trace stream.
#[derive(Debug, Clone)]
pub struct ProtocolProfile {
    /// The microprotocol.
    pub protocol: ProtocolId,
    /// Its name in the stack.
    pub name: String,
    /// Admission waits that actually blocked.
    pub waits: u64,
    /// Summed blocked time (across threads; can exceed wall clock).
    pub wait_total: Duration,
    /// Admission-wait latency percentiles, in microseconds.
    pub wait_p50_us: f64,
    /// 95th percentile admission wait (µs).
    pub wait_p95_us: f64,
    /// 99th percentile admission wait (µs).
    pub wait_p99_us: f64,
    /// Worst observed admission wait (µs).
    pub wait_max_us: f64,
    /// Handler calls executed on this microprotocol.
    pub handler_calls: u64,
    /// Handler service-time percentiles, in microseconds.
    pub service_p50_us: f64,
    /// 95th percentile handler service time (µs).
    pub service_p95_us: f64,
    /// 99th percentile handler service time (µs).
    pub service_p99_us: f64,
    /// Rule 4 bound-visit releases observed on this microprotocol.
    pub bound_releases: u64,
    /// Rule 4 route-unreachable releases observed on this microprotocol.
    pub route_releases: u64,
}

/// Per-algorithm rollup of the same stream: how much each declaration style
/// paid in admission waits.
#[derive(Debug, Clone)]
pub struct AlgoProfile {
    /// The algorithm.
    pub algo: Policy,
    /// Computations spawned under it.
    pub computations: u64,
    /// Admission waits its computations suffered.
    pub waits: u64,
    /// Their summed blocked time.
    pub wait_total: Duration,
    /// Median admission wait (µs).
    pub wait_p50_us: f64,
    /// 95th percentile admission wait (µs).
    pub wait_p95_us: f64,
    /// 99th percentile admission wait (µs).
    pub wait_p99_us: f64,
    /// Rule 4 early releases its computations performed.
    pub early_releases: u64,
}

/// The aggregate view over a drained trace stream: where concurrency was
/// won or lost, per microprotocol and per algorithm.
#[derive(Debug, Clone, Default)]
pub struct ContentionProfile {
    /// One entry per microprotocol of the stack, in stack order.
    pub protocols: Vec<ProtocolProfile>,
    /// One entry per algorithm that spawned at least one computation.
    pub algos: Vec<AlgoProfile>,
}

impl ContentionProfile {
    /// Aggregate a drained stream against the stack it was recorded on.
    pub fn from_events(events: &[TraceEvent], stack: &Stack) -> ContentionProfile {
        let n = stack.protocol_count();
        let mut waits: Vec<Vec<u64>> = vec![Vec::new(); n];
        let mut services: Vec<Vec<u64>> = vec![Vec::new(); n];
        let mut bound_rel = vec![0u64; n];
        let mut route_rel = vec![0u64; n];
        let mut algo_of: HashMap<CompId, Policy> = HashMap::new();
        let mut algo_waits: HashMap<Policy, Vec<u64>> = HashMap::new();
        let mut algo_comps: HashMap<Policy, u64> = HashMap::new();
        let mut algo_releases: HashMap<Policy, u64> = HashMap::new();

        for ev in events {
            match ev.kind {
                TraceKind::Spawn { comp, algo } => {
                    algo_of.insert(comp, algo);
                    *algo_comps.entry(algo).or_default() += 1;
                }
                TraceKind::WaitEnd {
                    comp,
                    protocol,
                    wait_ns,
                    ..
                } => {
                    if let Some(w) = waits.get_mut(protocol.index()) {
                        w.push(wait_ns);
                    }
                    if let Some(&a) = algo_of.get(&comp) {
                        algo_waits.entry(a).or_default().push(wait_ns);
                    }
                }
                TraceKind::HandlerExit {
                    protocol,
                    service_ns,
                    ..
                } => {
                    if let Some(s) = services.get_mut(protocol.index()) {
                        s.push(service_ns);
                    }
                }
                TraceKind::EarlyRelease {
                    comp,
                    protocol,
                    reason,
                } => {
                    match reason {
                        ReleaseReason::BoundVisit => bound_rel[protocol.index()] += 1,
                        ReleaseReason::RouteUnreachable => route_rel[protocol.index()] += 1,
                    }
                    if let Some(&a) = algo_of.get(&comp) {
                        *algo_releases.entry(a).or_default() += 1;
                    }
                }
                _ => {}
            }
        }

        let protocols = (0..n)
            .map(|i| {
                waits[i].sort_unstable();
                services[i].sort_unstable();
                let w = &waits[i];
                let s = &services[i];
                ProtocolProfile {
                    protocol: ProtocolId(i as u32),
                    name: stack.protocol_name(ProtocolId(i as u32)).to_string(),
                    waits: w.len() as u64,
                    wait_total: Duration::from_nanos(w.iter().sum()),
                    wait_p50_us: percentile_us(w, 0.50),
                    wait_p95_us: percentile_us(w, 0.95),
                    wait_p99_us: percentile_us(w, 0.99),
                    wait_max_us: w.last().map_or(0.0, |&v| v as f64 / 1e3),
                    handler_calls: s.len() as u64,
                    service_p50_us: percentile_us(s, 0.50),
                    service_p95_us: percentile_us(s, 0.95),
                    service_p99_us: percentile_us(s, 0.99),
                    bound_releases: bound_rel[i],
                    route_releases: route_rel[i],
                }
            })
            .collect();

        let mut algos: Vec<AlgoProfile> = algo_comps
            .iter()
            .map(|(&algo, &computations)| {
                let mut w = algo_waits.remove(&algo).unwrap_or_default();
                w.sort_unstable();
                AlgoProfile {
                    algo,
                    computations,
                    waits: w.len() as u64,
                    wait_total: Duration::from_nanos(w.iter().sum()),
                    wait_p50_us: percentile_us(&w, 0.50),
                    wait_p95_us: percentile_us(&w, 0.95),
                    wait_p99_us: percentile_us(&w, 0.99),
                    early_releases: algo_releases.get(&algo).copied().unwrap_or(0),
                }
            })
            .collect();
        algos.sort_by_key(|a| a.algo.label());

        ContentionProfile { protocols, algos }
    }

    /// The profile of the microprotocol named `name`, if present.
    pub fn protocol(&self, name: &str) -> Option<&ProtocolProfile> {
        self.protocols.iter().find(|p| p.name == name)
    }

    /// Fixed-width text rendering: one row per microprotocol, then the
    /// per-algorithm rollup.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<16} {:>6} {:>10} {:>9} {:>9} {:>9} {:>7} {:>9} {:>8}\n",
            "microprotocol",
            "waits",
            "wait_ms",
            "p50_us",
            "p95_us",
            "p99_us",
            "calls",
            "svc_p50",
            "early"
        ));
        for p in &self.protocols {
            out.push_str(&format!(
                "{:<16} {:>6} {:>10.2} {:>9.1} {:>9.1} {:>9.1} {:>7} {:>9.1} {:>8}\n",
                p.name,
                p.waits,
                p.wait_total.as_secs_f64() * 1e3,
                p.wait_p50_us,
                p.wait_p95_us,
                p.wait_p99_us,
                p.handler_calls,
                p.service_p50_us,
                p.bound_releases + p.route_releases,
            ));
        }
        if !self.algos.is_empty() {
            out.push_str(&format!(
                "\n{:<12} {:>6} {:>6} {:>10} {:>9} {:>9} {:>9} {:>8}\n",
                "algorithm", "comps", "waits", "wait_ms", "p50_us", "p95_us", "p99_us", "early"
            ));
            for a in &self.algos {
                out.push_str(&format!(
                    "{:<12} {:>6} {:>6} {:>10.2} {:>9.1} {:>9.1} {:>9.1} {:>8}\n",
                    a.algo.label(),
                    a.computations,
                    a.waits,
                    a.wait_total.as_secs_f64() * 1e3,
                    a.wait_p50_us,
                    a.wait_p95_us,
                    a.wait_p99_us,
                    a.early_releases,
                ));
            }
        }
        out
    }

    /// Hand-emitted JSON (the workspace has no serde): an object with
    /// `protocols` and `algos` arrays.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"protocols\": [");
        for (i, p) in self.protocols.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"protocol\": {}, \"waits\": {}, \"wait_total_ms\": {:.3}, \
                 \"wait_p50_us\": {:.1}, \"wait_p95_us\": {:.1}, \"wait_p99_us\": {:.1}, \
                 \"handler_calls\": {}, \"service_p50_us\": {:.1}, \
                 \"bound_releases\": {}, \"route_releases\": {}}}",
                json_str(&p.name),
                p.waits,
                p.wait_total.as_secs_f64() * 1e3,
                p.wait_p50_us,
                p.wait_p95_us,
                p.wait_p99_us,
                p.handler_calls,
                p.service_p50_us,
                p.bound_releases,
                p.route_releases,
            ));
        }
        out.push_str("], \"algos\": [");
        for (i, a) in self.algos.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"algo\": {}, \"computations\": {}, \"waits\": {}, \
                 \"wait_total_ms\": {:.3}, \"wait_p50_us\": {:.1}, \"wait_p95_us\": {:.1}, \
                 \"wait_p99_us\": {:.1}, \"early_releases\": {}}}",
                json_str(a.algo.label()),
                a.computations,
                a.waits,
                a.wait_total.as_secs_f64() * 1e3,
                a.wait_p50_us,
                a.wait_p95_us,
                a.wait_p99_us,
                a.early_releases,
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Percentile of a sorted nanosecond series, in microseconds (nearest-rank).
///
/// Public so that a latency harness outside this crate can report its pNN
/// with the definition [`ContentionProfile`] uses.
/// The input must already be sorted ascending; an empty series yields `0.0`.
pub fn percentile_us(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted_ns.len() as f64).ceil() as usize).clamp(1, sorted_ns.len());
    sorted_ns[rank - 1] as f64 / 1e3
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

/// Builder for Chrome `trace_event` JSON covering one or more traced runs
/// ("processes"): load the output in `chrome://tracing` or
/// <https://ui.perfetto.dev>. One track (`tid`) per computation; admission
/// waits and handler executions become duration spans, spawn/release/
/// completion become instant markers.
#[derive(Debug, Default)]
pub struct ChromeTrace {
    entries: Vec<String>,
}

impl ChromeTrace {
    /// An empty trace document.
    pub fn new() -> ChromeTrace {
        ChromeTrace::default()
    }

    /// Add a traced run as process `pid` named `name`. Events must come
    /// from a runtime over `stack` (names are resolved against it).
    pub fn add_process(&mut self, pid: u32, name: &str, events: &[TraceEvent], stack: &Stack) {
        self.entries.push(format!(
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": 0, \
             \"args\": {{\"name\": {}}}}}",
            json_str(name)
        ));
        let mut named: HashMap<CompId, ()> = HashMap::new();
        let mut site_named: HashMap<u16, ()> = HashMap::new();
        let mut name_site = |entries: &mut Vec<String>, site: u16| {
            site_named.entry(site).or_insert_with(|| {
                entries.push(format!(
                    "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {pid}, \
                     \"tid\": {}, \"args\": {{\"name\": {}}}}}",
                    site_tid(site),
                    json_str(&format!("site{site}"))
                ));
            });
        };
        for ev in events {
            let us = ev.t_ns as f64 / 1e3;
            match ev.kind {
                TraceKind::Spawn { comp, algo } => {
                    named.entry(comp).or_insert_with(|| {
                        self.entries.push(format!(
                            "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {pid}, \
                             \"tid\": {comp}, \"args\": {{\"name\": {}}}}}",
                            json_str(&format!("k{comp} ({})", algo.label()))
                        ));
                    });
                    self.entries.push(format!(
                        "{{\"name\": {}, \"cat\": \"spawn\", \"ph\": \"i\", \"s\": \"t\", \
                         \"ts\": {us:.3}, \"pid\": {pid}, \"tid\": {comp}}}",
                        json_str(&format!("spawn ({})", algo.label()))
                    ));
                }
                TraceKind::WaitEnd {
                    comp,
                    protocol,
                    wait_ns,
                    blocker,
                } => {
                    let name = match blocker {
                        Some(b) => {
                            format!("wait {} (\u{2190} k{b})", stack.protocol_name(protocol))
                        }
                        None => format!("wait {}", stack.protocol_name(protocol)),
                    };
                    let args = match blocker {
                        Some(b) => format!("{{\"blocked_by\": \"k{b}\"}}"),
                        None => "{}".to_string(),
                    };
                    self.entries.push(format!(
                        "{{\"name\": {}, \"cat\": \"admission-wait\", \"ph\": \"X\", \
                         \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": {pid}, \"tid\": {comp}, \
                         \"args\": {args}}}",
                        json_str(&name),
                        (ev.t_ns.saturating_sub(wait_ns)) as f64 / 1e3,
                        wait_ns as f64 / 1e3,
                    ));
                }
                TraceKind::HandlerExit {
                    comp,
                    handler,
                    protocol,
                    service_ns,
                } => {
                    self.entries.push(format!(
                        "{{\"name\": {}, \"cat\": \"handler\", \"ph\": \"X\", \
                         \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": {pid}, \"tid\": {comp}}}",
                        json_str(&format!(
                            "{}.{}",
                            stack.protocol_name(protocol),
                            stack.handler_name(handler)
                        )),
                        (ev.t_ns.saturating_sub(service_ns)) as f64 / 1e3,
                        service_ns as f64 / 1e3,
                    ));
                }
                TraceKind::EarlyRelease {
                    comp,
                    protocol,
                    reason,
                } => {
                    let why = match reason {
                        ReleaseReason::BoundVisit => "bound",
                        ReleaseReason::RouteUnreachable => "route",
                    };
                    self.entries.push(format!(
                        "{{\"name\": {}, \"cat\": \"early-release\", \"ph\": \"i\", \
                         \"s\": \"t\", \"ts\": {us:.3}, \"pid\": {pid}, \"tid\": {comp}}}",
                        json_str(&format!(
                            "release {} ({why})",
                            stack.protocol_name(protocol)
                        ))
                    ));
                }
                TraceKind::Complete { comp } => {
                    self.entries.push(format!(
                        "{{\"name\": \"complete\", \"cat\": \"complete\", \"ph\": \"i\", \
                         \"s\": \"t\", \"ts\": {us:.3}, \"pid\": {pid}, \"tid\": {comp}}}"
                    ));
                }
                TraceKind::ClientSubmit { site, op } => {
                    name_site(&mut self.entries, site);
                    self.cluster_instant(
                        pid,
                        site,
                        us,
                        "cluster",
                        &format!("submit op {op}@s{site}"),
                    );
                    self.flow(pid, site, us, "s", site, op);
                }
                TraceKind::CtxSend {
                    from,
                    to,
                    origin,
                    op,
                    hop,
                } => {
                    name_site(&mut self.entries, from);
                    self.cluster_instant(
                        pid,
                        from,
                        us,
                        "cluster",
                        &format!("send\u{2192}s{to} op {op}@s{origin} hop {hop}"),
                    );
                    self.flow(pid, from, us, "t", origin, op);
                }
                TraceKind::CtxRecv {
                    site,
                    origin,
                    op,
                    hop,
                } => {
                    name_site(&mut self.entries, site);
                    self.cluster_instant(
                        pid,
                        site,
                        us,
                        "cluster",
                        &format!("recv op {op}@s{origin} hop {hop}"),
                    );
                    self.flow(pid, site, us, "t", origin, op);
                }
                TraceKind::AbDeliver {
                    site,
                    origin,
                    op,
                    lag_ns,
                } => {
                    name_site(&mut self.entries, site);
                    self.cluster_instant(
                        pid,
                        site,
                        us,
                        "cluster",
                        &format!(
                            "adeliver op {op}@s{origin} ({:.0}\u{b5}s)",
                            lag_ns as f64 / 1e3
                        ),
                    );
                    self.flow(pid, site, us, "t", origin, op);
                }
                TraceKind::KvApply { site, origin, op } => {
                    name_site(&mut self.entries, site);
                    self.cluster_instant(
                        pid,
                        site,
                        us,
                        "cluster",
                        &format!("kv apply op {op}@s{origin}"),
                    );
                    self.flow(pid, site, us, "f", origin, op);
                }
                TraceKind::Retransmit { site, to, attempts } => {
                    name_site(&mut self.entries, site);
                    self.cluster_instant(
                        pid,
                        site,
                        us,
                        "retransmit",
                        &format!("retransmit\u{2192}s{to} (attempt {attempts})"),
                    );
                }
                TraceKind::ClusterViewChange {
                    site,
                    view_id,
                    members,
                } => {
                    name_site(&mut self.entries, site);
                    self.cluster_instant(
                        pid,
                        site,
                        us,
                        "view-change",
                        &format!("view {view_id} ({members} members)"),
                    );
                }
                TraceKind::WaitBegin { .. } | TraceKind::HandlerEnter { .. } => {
                    // Folded into the matching WaitEnd / HandlerExit span.
                }
            }
        }
    }

    /// An instant marker on a site track.
    fn cluster_instant(&mut self, pid: u32, site: u16, us: f64, cat: &str, name: &str) {
        self.entries.push(format!(
            "{{\"name\": {}, \"cat\": \"{cat}\", \"ph\": \"i\", \"s\": \"t\", \
             \"ts\": {us:.3}, \"pid\": {pid}, \"tid\": {}}}",
            json_str(name),
            site_tid(site)
        ));
    }

    /// A Perfetto flow event (`ph` ∈ {s, t, f}) linking every marker of one
    /// cluster operation `(origin, op)` into a single causal arrow chain.
    fn flow(&mut self, pid: u32, site: u16, us: f64, ph: &str, origin: u16, op: u64) {
        let bp = if ph == "f" { ", \"bp\": \"e\"" } else { "" };
        self.entries.push(format!(
            "{{\"name\": {}, \"cat\": \"causal\", \"ph\": \"{ph}\", \"id\": {}, \
             \"ts\": {us:.3}, \"pid\": {pid}, \"tid\": {}{bp}}}",
            json_str(&format!("op {op}@s{origin}")),
            flow_id(origin, op),
            site_tid(site)
        ));
    }

    /// Render the `{"traceEvents": [...]}` document.
    pub fn render(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        out.push_str(&self.entries.join(",\n"));
        out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
        out
    }
}

/// Cluster sites get their own track block, clear of computation ids.
fn site_tid(site: u16) -> u64 {
    500_000 + site as u64
}

/// Stable flow id for one cluster operation: origin site in the top 16 bits,
/// operation id below.
fn flow_id(origin: u16, op: u64) -> u64 {
    ((origin as u64) << 48) | (op & 0xFFFF_FFFF_FFFF)
}

/// Export one traced run as a single-process Chrome `trace_event` JSON
/// document — the one-call version of [`ChromeTrace`].
pub fn chrome_trace(events: &[TraceEvent], stack: &Stack) -> String {
    let mut b = ChromeTrace::new();
    b.add_process(1, "samoa", events, stack);
    b.render()
}

/// Human-readable digest of a drained stream: event counts and the full
/// contention profile.
pub fn render_summary(events: &[TraceEvent], stack: &Stack) -> String {
    let mut spawns = 0u64;
    let mut completes = 0u64;
    let mut waits = 0u64;
    let mut calls = 0u64;
    let mut releases = 0u64;
    for ev in events {
        match ev.kind {
            TraceKind::Spawn { .. } => spawns += 1,
            TraceKind::Complete { .. } => completes += 1,
            TraceKind::WaitEnd { .. } => waits += 1,
            TraceKind::HandlerExit { .. } => calls += 1,
            TraceKind::EarlyRelease { .. } => releases += 1,
            _ => {}
        }
    }
    let span_ms = events.last().map_or(0.0, |e| e.t_ns as f64 / 1e6);
    let mut out = format!(
        "{} events over {span_ms:.2}ms: {spawns} spawns, {completes} completions, \
         {calls} handler calls, {waits} admission waits, {releases} early releases\n\n",
        events.len()
    );
    out.push_str(&ContentionProfile::from_events(events, stack).render());
    out
}

/// Quote and escape a JSON string.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::StackBuilder;

    fn ev(t_ns: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent { t_ns, kind }
    }

    fn two_proto_stack() -> Stack {
        let mut b = StackBuilder::new();
        let p = b.protocol("P");
        let q = b.protocol("Q");
        let e1 = b.event("E1");
        let e2 = b.event("E2");
        b.bind(e1, p, "hp", |_, _| Ok(()));
        b.bind(e2, q, "hq", |_, _| Ok(()));
        b.build()
    }

    #[test]
    fn percentiles_nearest_rank() {
        let v: Vec<u64> = (1..=100).map(|i| i * 1000).collect();
        assert_eq!(percentile_us(&v, 0.50), 50.0);
        assert_eq!(percentile_us(&v, 0.95), 95.0);
        assert_eq!(percentile_us(&v, 0.99), 99.0);
        assert_eq!(percentile_us(&[], 0.5), 0.0);
        assert_eq!(percentile_us(&[7000], 0.99), 7.0);
    }

    #[test]
    fn buffer_flushes_batches_and_drains_in_time_order() {
        let buf = TraceBuffer::with_capacity(2, 3);
        for t in [5u64, 1, 4, 2, 3, 6, 0] {
            buf.event(ev(t, TraceKind::Complete { comp: t }));
        }
        let drained = buf.drain();
        let ts: Vec<u64> = drained.iter().map(|e| e.t_ns).collect();
        assert_eq!(ts, vec![0, 1, 2, 3, 4, 5, 6]);
        // A second drain is empty: everything was taken.
        assert!(buf.drain().is_empty());
    }

    #[test]
    fn profile_aggregates_waits_and_services() {
        let stack = two_proto_stack();
        let p = ProtocolId(0);
        let q = ProtocolId(1);
        let events = vec![
            ev(
                0,
                TraceKind::Spawn {
                    comp: 1,
                    algo: Policy::Basic,
                },
            ),
            ev(
                1,
                TraceKind::Spawn {
                    comp: 2,
                    algo: Policy::Bound,
                },
            ),
            ev(
                10_000,
                TraceKind::WaitEnd {
                    comp: 2,
                    protocol: p,
                    wait_ns: 8_000,
                    blocker: Some(1),
                },
            ),
            ev(
                12_000,
                TraceKind::HandlerExit {
                    comp: 2,
                    handler: HandlerId(0),
                    protocol: p,
                    service_ns: 2_000,
                },
            ),
            ev(
                13_000,
                TraceKind::EarlyRelease {
                    comp: 2,
                    protocol: p,
                    reason: ReleaseReason::BoundVisit,
                },
            ),
            ev(
                20_000,
                TraceKind::WaitEnd {
                    comp: 2,
                    protocol: q,
                    wait_ns: 4_000,
                    blocker: None,
                },
            ),
            ev(21_000, TraceKind::Complete { comp: 2 }),
        ];
        let prof = ContentionProfile::from_events(&events, &stack);
        let pp = prof.protocol("P").unwrap();
        assert_eq!(pp.waits, 1);
        assert_eq!(pp.wait_p50_us, 8.0);
        assert_eq!(pp.handler_calls, 1);
        assert_eq!(pp.service_p50_us, 2.0);
        assert_eq!(pp.bound_releases, 1);
        let qq = prof.protocol("Q").unwrap();
        assert_eq!(qq.waits, 1);
        assert_eq!(qq.wait_p50_us, 4.0);
        // Per-algo rollup: both waits belong to the Bound computation.
        let bound = prof.algos.iter().find(|a| a.algo == Policy::Bound).unwrap();
        assert_eq!(bound.waits, 2);
        assert_eq!(bound.early_releases, 1);
        let basic = prof.algos.iter().find(|a| a.algo == Policy::Basic).unwrap();
        assert_eq!(basic.waits, 0);
        // JSON contains the percentile fields.
        let j = prof.to_json();
        assert!(j.contains("\"wait_p95_us\""), "{j}");
    }

    #[test]
    fn chrome_trace_has_spans_and_metadata() {
        let stack = two_proto_stack();
        let events = vec![
            ev(
                0,
                TraceKind::Spawn {
                    comp: 1,
                    algo: Policy::Route,
                },
            ),
            ev(
                9_000,
                TraceKind::WaitEnd {
                    comp: 1,
                    protocol: ProtocolId(0),
                    wait_ns: 5_000,
                    blocker: Some(7),
                },
            ),
            ev(
                11_500,
                TraceKind::HandlerExit {
                    comp: 1,
                    handler: HandlerId(0),
                    protocol: ProtocolId(0),
                    service_ns: 2_500,
                },
            ),
            ev(12_000, TraceKind::Complete { comp: 1 }),
        ];
        let json = chrome_trace(&events, &stack);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"cat\": \"admission-wait\""));
        assert!(json.contains("blocked_by"));
        assert!(json.contains("P.hp"));
        assert!(json.contains("thread_name"));
    }

    #[test]
    fn wait_for_graph_renders_and_detects_cycles() {
        let stack = two_proto_stack();
        let acyclic = WaitForGraph {
            edges: vec![
                WaitEdge {
                    waiter: 3,
                    protocol: ProtocolId(0),
                    blocker: Some(2),
                },
                WaitEdge {
                    waiter: 2,
                    protocol: ProtocolId(1),
                    blocker: Some(1),
                },
            ],
        };
        assert!(!acyclic.has_cycle());
        let r = acyclic.render(&stack);
        assert!(r.contains("k3 waits on P held by k2"), "{r}");
        let cyclic = WaitForGraph {
            edges: vec![
                WaitEdge {
                    waiter: 1,
                    protocol: ProtocolId(0),
                    blocker: Some(2),
                },
                WaitEdge {
                    waiter: 2,
                    protocol: ProtocolId(1),
                    blocker: Some(1),
                },
            ],
        };
        assert!(cyclic.has_cycle());
        assert!(WaitForGraph::default().is_empty());
    }

    #[test]
    fn registry_names_the_oldest_unreleased_predecessor() {
        let buf = TraceBuffer::new();
        let ctl = TraceCtl::new(buf, 2);
        // k1 holds P@1, k2 holds P@2.
        ctl.on_spawn(1, [(0usize, 1u64)].into_iter());
        ctl.on_spawn(2, [(0usize, 2u64)].into_iter());
        // k3 (pv 3) blocks while lv = 0: blocked by k1 (oldest).
        assert_eq!(ctl.wait_begin(3, 0, 3, 0), Some(1));
        ctl.wait_end(3, 0);
        // After k1 completes (lv -> 1), the blocker is k2.
        ctl.on_complete(1);
        assert_eq!(ctl.wait_begin(3, 0, 3, 1), Some(2));
        assert_eq!(ctl.snapshot_waits().len(), 1);
        // Early release of P by k2 clears its hold: no blocker left.
        ctl.wait_end(3, 0);
        ctl.on_release(2, 0);
        assert_eq!(ctl.wait_begin(3, 0, 3, 1), None);
        ctl.wait_end(3, 0);
        assert!(ctl.snapshot_waits().is_empty());
    }

    #[test]
    fn summary_counts_events() {
        let stack = two_proto_stack();
        let events = vec![
            ev(
                0,
                TraceKind::Spawn {
                    comp: 1,
                    algo: Policy::Basic,
                },
            ),
            ev(9, TraceKind::Complete { comp: 1 }),
        ];
        let s = render_summary(&events, &stack);
        assert!(s.contains("1 spawns"), "{s}");
        assert!(s.contains("1 completions"), "{s}");
    }
}
