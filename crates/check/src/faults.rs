//! Deterministic fault-schedule exploration of the real proto stack:
//! DPOR over the combined schedule × fault space.
//!
//! [`ClusterScenario`] boots a hooked multi-site `samoa-proto` cluster over
//! a **manual** [`SimNet`] with a shared [`ProtoClock::manual`] and all
//! wall-clock timers off, then promotes every environment move to a
//! controller decision point via
//! [`SchedHook::choose_external`]:
//!
//! * **deliver** one in-flight datagram (any of them — delivery *order* is
//!   the schedule dimension),
//! * **drop** or **duplicate** an in-flight datagram (gated by the
//!   [`FaultBudget`]),
//! * **crash** a site (budget-gated),
//! * **suspect** — advance virtual time past the failure-detector timeout
//!   and inject one FD tick into a live site, which then suspects every
//!   peer it has not heard from (budget-gated; ◇S permits false suspicion
//!   at any time, so the move is always legal). This is the only way an
//!   instance leaves round 0: the suspecting site restarts consensus in a
//!   later round, whose read phase must find what round 0 may have chosen,
//! * **partition** the network / **heal** it (budget-gated),
//! * **tick** — let the acks RelComm has deferred land, then advance
//!   virtual time past the retransmission timeout and inject a retransmit
//!   tick into every live node (the recovery path for drops and crashes,
//!   bounded by a tick allowance).
//!
//! Each move carries a [`SchedResource`] footprint, so
//! [`Strategy::Dpor`](crate::Strategy::Dpor) treats environment moves as
//! pseudo-threads and explores only non-commuting alternatives: delivering
//! two datagrams to *different* sites commutes; delivering versus dropping
//! the *same* datagram does not. Between moves every node runtime is
//! quiesced, so the protocol computations a move triggers are themselves
//! interleaved under the same controller.
//!
//! The run is **schedule-pure**: everything observable is a function of the
//! choice sequence and the network seed, which is what makes cluster-level
//! witnesses replay byte-identically. Termination is structural — every
//! move consumes an in-flight datagram, a budget token, or a tick token,
//! and with timers off the workload's traffic is finite.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use parking_lot::Mutex;
use samoa_core::sched::{ExternalChoice, SchedResource};
use samoa_core::{History, SchedHook};
use samoa_net::{NetConfig, NetHandle, SimNet, SiteId};
use samoa_proto::{Cluster, Node, NodeConfig, Observe, ProtoClock, StackPolicy, RTO};

use crate::scenarios::{RunReport, Scenario};

/// Pseudo-thread id of "crash site `k`" (`CRASH_BASE + k`). Pseudo-ids
/// live far above real registration indices, so they never collide with
/// the controller's thread ids.
const CRASH_BASE: u32 = 1024;
/// Pseudo-thread id of "site `k`'s failure detector ticks after a silence"
/// (`SUSPECT_BASE + k`).
const SUSPECT_BASE: u32 = 1280;
/// Pseudo-thread id of the partition move.
const PARTITION_ID: u32 = 1536;
/// Pseudo-thread id of the heal move.
const HEAL_ID: u32 = 1537;
/// Pseudo-thread id of the virtual-time tick move.
const TICK_ID: u32 = 1600;
/// Base of the per-datagram ids: datagram `seq` owns the id range
/// `MSG_BASE + 4*seq + {0 deliver, 1 drop, 2 duplicate}`. Transport
/// sequence numbers are a pure function of the send history, so these ids
/// are stable across replays.
const MSG_BASE: u32 = 4096;

/// How many of each fault the explorer may inject in one run. Every fault
/// move consumes one token; a zero budget reduces [`ClusterScenario`] to
/// pure schedule (delivery-order) exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultBudget {
    /// Site crashes (a crashed site is silenced at the network layer).
    pub crashes: u32,
    /// Targeted datagram drops.
    pub drops: u32,
    /// Targeted datagram duplications.
    pub duplicates: u32,
    /// Network partitions (the split is site 0 versus the rest; each
    /// partition move enables one budget-free heal move).
    pub partitions: u32,
    /// Failure-detector ticks after a silence longer than `fd_timeout`, on
    /// one live site each: that site suspects every peer it has not heard
    /// from, rightly or not, and its heartbeats go out as ordinary
    /// datagrams.
    pub suspicions: u32,
}

impl FaultBudget {
    /// The zero budget: schedule exploration only.
    pub fn none() -> FaultBudget {
        FaultBudget::default()
    }

    /// One crash plus one drop — the acceptance floor for the bounded
    /// cluster sweep.
    pub fn crash_and_drop() -> FaultBudget {
        FaultBudget {
            crashes: 1,
            drops: 1,
            ..FaultBudget::default()
        }
    }

    /// Total tokens across all fault kinds.
    pub fn total(&self) -> u32 {
        self.crashes + self.drops + self.duplicates + self.partitions + self.suspicions
    }
}

/// End-of-run cluster state captured for determinism checks: the replay
/// proptests assert that re-running a logged choice prefix reproduces this
/// probe bit-for-bit, not just the pass/fail verdict.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterProbe {
    /// Per-site KV digest ([`Node::kv_digest`]).
    pub kv_digests: Vec<u64>,
    /// Per-site abcast delivery log ([`Node::ab_delivered`]).
    pub ab_delivered: Vec<Vec<(SiteId, Bytes)>>,
    /// Which sites ended the run crashed.
    pub crashed: Vec<bool>,
    /// Environment moves taken.
    pub actions: u32,
}

/// The cluster-level fault-exploration scenario (see the module docs).
///
/// Invariants checked over the sites still live at the end of the run:
///
/// 1. **Exactly-once**: no site ab-delivers the same message twice
///    (workload payloads are unique).
/// 2. **Prefix agreement**: any two delivery logs agree on their common
///    prefix — the atomic-broadcast total order.
/// 3. **State agreement**: two sites that applied the same number of KV
///    commands have the same digest.
///
/// With the stack healthy no schedule or in-budget fault combination
/// violates these; the injected-bug constructor
/// ([`ClusterScenario::with_ab_order_bug`]) re-introduces a race the stack's
/// own machinery is there to close, so the explorer can demonstrate a
/// minimised, replayable cluster-level witness.
pub struct ClusterScenario {
    sites: usize,
    policy: StackPolicy,
    net_seed: u64,
    budget: FaultBudget,
    ab_order_bug: bool,
    probe: Mutex<ClusterProbe>,
}

/// The workload of every cluster scenario: atomic broadcasts and KV puts,
/// round-robined over the sites.
const ABCASTS: usize = 2;
const KV_PUTS: usize = 1;
/// Virtual-time ticks a run may inject.
const TICKS: u32 = 2;
/// Cap on environment moves per run (backstop against pathological decider
/// loops; well above what the workload needs).
const MAX_ACTIONS: u32 = 600;

impl ClusterScenario {
    /// A `sites`-node cluster under `policy`, manual-network delays drawn
    /// from `net_seed`, faults limited by `budget`. Workload: two abcasts
    /// (from sites 0 and 1) plus one KV put; two virtual-time ticks.
    pub fn new(
        sites: usize,
        policy: StackPolicy,
        net_seed: u64,
        budget: FaultBudget,
    ) -> ClusterScenario {
        assert!(sites >= 2, "a cluster scenario needs at least two sites");
        ClusterScenario {
            sites,
            policy,
            net_seed,
            budget,
            ab_order_bug: false,
            probe: Mutex::new(ClusterProbe::default()),
        }
    }

    /// Enable the injected **ordering bug**
    /// ([`NodeConfig::ab_order_enabled`] = false): abcast delivers
    /// decisions in arrival order, so a reordered `Decide` flood violates
    /// prefix agreement.
    pub fn with_ab_order_bug(mut self) -> ClusterScenario {
        self.ab_order_bug = true;
        self
    }

    /// The probe captured by the most recent [`Scenario::run`].
    pub fn probe(&self) -> ClusterProbe {
        self.probe.lock().clone()
    }

    /// Enumerate the current environment moves in canonical (ascending
    /// pseudo-id) order.
    fn alternatives(
        &self,
        net: &NetHandle,
        crashed: &[bool],
        budget: &FaultBudget,
        ticks_left: u32,
        partitioned: bool,
        nodes: &[Arc<Node>],
    ) -> Vec<ExternalChoice> {
        let mut alts = Vec::new();
        let live = crashed.iter().filter(|c| !**c).count();
        if budget.crashes > 0 && live > 1 {
            for (i, c) in crashed.iter().enumerate() {
                if !*c {
                    alts.push(ExternalChoice::new(
                        CRASH_BASE + i as u32,
                        vec![SchedResource::NetSite(i as u16), SchedResource::FaultBudget],
                    ));
                }
            }
        }
        if budget.suspicions > 0 {
            for (i, c) in crashed.iter().enumerate() {
                if !*c {
                    alts.push(ExternalChoice::new(
                        SUSPECT_BASE + i as u32,
                        vec![
                            SchedResource::NetSite(i as u16),
                            SchedResource::TimeWheel,
                            SchedResource::FaultBudget,
                        ],
                    ));
                }
            }
        }
        let all_sites = || {
            (0..self.sites)
                .map(|i| SchedResource::NetSite(i as u16))
                .collect::<Vec<_>>()
        };
        if partitioned {
            alts.push(ExternalChoice::new(HEAL_ID, all_sites()));
        } else if budget.partitions > 0 {
            let mut fp = all_sites();
            fp.push(SchedResource::FaultBudget);
            alts.push(ExternalChoice::new(PARTITION_ID, fp));
        }
        let retransmit_pending = nodes
            .iter()
            .enumerate()
            .any(|(i, n)| !crashed[i] && n.relcomm_pending() > 0);
        if ticks_left > 0 && retransmit_pending {
            let mut fp = vec![SchedResource::TimeWheel];
            fp.extend(
                crashed
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| !**c)
                    .map(|(i, _)| SchedResource::NetSite(i as u16)),
            );
            alts.push(ExternalChoice::new(TICK_ID, fp));
        }
        for dg in net.pending_datagrams() {
            let base = MSG_BASE + 4 * dg.seq as u32;
            alts.push(ExternalChoice::new(
                base,
                vec![SchedResource::Msg(dg.seq), SchedResource::NetSite(dg.to.0)],
            ));
            if budget.drops > 0 {
                alts.push(ExternalChoice::new(
                    base + 1,
                    vec![
                        SchedResource::Msg(dg.seq),
                        SchedResource::NetSite(dg.to.0),
                        SchedResource::FaultBudget,
                    ],
                ));
            }
            if budget.duplicates > 0 {
                alts.push(ExternalChoice::new(
                    base + 2,
                    vec![SchedResource::Msg(dg.seq), SchedResource::FaultBudget],
                ));
            }
        }
        alts
    }
}

/// Inject one retransmit tick into every live node.
fn tick_live(nodes: &[Arc<Node>], crashed: &[bool]) {
    for (i, node) in nodes.iter().enumerate() {
        if !crashed[i] {
            node.inject_retransmit_tick();
        }
    }
}

/// Let every computation running anywhere in the cluster finish.
fn quiesce(nodes: &[Arc<Node>]) {
    for node in nodes {
        node.runtime().quiesce();
    }
}

/// Does `dg` cross the fixed partition split (site 0 versus the rest)?
fn crosses_split(from: SiteId, to: SiteId) -> bool {
    (from.0 == 0) != (to.0 == 0)
}

impl Scenario for ClusterScenario {
    fn name(&self) -> String {
        if self.ab_order_bug {
            "cluster/ab-order-bug"
        } else {
            "cluster/faults"
        }
        .into()
    }

    fn run(&self, hook: Arc<dyn SchedHook>) -> RunReport {
        let n = self.sites;
        let net = SimNet::new_manual(n, NetConfig::fast(self.net_seed));
        let clock = ProtoClock::manual();
        let mut cfg = NodeConfig::with_policy(self.policy);
        cfg.enable_fd = false;
        cfg.clock = clock.clone();
        cfg.ab_order_enabled = !self.ab_order_bug;
        let cluster =
            Cluster::new_observed_on(net, cfg.clone(), Some(hook.clone()), Observe::default());
        let nodes = cluster.nodes();

        // Workload: unique payloads, round-robined over the sites.
        for k in 0..ABCASTS {
            let site = k % n;
            nodes[site].abcast(format!("ab-{site}-{k}"));
        }
        for k in 0..KV_PUTS {
            let site = k % n;
            // Fire-and-forget: the pending handle would deadlock the
            // controlled thread if the command's decide gets dropped.
            drop(nodes[site].kv_put(format!("key-{k}"), format!("val-{site}-{k}")));
        }

        let h = cluster.net();
        let mut crashed = vec![false; n];
        let mut budget = self.budget;
        let mut ticks_left = TICKS;
        let mut partitioned = false;
        let mut actions = 0u32;
        // Each tick must clear RelComm's exponential backoff (rto << attempts,
        // capped at 16x) so a retransmission actually fires.
        let tick_advance = RTO * 32;
        // A suspicion needs a silence *longer* than `fd_timeout`: the clock
        // moves a little past it, as far as a running detector's heartbeat
        // lets a silence run on before its next sweep notices it.
        let silence = cfg.fd_timeout + Duration::from_millis(10);

        loop {
            // Let the computations triggered by the previous move finish
            // (their interleaving is explored by the same controller), so
            // the next enumeration sees a settled network.
            quiesce(nodes);
            // Dead datagrams — to/from a crashed site, or across an active
            // partition — are discarded deterministically rather than
            // offered as no-op choices.
            for dg in h.pending_datagrams() {
                let dead = crashed[dg.to.index()]
                    || crashed[dg.from.index()]
                    || (partitioned && crosses_split(dg.from, dg.to));
                if dead {
                    h.drop_seq(dg.seq);
                }
            }
            if actions >= MAX_ACTIONS {
                break;
            }
            let alts = self.alternatives(&h, &crashed, &budget, ticks_left, partitioned, nodes);
            if alts.is_empty() {
                break;
            }
            let pick = hook.choose_external(&alts).min(alts.len() - 1);
            let id = alts[pick].id;
            actions += 1;
            match id {
                PARTITION_ID => {
                    let group_a = [SiteId(0)];
                    let group_b: Vec<SiteId> = (1..n as u16).map(SiteId).collect();
                    h.partition(&[&group_a, &group_b]);
                    partitioned = true;
                    budget.partitions -= 1;
                }
                HEAL_ID => {
                    h.heal();
                    partitioned = false;
                }
                TICK_ID => {
                    // RelComm defers an ack for at most its ack delay, well
                    // under one RTO, and a real node's timer then sends what
                    // is still owed. Model that before time passes the RTO:
                    // one tick at the current
                    // time makes every site flush the acks it owes, and what
                    // that tick put on the network is delivered as part of
                    // this move. The tick after the advance then resends only
                    // what is really unacknowledged — a frame or an ack was
                    // dropped, or the peer is gone — not every frame whose
                    // ack was still waiting for a ride. Ack loss stays a
                    // decision through the data datagrams that carry acks.
                    let before: HashSet<u64> =
                        h.pending_datagrams().iter().map(|dg| dg.seq).collect();
                    tick_live(nodes, &crashed);
                    quiesce(nodes);
                    for dg in h.pending_datagrams() {
                        if !before.contains(&dg.seq) {
                            h.pump_seq(dg.seq);
                        }
                    }
                    quiesce(nodes);
                    clock.advance(tick_advance);
                    tick_live(nodes, &crashed);
                    ticks_left -= 1;
                }
                id if (CRASH_BASE..CRASH_BASE + n as u32).contains(&id) => {
                    let site = (id - CRASH_BASE) as usize;
                    h.crash(SiteId(site as u16));
                    crashed[site] = true;
                    budget.crashes -= 1;
                }
                id if (SUSPECT_BASE..SUSPECT_BASE + n as u32).contains(&id) => {
                    clock.advance(silence);
                    nodes[(id - SUSPECT_BASE) as usize].inject_fd_tick();
                    budget.suspicions -= 1;
                }
                id => {
                    let seq = ((id - MSG_BASE) / 4) as u64;
                    match (id - MSG_BASE) % 4 {
                        0 => {
                            h.pump_seq(seq);
                        }
                        1 => {
                            h.drop_seq(seq);
                            budget.drops -= 1;
                        }
                        _ => {
                            h.duplicate_seq(seq);
                            budget.duplicates -= 1;
                        }
                    }
                }
            }
        }

        // Invariants over the live sites.
        let live: Vec<usize> = (0..n).filter(|&i| !crashed[i]).collect();
        let logs: Vec<Vec<(SiteId, Bytes)>> = nodes.iter().map(|nd| nd.ab_delivered()).collect();
        let mut violation = None;
        for &i in &live {
            let mut seen = HashSet::new();
            for (s, b) in &logs[i] {
                if !seen.insert((*s, b.clone())) {
                    violation = Some(format!(
                        "exactly-once violated: site {i} ab-delivered {:?} from {s} twice",
                        String::from_utf8_lossy(b)
                    ));
                }
            }
        }
        if violation.is_none() {
            'pairs: for (a, &i) in live.iter().enumerate() {
                for &j in &live[a + 1..] {
                    let m = logs[i].len().min(logs[j].len());
                    if let Some(p) = (0..m).find(|&p| logs[i][p] != logs[j][p]) {
                        violation = Some(format!(
                            "prefix agreement violated: sites {i} and {j} diverge at \
                             position {p} ({:?} vs {:?})",
                            String::from_utf8_lossy(&logs[i][p].1),
                            String::from_utf8_lossy(&logs[j][p].1),
                        ));
                        break 'pairs;
                    }
                }
            }
        }
        if violation.is_none() {
            'kv: for (a, &i) in live.iter().enumerate() {
                for &j in &live[a + 1..] {
                    if nodes[i].kv_applied() == nodes[j].kv_applied()
                        && nodes[i].kv_digest() != nodes[j].kv_digest()
                    {
                        violation = Some(format!(
                            "state agreement violated: sites {i} and {j} applied {} KV \
                             commands each but digests differ",
                            nodes[i].kv_applied()
                        ));
                        break 'kv;
                    }
                }
            }
        }

        *self.probe.lock() = ClusterProbe {
            kv_digests: nodes.iter().map(|nd| nd.kv_digest()).collect(),
            ab_delivered: logs,
            crashed,
            actions,
        };
        RunReport {
            history: History::default(),
            invariant_violation: violation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hook that always picks the first (lowest-id) alternative and lets
    /// threads run freely — the uninstrumented baseline (every `SchedHook`
    /// method keeps its default).
    struct FirstHook;
    impl SchedHook for FirstHook {}

    #[test]
    fn healthy_cluster_first_choice_run_is_clean() {
        let s = ClusterScenario::new(3, StackPolicy::Basic, 7, FaultBudget::none());
        let report = s.run(Arc::new(FirstHook));
        assert_eq!(report.invariant_violation, None);
        let probe = s.probe();
        assert!(probe.actions > 0, "the run must take environment moves");
        assert_eq!(probe.crashed, vec![false; 3]);
        // All three sites delivered the full workload in the same order.
        assert_eq!(probe.ab_delivered[0].len(), 3);
        assert_eq!(probe.ab_delivered[0], probe.ab_delivered[1]);
        assert_eq!(probe.ab_delivered[1], probe.ab_delivered[2]);
        assert_eq!(probe.kv_digests[0], probe.kv_digests[1]);
    }

    #[test]
    fn first_choice_run_is_deterministic() {
        let s = ClusterScenario::new(3, StackPolicy::Basic, 11, FaultBudget::none());
        s.run(Arc::new(FirstHook));
        let first = s.probe();
        s.run(Arc::new(FirstHook));
        assert_eq!(s.probe(), first);
    }

    #[test]
    fn crash_budget_first_choice_crashes_a_site() {
        // With a crash token the lowest-id alternative is "crash site 0",
        // so the first-choice run exercises the crash path end to end.
        let s = ClusterScenario::new(
            3,
            StackPolicy::Basic,
            7,
            FaultBudget {
                crashes: 1,
                ..FaultBudget::default()
            },
        );
        let report = s.run(Arc::new(FirstHook));
        assert_eq!(report.invariant_violation, None);
        let probe = s.probe();
        assert_eq!(probe.crashed, vec![true, false, false]);
        // The two survivors still agree.
        assert_eq!(probe.ab_delivered[1], probe.ab_delivered[2]);
    }
}
