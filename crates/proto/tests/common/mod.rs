//! What the virtual-time wire tests share: a recording [`Transport`] and a
//! cluster of full nodes behind it.
//!
//! Everything runs on a manual [`SimNet`] with a [`ProtoClock::manual`], so
//! no timer thread: the rig settles and rings alarms the way
//! [`NetHandle::run_until`] does, time moves only when a test or an alarm
//! says so, and nothing sleeps or reads the wall clock. The recorder keeps every
//! datagram sent, decoded, so the tests assert on what crossed the wire
//! rather than on protocol internals.
//!
//! Not every test binary uses every helper.
#![allow(dead_code)]

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use samoa_net::sim::DeliveryFn;
use samoa_net::{ring_due, Host, NetConfig, NetHandle, SimNet, SiteId, Transport};
use samoa_proto::{Cluster, Node, NodeConfig, Payload, ProtoClock, TraceCtx, Wire};

/// One datagram as it left a site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sent {
    pub from: SiteId,
    pub to: SiteId,
    /// RelComm sequence number of the data frame, if the datagram has one.
    pub data: Option<u64>,
    /// What that data frame carries.
    pub payload: Option<Payload>,
    /// The acks behind it (or alone).
    pub acks: Vec<u64>,
}

/// Forwards to the network and remembers what it forwarded. The lock is
/// held across the forward, so entry `i` of the log is the datagram the
/// network numbered `i + 1`.
pub struct Recorder {
    inner: NetHandle,
    log: Mutex<Vec<Sent>>,
    /// The causal context of every data frame that carried one.
    contexts: Mutex<Vec<TraceCtx>>,
}

impl Recorder {
    pub fn over(net: &SimNet) -> Arc<Recorder> {
        Arc::new(Recorder {
            inner: net.handle(),
            log: Mutex::new(Vec::new()),
            contexts: Mutex::new(Vec::new()),
        })
    }

    pub fn contexts(&self) -> Vec<TraceCtx> {
        self.contexts.lock().expect("recorder contexts").clone()
    }

    pub fn log(&self) -> Vec<Sent> {
        self.log.lock().expect("recorder log").clone()
    }
}

impl Transport for Recorder {
    fn send(&self, from: SiteId, to: SiteId, payload: Bytes) {
        let frames = Wire::decode_all(payload.clone()).expect("RelComm sent a malformed datagram");
        let (data, carried) = match frames.first() {
            Some(Wire::Data { seq, ctx, payload }) => {
                let mut contexts = self.contexts.lock().expect("recorder contexts");
                contexts.extend(*ctx);
                (Some(*seq), Some(payload.clone()))
            }
            _ => (None, None),
        };
        // A failure-detector heartbeat travels alone: no data, no acks.
        let first = usize::from(data.is_some() || frames.first() == Some(&Wire::Heartbeat));
        let acks = frames[first..]
            .iter()
            .map(|f| match f {
                Wire::Ack { seq } => *seq,
                other => panic!("{other:?} behind the first frame of a datagram"),
            })
            .collect();
        let mut log = self.log.lock().expect("recorder log");
        log.push(Sent {
            from,
            to,
            data,
            payload: carried,
            acks,
        });
        self.inner.send(from, to, payload);
    }

    fn site_count(&self) -> usize {
        self.inner.site_count()
    }

    fn register(&self, site: SiteId, callback: Arc<DeliveryFn>) {
        Transport::register(&self.inner, site, callback)
    }
}

/// `n` nodes configured by `cfg` on a manual network and one shared manual
/// clock, for [`Cluster::settle`] and [`NetHandle::run_until`] to drive.
pub fn manual_cluster(n: usize, net: NetConfig, cfg: NodeConfig) -> Cluster {
    let clock = ProtoClock::manual();
    Cluster::new_manual(n, net, NodeConfig { clock, ..cfg })
}

/// Full nodes on virtual time behind one recorder.
pub struct Rig {
    pub net: SimNet,
    pub rec: Arc<Recorder>,
    pub nodes: Vec<Arc<Node>>,
    pub clock: ProtoClock,
}

impl Rig {
    pub fn new(sites: usize, seed: u64) -> Rig {
        Rig::with_members(sites, seed, None)
    }

    /// `sites` nodes of which only `members` form the initial view (all of
    /// them when `None`).
    pub fn with_members(sites: usize, seed: u64, members: Option<Vec<SiteId>>) -> Rig {
        let net = SimNet::new_manual(sites, NetConfig::fast(seed));
        let rec = Recorder::over(&net);
        let clock = ProtoClock::manual();
        let cfg = NodeConfig {
            clock: clock.clone(),
            initial_members: members,
            ..NodeConfig::default()
        };
        let nodes = (0..sites as u16)
            .map(|i| Node::new_on(rec.clone(), SiteId(i), cfg.clone()))
            .collect();
        Rig {
            net,
            rec,
            nodes,
            clock,
        }
    }

    pub fn quiesce(&self) {
        for n in &self.nodes {
            n.runtime().quiesce();
        }
    }

    /// Deliver every datagram in flight and quiesce every node, until
    /// nothing is left ([`NetHandle::settle`]).
    pub fn settle(&self) {
        self.net.settle(|| self.quiesce());
    }

    /// The Timer Module: advance the clock to the earliest instant a node
    /// armed, if it is still to come, and ring every node that is due then
    /// ([`ring_due`]) — one step of [`NetHandle::run_until`].
    pub fn tick_all(&self) {
        let next = self.nodes.iter().filter_map(|n| n.alarm().deadline()).min();
        if let Some(at) = next {
            self.clock
                .advance(at.saturating_duration_since(self.clock.now()));
        }
        ring_due(&self.nodes);
        self.quiesce();
    }

    pub fn abcasts(&self, n: usize) {
        for i in 0..n {
            self.nodes[i % self.nodes.len()].abcast(format!("m{i}"));
        }
    }

    pub fn pending(&self) -> Vec<usize> {
        self.nodes.iter().map(|n| n.relcomm_pending()).collect()
    }

    pub fn retransmissions(&self) -> u64 {
        self.nodes.iter().map(|n| n.retransmissions()).sum()
    }

    /// Every site delivered the same `n` distinct messages in the same
    /// order, and no external computation on the way ended in an error.
    pub fn assert_total_order(&self, n: usize) {
        let order = self.nodes[0].ab_delivered();
        assert_eq!(order.len(), n, "site 0 delivered {order:?}");
        assert_eq!(order.iter().collect::<BTreeSet<_>>().len(), n, "duplicates");
        for node in &self.nodes[1..] {
            assert_eq!(node.ab_delivered(), order, "{:?} diverged", node.site);
        }
        for node in &self.nodes {
            assert_eq!(node.external_errors(), 0, "{:?}", node.site);
        }
    }
}
