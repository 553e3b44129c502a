//! # samoa-proto — the paper's group-communication stack on SAMOA
//!
//! The running example of the SAMOA paper (§3) is a group-communication
//! middleware built from microprotocols: reliable point-to-point channels
//! (`RelComm`), reliable broadcast (`RelCast`), a failure detector,
//! distributed consensus, atomic broadcast, and view membership. This crate
//! implements that entire stack as SAMOA microprotocols over the simulated
//! network of `samoa-net`, and is the workload for the paper's §7
//! evaluation (experiment E2 in EXPERIMENTS.md) and the §3 "Problem" race
//! (experiment E5).
//!
//! ```no_run
//! use samoa_proto::{Cluster, NodeConfig, StackPolicy};
//! use samoa_net::NetConfig;
//!
//! let cluster = Cluster::new(
//!     3,
//!     NetConfig::fast(42),
//!     NodeConfig::with_policy(StackPolicy::Basic),
//! );
//! cluster.node(0).abcast("hello");
//! cluster.node(1).abcast("world");
//! cluster.settle();
//! // Every site delivered the same totally ordered sequence.
//! let order = cluster.node(0).ab_delivered();
//! assert_eq!(order, cluster.node(2).ab_delivered());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod abcast;
pub mod app;
pub mod consensus;
pub mod events;
pub mod fd;
pub mod kv;
pub mod membership;
pub mod msgs;
pub mod node;
pub mod observe;
pub mod relcast;
pub mod relcomm;
pub mod view;

pub use events::Events;
pub use kv::{KvApplied, KvCmd, KvPending, KvReply, KvState};
pub use msgs::{
    AbMsg, AbPayload, Batch, CastData, CastMsg, ConsMsg, Frames, MsgUid, Payload, SyncMsg,
    TraceCtx, Wire,
};
pub use node::{Cluster, ClusterMetrics, Node, NodeConfig, Observe, StackPolicy, TcpCluster};
pub use observe::ClusterTracer;
pub use relcomm::RTO;
pub use samoa_net::clock::{self, ProtoClock};
pub use view::{GroupView, ViewOp};
