//! # samoa — Synchronisation Augmented Microprotocol Approach
//!
//! A Rust reproduction of *“SAMOA: Framework for Synchronisation Augmented
//! Microprotocol Approach”* (Wojciechowski, Rütti, Schiper; IPDPS 2004):
//! a protocol-composition framework in which the handling of every external
//! event runs as an *isolated computation* — the runtime's versioning
//! concurrency control guarantees that concurrent computations are
//! equivalent to some serial execution, with no programmer-written locks.
//!
//! This meta-crate re-exports the workspace:
//!
//! * [`samoa_core`] — events, microprotocols, computations, and the
//!   three versioning algorithms (`VCAbasic`, `VCAbound`, `VCAroute`) plus
//!   the Appia-style serial, Cactus-style unsynchronised, and two-phase
//!   locking comparators.
//! * [`samoa_net`] — the simulated distributed substrate (sites,
//!   latency, loss, crashes, partitions).
//! * [`samoa_proto`] — the paper's §3 group-communication stack:
//!   RelComm, RelCast, failure detection, consensus, atomic broadcast,
//!   membership.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for the reproduced evaluation.
//!
//! ```
//! use samoa::prelude::*;
//!
//! let mut b = StackBuilder::new();
//! let counter = b.protocol("Counter");
//! let bump = b.event("Bump");
//! let count = ProtocolState::new(counter, 0u64);
//! {
//!     let count = count.clone();
//!     b.bind(bump, counter, "on_bump", move |ctx, _| {
//!         count.with(ctx, |c| *c += 1);
//!         Ok(())
//!     });
//! }
//! let rt = Runtime::new(b.build());
//! let m = [counter];
//! let handles: Vec<_> = (0..8)
//!     .map(|_| rt.spawn(Decl::Basic(&m), move |ctx| ctx.trigger(bump, EventData::empty())))
//!     .collect();
//! for h in handles {
//!     h.join().unwrap();
//! }
//! assert_eq!(count.snapshot(), 8);
//! ```

pub use samoa_core as core;
pub use samoa_net as net;
pub use samoa_proto as proto;
pub use samoa_transport as transport;

/// One-stop imports for applications.
pub mod prelude {
    pub use samoa_core::prelude::*;
    pub use samoa_net::{NetConfig, NetHandle, SimNet, SiteId, TcpMesh, TcpNet, Transport};
    pub use samoa_proto::{
        Cluster, GroupView, KvReply, Node, NodeConfig, StackPolicy, TcpCluster, ViewOp,
    };
    pub use samoa_transport::{TransportConfig, TransportNet};
}
