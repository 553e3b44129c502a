//! # samoa-transport — an x-kernel-style transport stack on SAMOA
//!
//! The paper's introduction motivates protocol frameworks with the x-kernel
//! lineage: composing transports from small microprotocols with support for
//! message processing, marshalling, and timeouts. This crate is a second,
//! independent application of the SAMOA framework (next to the
//! group-communication stack in `samoa-proto`): a reliable, ordered message
//! transport assembled from three microprotocols —
//!
//! * **Chunker** — fragmentation to MTU-sized fragments and reassembly,
//! * **Window** — sliding-window ARQ: sequence numbers, acks, bounded
//!   in-flight frames, retransmission when three later acks show a hole or
//!   on timeout, in-order release,
//! * **Checksum** — FNV-1a frame trailers; corrupted frames (the
//!   bit-flip fault `samoa-net` injects) are detected and dropped, and the
//!   window recovers them by retransmission.
//!
//! External events — application sends, datagram arrivals, timer ticks —
//! spawn isolated computations with tight declarations (an inbound ack only
//! declares `[Checksum, Window]`), exactly like the paper's §4 example.
//!
//! ```no_run
//! use samoa_net::NetConfig;
//! use samoa_transport::{TransportConfig, TransportNet};
//! use samoa_net::SiteId;
//!
//! let net = TransportNet::new(2, NetConfig::lossy_wan(7, 0.1), TransportConfig::default());
//! net.endpoint(0).send(SiteId(1), vec![42u8; 10_000]);
//! net.settle();
//! assert_eq!(net.endpoint(1).delivered().len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checksum;
pub mod chunker;
pub mod events;
pub mod frames;
pub mod node;
pub mod window;

pub use frames::{Frame, FrameError, FrameKind};
pub use node::{Endpoint, TransportConfig, TransportNet};
