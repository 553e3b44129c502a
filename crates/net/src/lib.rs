//! # samoa-net — network substrates for SAMOA
//!
//! The SAMOA paper's evaluation ran its group-communication stack "on
//! distributed machines" (§7). This crate provides two interchangeable
//! backends behind one [`Transport`] seam:
//!
//! * [`SimNet`] — a deterministic in-process simulator: `n` sites
//!   exchanging datagrams with seeded random delays, configurable loss,
//!   site crashes, and network partitions.
//! * [`TcpNet`] — a real-socket backend: length-prefixed framed TCP on
//!   localhost with reconnecting, bounded per-peer outbound queues
//!   ([`TcpMesh`] bundles `n` endpoints for in-process cluster tests).
//!
//! Both stacks above them share the ARQ core ([`arq`]), its injectable
//! time source ([`ProtoClock`]) and one way to host a stack: a [`Host`]
//! takes its site's datagrams and its timer's ticks, and
//! [`Ticker::attach`] builds it around its [`Ticker`] and wires both. Its
//! [`Alarm`] is armed the same way on either clock: on the wall clock a
//! timer thread sleeps until the armed instant and rings it, on a manual
//! clock [`NetHandle::run_until`] advances the clock to the earliest armed
//! instant and rings the hosts that are due. Both stacks write their wire formats with one [`codec`]: a
//! length is its writer run against a counting sink, and a decoder reads
//! through checked readers.
//!
//! ```
//! use samoa_net::{NetConfig, SimNet, SiteId};
//! use bytes::Bytes;
//! use std::sync::Arc;
//! use parking_lot::Mutex;
//!
//! let net = SimNet::new(2, NetConfig::fast(42));
//! let inbox = Arc::new(Mutex::new(Vec::new()));
//! {
//!     let inbox = Arc::clone(&inbox);
//!     net.register(SiteId(1), move |dg| inbox.lock().push(dg.payload));
//! }
//! net.send(SiteId(0), SiteId(1), Bytes::from_static(b"hello"));
//! net.quiesce();
//! assert_eq!(inbox.lock().len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arq;
pub mod clock;
pub mod codec;
pub mod config;
pub mod sim;
pub mod stats;
pub mod tcp;
pub mod transport;

pub use arq::{ArqReceiver, ArqSender, RangeSet};
pub use clock::{ring_due, Alarm, Host, ProtoClock, Ticker};
pub use config::NetConfig;
pub use sim::{Datagram, NetHandle, PendingDg, SimNet, SiteId};
pub use stats::SiteStats;
pub use tcp::{TcpMesh, TcpNet, TcpStats};
pub use transport::{Transport, STAT_NAMES};
