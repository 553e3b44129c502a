//! Real-socket transport backend: length-prefixed framed TCP on localhost.
//!
//! [`TcpNet`] is one site's endpoint: it owns a listening socket, an accept
//! loop, one reader thread per inbound connection, and one lazily-spawned
//! writer thread per peer. It implements the exact same
//! [`Transport`](crate::transport::Transport) seam as the simulator, so the
//! `samoa-proto` stack runs over real sockets unchanged — [`TcpMesh`]
//! bundles `n` endpoints on ephemeral localhost ports for in-process
//! cluster tests, and the same endpoint works across processes when every
//! process is given the same address table.
//!
//! ## Wire format
//!
//! One datagram = one frame: `[len: u32 le][from: u16 le][payload]`, where
//! `len` covers the `from` tag plus the payload. Frames are written over a
//! single outbound TCP stream per (sender, receiver) pair; the receiver
//! identifies the sender from the frame tag, so no handshake is needed.
//!
//! ## Delivery semantics (the Transport contract)
//!
//! * `send` never blocks: it enqueues the encoded frame on the
//!   destination's bounded outbound queue and returns. A full queue drops
//!   the **oldest** frame (counted in
//!   [`TcpStats::dropped_backpressure`]) — bounding memory and letting
//!   RelComm's retransmission repair the loss, exactly like simulated
//!   datagram loss.
//! * Writer threads connect on demand and reconnect with exponential
//!   backoff after failures; a frame whose write fails is requeued and
//!   counted in [`TcpStats::retried`], so truncation under faults is
//!   always visible in stats.
//! * Frames that survive arrive in per-(sender, receiver) FIFO order (TCP),
//!   but protocols must not assume more than an unreliable FIFO link:
//!   drops are possible between delivered frames.
//! * Frames arriving while no callback is registered are discarded and
//!   counted ([`TcpStats::dropped_no_receiver`]), mirroring `SimNet`.
//! * The callback is never running twice at once, as on `SimNet`'s one
//!   delivery thread: the reader threads of an endpoint take turns on the
//!   callback's lock. A host may run a whole computation in the callback
//!   (`samoa-proto` does when computations cannot overlap), and two readers
//!   of a backlogged site that met *there* would wait on each other by
//!   spinning and yielding — on a busy CPU a yielding thread forfeits its
//!   share, the site falls further behind, and its readers never sleep
//!   again. A reader waiting its turn here sleeps.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::{BufMut, Bytes, BytesMut};
use parking_lot::{Condvar, Mutex};

use crate::sim::{Datagram, DeliveryFn, SiteId};
use crate::transport::Transport;

/// Per-peer outbound queue capacity, in frames. On overflow the oldest
/// frame is dropped (and counted) — `send` never blocks.
const QUEUE_CAPACITY: usize = 4096;
/// First reconnect backoff after a failed connect or a torn stream.
const BACKOFF_MIN: Duration = Duration::from_millis(5);
/// Backoff ceiling (doubling from [`BACKOFF_MIN`]).
const BACKOFF_MAX: Duration = Duration::from_millis(500);
/// Largest accepted frame body (`from` tag + payload), in bytes; oversized
/// or undersized length prefixes tear the connection and count as decode
/// errors.
const MAX_FRAME: usize = 16 << 20;

#[derive(Debug, Default)]
struct TcpCounters {
    frames_sent: AtomicU64,
    frames_delivered: AtomicU64,
    bytes_sent: AtomicU64,
    dropped_backpressure: AtomicU64,
    dropped_shutdown: AtomicU64,
    dropped_no_receiver: AtomicU64,
    retried: AtomicU64,
    reconnects: AtomicU64,
    decode_errors: AtomicU64,
}

/// A point-in-time view of one endpoint's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpStats {
    /// Frames accepted by `send` (before queueing).
    pub frames_sent: u64,
    /// Frames delivered to this endpoint's registered callback.
    pub frames_delivered: u64,
    /// Payload bytes successfully written to peer sockets.
    pub bytes_sent: u64,
    /// Outbound frames dropped because a peer queue was full.
    pub dropped_backpressure: u64,
    /// Outbound frames dropped because the endpoint shut down.
    pub dropped_shutdown: u64,
    /// Inbound frames discarded because no callback was registered.
    pub dropped_no_receiver: u64,
    /// Frames requeued after a failed write (each will be retried).
    pub retried: u64,
    /// Connection (re)establishment attempts after the first failure.
    pub reconnects: u64,
    /// Torn connections due to malformed frames.
    pub decode_errors: u64,
}

impl TcpStats {
    /// All outbound drops combined (the truncation that actually happened;
    /// `retried` frames were *not* lost).
    pub fn dropped(&self) -> u64 {
        self.dropped_backpressure + self.dropped_shutdown + self.dropped_no_receiver
    }
}

struct PeerState {
    queue: VecDeque<Bytes>,
    worker_running: bool,
}

struct Peer {
    state: Mutex<PeerState>,
    cv: Condvar,
}

struct TcpInner {
    site: SiteId,
    addrs: Vec<SocketAddr>,
    /// The listener's actual bound address (differs from `addrs[site]` when
    /// that entry used port 0).
    listen_addr: SocketAddr,
    /// Locked while the callback runs: one delivery at a time (module docs).
    callback: Mutex<Option<Arc<DeliveryFn>>>,
    peers: Vec<Peer>,
    counters: TcpCounters,
    shutdown: AtomicBool,
    threads: Mutex<Vec<JoinHandle<()>>>,
    /// Accepted inbound streams, kept so shutdown can tear them and
    /// unblock their reader threads.
    inbound: Mutex<Vec<TcpStream>>,
}

/// One site's real-socket endpoint. See the [module docs](self).
pub struct TcpNet {
    inner: Arc<TcpInner>,
}

impl TcpNet {
    /// Bind the listener for `site` at `addrs[site]` and start the accept
    /// loop. Every endpoint of a cluster must be given the identical
    /// `addrs` table (index = site id).
    pub fn bind(site: SiteId, addrs: Vec<SocketAddr>) -> std::io::Result<TcpNet> {
        assert!(
            site.index() < addrs.len(),
            "site {site} outside the address table ({} entries)",
            addrs.len()
        );
        let listener = TcpListener::bind(addrs[site.index()])?;
        TcpNet::with_listener(site, addrs, listener)
    }

    fn with_listener(
        site: SiteId,
        addrs: Vec<SocketAddr>,
        listener: TcpListener,
    ) -> std::io::Result<TcpNet> {
        let n = addrs.len();
        let listen_addr = listener.local_addr()?;
        let inner = Arc::new(TcpInner {
            site,
            addrs,
            listen_addr,
            callback: Mutex::new(None),
            peers: (0..n)
                .map(|_| Peer {
                    state: Mutex::new(PeerState {
                        queue: VecDeque::new(),
                        worker_running: false,
                    }),
                    cv: Condvar::new(),
                })
                .collect(),
            counters: TcpCounters::default(),
            shutdown: AtomicBool::new(false),
            threads: Mutex::new(Vec::new()),
            inbound: Mutex::new(Vec::new()),
        });
        let accept_inner = Arc::clone(&inner);
        let t = std::thread::Builder::new()
            .name(format!("tcp-s{}-accept", site.0))
            .spawn(move || accept_loop(accept_inner, listener))?;
        inner.threads.lock().push(t);
        Ok(TcpNet { inner })
    }

    /// The site this endpoint hosts.
    pub fn local_site(&self) -> SiteId {
        self.inner.site
    }

    /// The address table (index = site id).
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.inner.addrs
    }

    /// Snapshot the endpoint's counters.
    pub fn stats(&self) -> TcpStats {
        let c = &self.inner.counters;
        TcpStats {
            frames_sent: c.frames_sent.load(Ordering::Relaxed),
            frames_delivered: c.frames_delivered.load(Ordering::Relaxed),
            bytes_sent: c.bytes_sent.load(Ordering::Relaxed),
            dropped_backpressure: c.dropped_backpressure.load(Ordering::Relaxed),
            dropped_shutdown: c.dropped_shutdown.load(Ordering::Relaxed),
            dropped_no_receiver: c.dropped_no_receiver.load(Ordering::Relaxed),
            retried: c.retried.load(Ordering::Relaxed),
            reconnects: c.reconnects.load(Ordering::Relaxed),
            decode_errors: c.decode_errors.load(Ordering::Relaxed),
        }
    }

    /// Has [`TcpNet::shutdown`] been called (or the endpoint dropped)?
    pub fn is_shutdown(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// Tear the endpoint down: stop accepting, tear every connection, wake
    /// and join all worker threads. Queued-but-unsent frames are dropped
    /// (counted in [`TcpStats::dropped_shutdown`]). Idempotent — this is
    /// also the crash injection for failover tests: a shut-down endpoint
    /// neither sends nor receives, exactly like a crashed site.
    pub fn shutdown(&self) {
        if self.inner.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.inner.listen_addr);
        // Tear inbound streams so reader threads unblock.
        for s in self.inner.inbound.lock().drain(..) {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        // Wake writers; they drain-drop their queues and exit.
        for p in &self.inner.peers {
            let mut st = p.state.lock();
            let dropped = st.queue.len() as u64;
            st.queue.clear();
            drop(st);
            if dropped > 0 {
                self.inner
                    .counters
                    .dropped_shutdown
                    .fetch_add(dropped, Ordering::Relaxed);
            }
            p.cv.notify_all();
        }
        let threads: Vec<_> = self.inner.threads.lock().drain(..).collect();
        for t in threads {
            let _ = t.join();
        }
    }
}

impl Drop for TcpNet {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for TcpNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpNet")
            .field("site", &self.inner.site)
            .field("sites", &self.inner.addrs.len())
            .field("addr", &self.inner.addrs[self.inner.site.index()])
            .finish()
    }
}

impl Transport for TcpNet {
    fn send(&self, from: SiteId, to: SiteId, payload: Bytes) {
        let inner = &self.inner;
        if inner.shutdown.load(Ordering::SeqCst) {
            inner
                .counters
                .dropped_shutdown
                .fetch_add(1, Ordering::Relaxed);
            return;
        }
        debug_assert!(to.index() < inner.addrs.len(), "send to unknown site {to}");
        if to.index() >= inner.addrs.len() {
            return;
        }
        inner.counters.frames_sent.fetch_add(1, Ordering::Relaxed);
        let frame = encode_frame(from, &payload);
        let peer = &inner.peers[to.index()];
        let mut st = peer.state.lock();
        if st.queue.len() >= QUEUE_CAPACITY {
            st.queue.pop_front();
            inner
                .counters
                .dropped_backpressure
                .fetch_add(1, Ordering::Relaxed);
        }
        st.queue.push_back(frame);
        if !st.worker_running {
            st.worker_running = true;
            drop(st);
            let worker_inner = Arc::clone(inner);
            let t = std::thread::Builder::new()
                .name(format!("tcp-s{}-tx{}", inner.site.0, to.0))
                .spawn(move || writer_loop(worker_inner, to))
                .expect("spawn writer thread");
            inner.threads.lock().push(t);
        } else {
            drop(st);
        }
        peer.cv.notify_one();
    }

    fn site_count(&self) -> usize {
        self.inner.addrs.len()
    }

    fn register(&self, site: SiteId, callback: Arc<DeliveryFn>) {
        assert_eq!(
            site, self.inner.site,
            "TcpNet for {} cannot host a callback for {site}",
            self.inner.site
        );
        *self.inner.callback.lock() = Some(callback);
    }

    fn stats_named(&self, site: SiteId) -> Vec<(&'static str, u64)> {
        if site != self.inner.site {
            return Vec::new(); // counters are per-endpoint; we host one site
        }
        let s = self.stats();
        vec![
            ("sent", s.frames_sent),
            ("delivered", s.frames_delivered),
            ("dropped", s.dropped()),
            ("duplicated", 0),
            ("corrupted", 0),
            ("retried", s.retried),
            ("reconnects", s.reconnects),
            ("decode_errors", s.decode_errors),
        ]
    }
}

fn encode_frame(from: SiteId, payload: &Bytes) -> Bytes {
    let mut out = BytesMut::with_capacity(6 + payload.len());
    out.put_u32_le((2 + payload.len()) as u32);
    out.put_u16_le(from.0);
    out.put_slice(payload);
    out.freeze()
}

fn accept_loop(inner: Arc<TcpInner>, listener: TcpListener) {
    for stream in listener.incoming() {
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        if let Ok(clone) = stream.try_clone() {
            inner.inbound.lock().push(clone);
        }
        let reader_inner = Arc::clone(&inner);
        let t = std::thread::Builder::new()
            .name(format!("tcp-s{}-rx", inner.site.0))
            .spawn(move || reader_loop(reader_inner, stream))
            .expect("spawn reader thread");
        // Readers started mid-shutdown are raced-and-torn by the stream
        // shutdown above; registering them here keeps the join set small.
        if inner.shutdown.load(Ordering::SeqCst) {
            let _ = t.join();
        } else {
            inner.threads.lock().push(t);
        }
    }
}

fn reader_loop(inner: Arc<TcpInner>, mut stream: TcpStream) {
    let mut len_buf = [0u8; 4];
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if read_exact_or_eof(&mut stream, &mut len_buf).is_err() {
            return;
        }
        let len = u32::from_le_bytes(len_buf) as usize;
        if !(2..=MAX_FRAME).contains(&len) {
            inner.counters.decode_errors.fetch_add(1, Ordering::Relaxed);
            return; // tear the connection; the peer will reconnect
        }
        let mut body = vec![0u8; len];
        if read_exact_or_eof(&mut stream, &mut body).is_err() {
            return;
        }
        let from = SiteId(u16::from_le_bytes([body[0], body[1]]));
        let payload = Bytes::from(body).slice(2..);
        let slot = inner.callback.lock();
        match &*slot {
            Some(cb) if !inner.shutdown.load(Ordering::SeqCst) => {
                cb(Datagram {
                    from,
                    to: inner.site,
                    payload,
                });
                inner
                    .counters
                    .frames_delivered
                    .fetch_add(1, Ordering::Relaxed);
            }
            _ => {
                inner
                    .counters
                    .dropped_no_receiver
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

fn read_exact_or_eof(stream: &mut TcpStream, buf: &mut [u8]) -> std::io::Result<()> {
    match stream.read_exact(buf) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == ErrorKind::Interrupted => read_exact_or_eof(stream, buf),
        Err(e) => Err(e),
    }
}

fn writer_loop(inner: Arc<TcpInner>, to: SiteId) {
    let peer = &inner.peers[to.index()];
    let addr = inner.addrs[to.index()];
    let mut stream: Option<TcpStream> = None;
    let mut backoff = BACKOFF_MIN;
    loop {
        // Pop the next frame, waiting if the queue is empty.
        let frame = {
            let mut st = peer.state.lock();
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    let dropped = st.queue.len() as u64;
                    st.queue.clear();
                    if dropped > 0 {
                        inner
                            .counters
                            .dropped_shutdown
                            .fetch_add(dropped, Ordering::Relaxed);
                    }
                    return;
                }
                if let Some(f) = st.queue.pop_front() {
                    break f;
                }
                peer.cv.wait(&mut st);
            }
        };
        // Ensure a connection, backing off between attempts.
        while stream.is_none() {
            if inner.shutdown.load(Ordering::SeqCst) {
                inner
                    .counters
                    .dropped_shutdown
                    .fetch_add(1, Ordering::Relaxed);
                return;
            }
            match TcpStream::connect(addr) {
                Ok(s) => {
                    let _ = s.set_nodelay(true);
                    stream = Some(s);
                    backoff = BACKOFF_MIN;
                }
                Err(_) => {
                    inner.counters.reconnects.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(BACKOFF_MAX);
                }
            }
        }
        let s = stream.as_mut().expect("connected");
        match s.write_all(&frame) {
            Ok(()) => {
                inner
                    .counters
                    .bytes_sent
                    .fetch_add(frame.len() as u64, Ordering::Relaxed);
            }
            Err(_) => {
                // Torn stream: requeue the frame at the front (it was not
                // delivered) and reconnect. The retry is counted so fault
                // windows are visible in stats.
                inner.counters.retried.fetch_add(1, Ordering::Relaxed);
                inner.counters.reconnects.fetch_add(1, Ordering::Relaxed);
                stream = None;
                let mut st = peer.state.lock();
                if st.queue.len() >= QUEUE_CAPACITY {
                    st.queue.pop_back();
                    inner
                        .counters
                        .dropped_backpressure
                        .fetch_add(1, Ordering::Relaxed);
                }
                st.queue.push_front(frame);
                drop(st);
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(BACKOFF_MAX);
            }
        }
    }
}

/// `n` [`TcpNet`] endpoints on ephemeral localhost ports sharing one
/// address table — the in-process harness for real-socket cluster tests
/// and benches. For a multi-process deployment, build each process's
/// endpoint directly with [`TcpNet::bind`] and a shared address table.
pub struct TcpMesh {
    nets: Vec<Arc<TcpNet>>,
}

impl TcpMesh {
    /// Bind `n` endpoints on `127.0.0.1:0` (the OS picks free ports).
    pub fn new(n: usize) -> std::io::Result<TcpMesh> {
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<std::io::Result<_>>()?;
        let addrs: Vec<SocketAddr> = listeners
            .iter()
            .map(|l| l.local_addr())
            .collect::<std::io::Result<_>>()?;
        let nets = listeners
            .into_iter()
            .enumerate()
            .map(|(i, l)| TcpNet::with_listener(SiteId(i as u16), addrs.clone(), l).map(Arc::new))
            .collect::<std::io::Result<_>>()?;
        Ok(TcpMesh { nets })
    }

    /// Endpoint of site `i`.
    pub fn net(&self, i: usize) -> &Arc<TcpNet> {
        &self.nets[i]
    }

    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.nets.len()
    }

    /// The shared address table.
    pub fn addrs(&self) -> &[SocketAddr] {
        self.nets[0].addrs()
    }

    /// Crash site `i`: tear its endpoint down (it neither sends nor
    /// receives afterwards; peers see torn connections and count
    /// retries/reconnects).
    pub fn crash(&self, i: usize) {
        self.nets[i].shutdown();
    }

    /// Aggregate stats over all endpoints.
    pub fn total_stats(&self) -> TcpStats {
        self.nets.iter().fold(TcpStats::default(), |mut a, n| {
            let s = n.stats();
            a.frames_sent += s.frames_sent;
            a.frames_delivered += s.frames_delivered;
            a.bytes_sent += s.bytes_sent;
            a.dropped_backpressure += s.dropped_backpressure;
            a.dropped_shutdown += s.dropped_shutdown;
            a.dropped_no_receiver += s.dropped_no_receiver;
            a.retried += s.retried;
            a.reconnects += s.reconnects;
            a.decode_errors += s.decode_errors;
            a
        })
    }

    /// Tear every endpoint down.
    pub fn shutdown(&self) {
        for n in &self.nets {
            n.shutdown();
        }
    }
}

impl Drop for TcpMesh {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for TcpMesh {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpMesh")
            .field("sites", &self.nets.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_layout() {
        let f = encode_frame(SiteId(7), &Bytes::from_static(b"abc"));
        assert_eq!(&f[..4], &5u32.to_le_bytes());
        assert_eq!(&f[4..6], &7u16.to_le_bytes());
        assert_eq!(&f[6..], b"abc");
    }

    #[test]
    fn stats_dropped_sums() {
        let s = TcpStats {
            dropped_backpressure: 1,
            dropped_shutdown: 2,
            dropped_no_receiver: 3,
            ..TcpStats::default()
        };
        assert_eq!(s.dropped(), 6);
    }
}
