//! The in-process network simulator.
//!
//! [`SimNet`] models `n` sites exchanging UDP-like datagrams with seeded
//! random delays, optional loss, site crashes, and partitions. A single
//! delivery thread pops due datagrams in timestamp order and invokes the
//! destination site's registered callback — in the SAMOA stack that callback
//! is the site's Network Module, which injects the message into the protocol
//! as an isolated computation (run right there, on the delivery thread, when
//! the stack's policy lets no two computations overlap). A delay shorter
//! than a timed sleep can resolve is spun through, not slept or yielded
//! through: the thread keeps its CPU, so what a datagram costs is the delay
//! it was given, not whatever else the scheduler ran meanwhile.
//!
//! The paper's evaluation ran "on distributed machines" (§7); this simulator
//! is the substitute substrate (see DESIGN.md): it preserves the property
//! the isolation machinery cares about — messages arrive asynchronously and
//! concurrently with application activity — while staying deterministic
//! enough for tests (seeded delays and loss).

use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::clock::{next_alarm, ring_next, Host};
use crate::config::NetConfig;
use crate::stats::{SiteCounters, SiteStats};

/// Identifier of a simulated site (process).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(pub u16);

impl SiteId {
    /// Raw index of this site.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// One datagram in flight or delivered.
#[derive(Debug, Clone)]
pub struct Datagram {
    /// Originating site.
    pub from: SiteId,
    /// Destination site.
    pub to: SiteId,
    /// Opaque payload (the protocol stack serialises its own messages).
    pub payload: Bytes,
}

/// Per-site delivery callback.
pub type DeliveryFn = dyn Fn(Datagram) + Send + Sync;

/// Identity and addressing of one in-flight datagram on a manual network
/// (from [`NetHandle::pending_datagrams`]). `seq` is the transport's
/// monotone send counter — stable for the datagram's whole lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingDg {
    /// Transport sequence number (stable identity).
    pub seq: u64,
    /// Originating site.
    pub from: SiteId,
    /// Destination site.
    pub to: SiteId,
}

struct InFlight {
    at: Instant,
    seq: u64,
    dg: Datagram,
}

impl PartialEq for InFlight {
    fn eq(&self, o: &Self) -> bool {
        self.at == o.at && self.seq == o.seq
    }
}
impl Eq for InFlight {}
impl PartialOrd for InFlight {
    fn partial_cmp(&self, o: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(o))
    }
}
impl Ord for InFlight {
    // Reversed: BinaryHeap is a max-heap, we want earliest-first.
    fn cmp(&self, o: &Self) -> CmpOrdering {
        (o.at, o.seq).cmp(&(self.at, self.seq))
    }
}

struct NetState {
    heap: BinaryHeap<InFlight>,
    rng: StdRng,
    crashed: Vec<bool>,
    partition: Vec<usize>,
    loss: f64,
    duplicate: f64,
    corruption: f64,
    shutdown: bool,
    seq: u64,
    delivering: usize,
}

struct NetInner {
    state: Mutex<NetState>,
    cv: Condvar,
    quiesce_cv: Condvar,
    callbacks: RwLock<Vec<Option<Arc<DeliveryFn>>>>,
    counters: Vec<SiteCounters>,
    min_delay: Duration,
    max_delay: Duration,
    /// Manual (pumped) delivery: no delivery thread; in-flight datagrams sit
    /// in the heap until [`NetHandle::pump_one`]. Timestamps are virtual
    /// (`epoch` + drawn delay) so ordering is a pure function of the seed.
    manual: bool,
    /// Fixed origin for virtual timestamps in manual mode.
    epoch: Instant,
    /// The seed of the delay, loss and fault draws ([`NetConfig::seed`]).
    seed: u64,
}

/// A cheap, cloneable handle to the network: send datagrams, inject faults,
/// read statistics. Obtained from [`SimNet::handle`].
#[derive(Clone)]
pub struct NetHandle {
    inner: Arc<NetInner>,
}

impl NetHandle {
    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.inner.counters.len()
    }

    /// All site ids.
    pub fn sites(&self) -> Vec<SiteId> {
        (0..self.site_count() as u16).map(SiteId).collect()
    }

    /// Install (or replace) the delivery callback of a site. A `SimNet`
    /// hosts every site of its address table, so any `site < site_count` is
    /// valid. Datagrams arriving while no callback is registered are
    /// discarded and counted (`SiteStats::dropped_no_receiver`); see the
    /// [`Transport`](crate::transport::Transport) contract.
    pub fn register(&self, site: SiteId, callback: impl Fn(Datagram) + Send + Sync + 'static) {
        self.inner.callbacks.write()[site.index()] = Some(Arc::new(callback));
    }

    /// Send a datagram. Loss is decided immediately; crash and partition are
    /// evaluated at delivery time. Sends from a crashed site vanish.
    pub fn send(&self, from: SiteId, to: SiteId, payload: Bytes) {
        let mut st = self.inner.state.lock();
        if st.shutdown {
            return;
        }
        self.inner.counters[from.index()].note_sent();
        if st.crashed[from.index()] {
            self.inner.counters[to.index()].note_dropped_crash();
            return;
        }
        let loss = st.loss;
        if loss > 0.0 && st.rng.gen_bool(loss) {
            self.inner.counters[to.index()].note_dropped_loss();
            return;
        }
        // Manual mode uses the fixed epoch: a datagram's slot in the heap
        // depends only on the seeded delay draw, never on wall-clock time,
        // so a replayed schedule sees the identical delivery order.
        let now = if self.inner.manual {
            self.inner.epoch
        } else {
            Instant::now()
        };
        let push = |st: &mut NetState, payload: Bytes| {
            let span = self.inner.max_delay.saturating_sub(self.inner.min_delay);
            let delay = if span.is_zero() {
                self.inner.min_delay
            } else {
                self.inner.min_delay + span.mul_f64(st.rng.gen::<f64>())
            };
            st.seq += 1;
            st.heap.push(InFlight {
                at: now + delay,
                seq: st.seq,
                dg: Datagram { from, to, payload },
            });
        };
        let duplicate = st.duplicate > 0.0 && {
            let p = st.duplicate;
            st.rng.gen_bool(p)
        };
        if duplicate {
            self.inner.counters[to.index()].note_duplicated();
            push(&mut st, payload.clone());
        }
        push(&mut st, payload);
        drop(st);
        self.inner.cv.notify_one();
    }

    /// Broadcast a payload to every site except `from` itself.
    pub fn send_all(&self, from: SiteId, payload: Bytes) {
        for to in self.sites() {
            if to != from {
                self.send(from, to, payload.clone());
            }
        }
    }

    /// Crash a site: everything to or from it is dropped until recovery.
    pub fn crash(&self, site: SiteId) {
        self.inner.state.lock().crashed[site.index()] = true;
    }

    /// Recover a crashed site.
    pub fn recover(&self, site: SiteId) {
        self.inner.state.lock().crashed[site.index()] = false;
    }

    /// Is the site currently crashed?
    pub fn is_crashed(&self, site: SiteId) -> bool {
        self.inner.state.lock().crashed[site.index()]
    }

    /// Partition the network into the given groups; sites not listed get a
    /// singleton partition each. Messages cross partitions only after
    /// [`NetHandle::heal`].
    pub fn partition(&self, groups: &[&[SiteId]]) {
        let mut st = self.inner.state.lock();
        let n = st.partition.len();
        for (i, p) in st.partition.iter_mut().enumerate() {
            *p = groups.len() + i; // default: own singleton
        }
        let _ = n;
        for (g, members) in groups.iter().enumerate() {
            for s in members.iter() {
                st.partition[s.index()] = g;
            }
        }
    }

    /// Remove all partitions.
    pub fn heal(&self) {
        let mut st = self.inner.state.lock();
        for p in st.partition.iter_mut() {
            *p = 0;
        }
    }

    /// Change the loss probability on the fly.
    pub fn set_loss(&self, loss: f64) {
        self.inner.state.lock().loss = loss;
    }

    /// Statistics of one site.
    pub fn stats(&self, site: SiteId) -> SiteStats {
        self.inner.counters[site.index()].snapshot()
    }

    /// Aggregate statistics over all sites.
    pub fn total_stats(&self) -> SiteStats {
        self.inner
            .counters
            .iter()
            .map(|c| c.snapshot())
            .fold(SiteStats::default(), |a, b| a + b)
    }

    /// Block until no datagram is in flight or being delivered. Note that a
    /// callback may send new datagrams; `quiesce` returns only once the
    /// whole cascade has drained. On a manual network there is no delivery
    /// thread to wait for, so this pumps the backlog itself.
    pub fn quiesce(&self) {
        if self.inner.manual {
            self.pump_all();
            return;
        }
        let mut st = self.inner.state.lock();
        while !(st.heap.is_empty() && st.delivering == 0) {
            self.inner.quiesce_cv.wait(&mut st);
        }
    }

    /// Drain the network *and* the hosts attached to it to a fixed point:
    /// no datagram in flight and — `quiesce_hosts` blocks until every
    /// host's runtime is idle — no computation running anywhere, stable
    /// across one full round.
    ///
    /// Only terminates for workloads that stop generating traffic (a
    /// failure detector's heartbeats never stop; poll with a deadline
    /// there instead).
    pub fn settle(&self, quiesce_hosts: impl Fn()) {
        loop {
            let before = self.total_stats().sent;
            self.quiesce();
            quiesce_hosts();
            self.quiesce();
            if self.total_stats().sent == before {
                // One more confirmation round: hosts idle and no new sends
                // appeared while we checked.
                quiesce_hosts();
                if self.total_stats().sent == before {
                    return;
                }
            }
        }
    }

    /// Drive a manual network and the `hosts` on it on the virtual time of
    /// their shared manual clock until `done` holds, and return how much
    /// virtual time that took. Two steps, repeated: settle
    /// ([`NetHandle::settle`]: deliver every datagram in flight and quiesce
    /// every host), then advance the clock to the earliest instant a host's
    /// [`Alarm`](crate::Alarm) is armed for and ring each host that is due
    /// ([`ring_due`](crate::ring_due)) through [`Host::on_alarm`] — the code
    /// a wall-clock timer thread runs. A delivery takes no virtual time;
    /// only alarms move the clock.
    ///
    /// Under a policy that runs an external event inline on the entry
    /// thread (`Serial`, `Basic`, `TwoPhase`) everything runs on the
    /// caller's thread, and a run is a function of the net's seed: the same
    /// seed delivers the same datagrams in the same order and ends at the
    /// same virtual time. Under an overlapping policy the order in which
    /// worker threads interleave is not, and exploring it is `samoa-check`'s
    /// job.
    ///
    /// # Panics
    ///
    /// When the network is not manual, or `hosts` is empty or not on a
    /// manual clock. And when `done` does not hold, nothing is in flight,
    /// and no alarm is armed within `within` of the start: a stall, or a
    /// run past its bound. The message names the net's seed and the virtual
    /// time, which replay the run.
    pub fn run_until<H: Host>(
        &self,
        hosts: &[Arc<H>],
        within: Duration,
        mut done: impl FnMut() -> bool,
    ) -> Duration {
        assert!(
            self.is_manual() && hosts.first().is_some_and(|h| h.alarm().clock().is_manual()),
            "run_until drives hosts on a manual network and a manual clock"
        );
        let clock = hosts[0].alarm().clock();
        let start = clock.now();
        loop {
            self.settle(|| hosts.iter().for_each(|h| h.quiesce()));
            let now = clock.now() - start;
            if done() {
                return now;
            }
            // Nothing in flight: only an alarm within the bound moves on.
            let next = next_alarm(hosts);
            assert!(
                next.is_some_and(|at| at <= start + within),
                "seed {}: not done at virtual time {now:?} (bound {within:?}), next alarm at {:?}",
                self.inner.seed,
                next.map(|at| at - start),
            );
            ring_next(hosts);
        }
    }

    /// Is this a manual (pumped) network ([`SimNet::new_manual`])?
    pub fn is_manual(&self) -> bool {
        self.inner.manual
    }

    /// In-flight datagrams waiting to be pumped (or delivered by the
    /// delivery thread, on a threaded network).
    pub fn pending(&self) -> usize {
        self.inner.state.lock().heap.len()
    }

    /// Deliver the earliest in-flight datagram on the *calling* thread:
    /// corruption/crash/partition are applied exactly as the delivery thread
    /// would, and the destination's callback runs before `pump_one` returns.
    /// Returns `false` if nothing was in flight. Primarily for manual
    /// networks, where it folds message delivery into the caller's schedule
    /// (the `samoa-check` explorer pumps from a controlled thread); on a
    /// threaded network it races the delivery thread and is not useful.
    pub fn pump_one(&self) -> bool {
        let mut st = self.inner.state.lock();
        let Some(item) = st.heap.pop() else {
            return false;
        };
        drop(self.deliver_in_flight(st, item));
        true
    }

    /// Deliver one already-extracted in-flight datagram — the one copy of
    /// it, for the delivery thread and every pump: corruption draw, crash
    /// and partition checks, counters, callback on the calling thread. The
    /// lock is released around the callback (it may send, and a host may run
    /// a whole computation in it) and handed back retaken.
    fn deliver_in_flight<'a>(
        &'a self,
        mut st: MutexGuard<'a, NetState>,
        mut item: InFlight,
    ) -> MutexGuard<'a, NetState> {
        let inner = &self.inner;
        let (from, to) = (item.dg.from, item.dg.to);
        if st.corruption > 0.0 && !item.dg.payload.is_empty() {
            let p = st.corruption;
            if st.rng.gen_bool(p) {
                let mut bytes = item.dg.payload.to_vec();
                let idx = st.rng.gen_range(0..bytes.len());
                let bit = st.rng.gen_range(0u8..8);
                bytes[idx] ^= 1u8 << bit;
                item.dg.payload = Bytes::from(bytes);
                inner.counters[to.index()].note_corrupted();
            }
        }
        if st.crashed[to.index()] || st.crashed[from.index()] {
            inner.counters[to.index()].note_dropped_crash();
            return st;
        }
        if st.partition[from.index()] != st.partition[to.index()] {
            inner.counters[to.index()].note_dropped_partition();
            return st;
        }
        let cb = inner.callbacks.read()[to.index()].clone();
        if let Some(cb) = cb {
            st.delivering += 1;
            drop(st);
            cb(item.dg);
            inner.counters[to.index()].note_delivered();
            st = inner.state.lock();
            st.delivering -= 1;
            if st.delivering == 0 && st.heap.is_empty() {
                inner.quiesce_cv.notify_all();
            }
        } else {
            // Unregistered destination: silently discarded, but counted, so
            // the drop is visible in stats (Transport contract).
            inner.counters[to.index()].note_dropped_no_receiver();
        }
        st
    }

    /// Pump until nothing is in flight (callbacks may send more; the whole
    /// cascade is drained).
    pub fn pump_all(&self) -> usize {
        let mut n = 0;
        while self.pump_one() {
            n += 1;
        }
        n
    }

    /// Enumerate the in-flight datagrams, sorted by transport sequence
    /// number. The `seq` of a [`PendingDg`] is the monotone counter stamped
    /// at send time — a **stable identity** for the physical datagram: it
    /// never changes as other messages are pumped or dropped, and it is a
    /// pure function of the send history, never of the seeded delay draws.
    /// A fault-exploring harness uses it to address individual messages
    /// ([`pump_seq`](NetHandle::pump_seq), [`drop_seq`](NetHandle::drop_seq),
    /// [`duplicate_seq`](NetHandle::duplicate_seq)) across replayed runs.
    pub fn pending_datagrams(&self) -> Vec<PendingDg> {
        let st = self.inner.state.lock();
        let mut v: Vec<PendingDg> = st
            .heap
            .iter()
            .map(|f| PendingDg {
                seq: f.seq,
                from: f.dg.from,
                to: f.dg.to,
            })
            .collect();
        v.sort_unstable_by_key(|d| d.seq);
        v
    }

    /// Extract the in-flight datagram with transport sequence `seq`. The
    /// heap is rebuilt without it; in-flight counts here are small (manual
    /// fault scenarios), so the O(n) rebuild is irrelevant.
    fn extract_seq(st: &mut NetState, seq: u64) -> Option<InFlight> {
        let mut v = std::mem::take(&mut st.heap).into_vec();
        let idx = v.iter().position(|f| f.seq == seq);
        let item = idx.map(|i| v.swap_remove(i));
        st.heap = BinaryHeap::from(v);
        item
    }

    /// Deliver the in-flight datagram with transport sequence `seq` (from
    /// [`NetHandle::pending_datagrams`]) on the calling thread, out of
    /// timestamp order if need be — this is the *message reorder* seam: a
    /// controller that picks which pending datagram to pump next owns the
    /// delivery order outright. Same crash/partition/callback semantics as
    /// [`NetHandle::pump_one`]. Returns `false` if `seq` is not in flight.
    pub fn pump_seq(&self, seq: u64) -> bool {
        let mut st = self.inner.state.lock();
        let Some(item) = Self::extract_seq(&mut st, seq) else {
            return false;
        };
        drop(self.deliver_in_flight(st, item));
        true
    }

    /// Drop the in-flight datagram with transport sequence `seq`: it is
    /// removed and never delivered, counted as a loss at the destination.
    /// The *message drop* fault decision. Returns `false` if not in flight.
    pub fn drop_seq(&self, seq: u64) -> bool {
        let mut st = self.inner.state.lock();
        let Some(item) = Self::extract_seq(&mut st, seq) else {
            return false;
        };
        self.inner.counters[item.dg.to.index()].note_dropped_loss();
        if st.delivering == 0 && st.heap.is_empty() {
            self.inner.quiesce_cv.notify_all();
        }
        true
    }

    /// Duplicate the in-flight datagram with transport sequence `seq`: an
    /// identical copy (same timestamp, fresh sequence number — no random
    /// draw, so determinism is preserved) joins the in-flight set. The
    /// *message duplicate* fault decision. Returns the copy's sequence
    /// number, or `None` if `seq` is not in flight.
    pub fn duplicate_seq(&self, seq: u64) -> Option<u64> {
        let mut st = self.inner.state.lock();
        let found = st.heap.iter().find(|f| f.seq == seq)?;
        let (at, dg) = (found.at, found.dg.clone());
        st.seq += 1;
        let new_seq = st.seq;
        self.inner.counters[dg.to.index()].note_duplicated();
        st.heap.push(InFlight {
            at,
            seq: new_seq,
            dg,
        });
        Some(new_seq)
    }

    fn request_shutdown(&self) {
        self.inner.state.lock().shutdown = true;
        self.inner.cv.notify_all();
        self.inner.quiesce_cv.notify_all();
    }
}

/// The simulator: owns the delivery thread. Dropping it shuts the network
/// down (remaining in-flight datagrams are discarded).
pub struct SimNet {
    handle: NetHandle,
    thread: Option<JoinHandle<()>>,
}

impl SimNet {
    /// Create a network of `n_sites` sites.
    pub fn new(n_sites: usize, config: NetConfig) -> SimNet {
        let handle = SimNet::make_handle(n_sites, config, false);
        let thread_handle = handle.clone();
        let thread = std::thread::Builder::new()
            .name("simnet-delivery".into())
            .spawn(move || delivery_loop(thread_handle))
            .expect("spawn delivery thread");
        SimNet {
            handle,
            thread: Some(thread),
        }
    }

    /// Create a *manual* network: no delivery thread. Datagrams stay queued
    /// until someone calls [`NetHandle::pump_one`]/[`NetHandle::pump_all`],
    /// which runs the delivery callback on the pumping thread. Delivery
    /// order is determined by the seeded delay draws alone (virtual
    /// timestamps — wall-clock time never enters), so a manual network is
    /// fully deterministic under a controlled thread schedule. This is the
    /// substrate `samoa-check` scenarios use to fold message delivery into
    /// the explored schedule.
    pub fn new_manual(n_sites: usize, config: NetConfig) -> SimNet {
        SimNet {
            handle: SimNet::make_handle(n_sites, config, true),
            thread: None,
        }
    }

    fn make_handle(n_sites: usize, config: NetConfig, manual: bool) -> NetHandle {
        NetHandle {
            inner: Arc::new(NetInner {
                state: Mutex::new(NetState {
                    heap: BinaryHeap::new(),
                    rng: StdRng::seed_from_u64(config.seed),
                    crashed: vec![false; n_sites],
                    partition: vec![0; n_sites],
                    loss: config.loss_probability,
                    duplicate: config.duplicate_probability,
                    corruption: config.corruption_probability,
                    shutdown: false,
                    seq: 0,
                    delivering: 0,
                }),
                cv: Condvar::new(),
                quiesce_cv: Condvar::new(),
                callbacks: RwLock::new((0..n_sites).map(|_| None).collect()),
                counters: (0..n_sites).map(|_| SiteCounters::default()).collect(),
                min_delay: config.min_delay,
                max_delay: config.max_delay.max(config.min_delay),
                manual,
                epoch: Instant::now(),
                seed: config.seed,
            }),
        }
    }

    /// A cloneable handle for senders and fault injectors.
    pub fn handle(&self) -> NetHandle {
        self.handle.clone()
    }

    /// Shut the network down explicitly (also happens on drop).
    pub fn shutdown(&mut self) {
        self.handle.request_shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl std::ops::Deref for SimNet {
    type Target = NetHandle;
    fn deref(&self) -> &NetHandle {
        &self.handle
    }
}

impl Drop for SimNet {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl fmt::Debug for SimNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimNet")
            .field("sites", &self.handle.site_count())
            .finish()
    }
}

/// What a timed wait cannot resolve: the kernel rounds a sleep up by its
/// timer slack (50 us by default on Linux) and waking costs a few more, so a
/// delay shorter than this is overslept several times over. The delivery
/// thread spins through such a wait instead of sleeping through it, and
/// keeps its CPU: a yield would hand it to whichever thread the scheduler
/// picks, for as long as that thread runs.
const TIMER_RESOLUTION: Duration = Duration::from_micros(60);

/// Spin-loop hints between two looks at the heap while a delay shorter than
/// [`TIMER_RESOLUTION`] runs out: a few microseconds, with the lock free for
/// senders, so a datagram that is due earlier, or a shutdown, is seen
/// within them.
const SPINS_PER_LOOK: u32 = 64;

fn delivery_loop(net: NetHandle) {
    let inner = &net.inner;
    let mut st = inner.state.lock();
    while !st.shutdown {
        let now = Instant::now();
        match st.heap.peek().map(|top| top.at) {
            Some(at) if at <= now => {
                let item = st.heap.pop().expect("peeked");
                st = net.deliver_in_flight(st, item);
            }
            Some(at) if at - now <= TIMER_RESOLUTION => {
                drop(st);
                for _ in 0..SPINS_PER_LOOK {
                    std::hint::spin_loop();
                }
                st = inner.state.lock();
            }
            Some(at) => {
                inner.cv.wait_until(&mut st, at);
            }
            None => {
                if st.delivering == 0 {
                    inner.quiesce_cv.notify_all();
                }
                inner.cv.wait(&mut st);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn payload(b: u8) -> Bytes {
        Bytes::copy_from_slice(&[b])
    }

    fn collect_net(n: usize, cfg: NetConfig) -> (SimNet, Vec<Arc<Mutex<Vec<u8>>>>) {
        let net = SimNet::new(n, cfg);
        let logs: Vec<Arc<Mutex<Vec<u8>>>> =
            (0..n).map(|_| Arc::new(Mutex::new(Vec::new()))).collect();
        for (i, log) in logs.iter().enumerate() {
            let log = Arc::clone(log);
            net.register(SiteId(i as u16), move |dg| {
                log.lock().push(dg.payload[0]);
            });
        }
        (net, logs)
    }

    fn collect_manual(n: usize, cfg: NetConfig) -> (SimNet, Vec<Arc<Mutex<Vec<u8>>>>) {
        let net = SimNet::new_manual(n, cfg);
        let logs: Vec<Arc<Mutex<Vec<u8>>>> =
            (0..n).map(|_| Arc::new(Mutex::new(Vec::new()))).collect();
        for (i, log) in logs.iter().enumerate() {
            let log = Arc::clone(log);
            net.register(SiteId(i as u16), move |dg| {
                log.lock().push(dg.payload[0]);
            });
        }
        (net, logs)
    }

    #[test]
    fn pending_datagrams_expose_stable_seqs() {
        let (net, _logs) = collect_manual(3, NetConfig::fast(5));
        net.send(SiteId(0), SiteId(1), payload(1));
        net.send(SiteId(0), SiteId(2), payload(2));
        net.send(SiteId(1), SiteId(2), payload(3));
        let pend = net.handle().pending_datagrams();
        assert_eq!(pend.len(), 3);
        // Sorted by monotone seq: identity follows send order, not delays.
        assert_eq!(pend[0].seq, 1);
        assert_eq!(pend[2].seq, 3);
        assert_eq!((pend[1].from, pend[1].to), (SiteId(0), SiteId(2)));
        // Pumping one message leaves the others' identities untouched.
        assert!(net.handle().pump_seq(pend[1].seq));
        let rest: Vec<u64> = net
            .handle()
            .pending_datagrams()
            .iter()
            .map(|d| d.seq)
            .collect();
        assert_eq!(rest, vec![1, 3]);
    }

    #[test]
    fn pump_seq_delivers_out_of_order_and_drop_seq_discards() {
        let (net, logs) = collect_manual(2, NetConfig::fast(6));
        net.send(SiteId(0), SiteId(1), payload(10));
        net.send(SiteId(0), SiteId(1), payload(20));
        net.send(SiteId(0), SiteId(1), payload(30));
        let h = net.handle();
        // Deliver the third first (reorder), drop the first, deliver the rest.
        assert!(h.pump_seq(3));
        assert!(h.drop_seq(1));
        assert!(!h.drop_seq(1), "already gone");
        assert_eq!(h.pump_all(), 1);
        assert_eq!(*logs[1].lock(), vec![30, 20]);
        assert_eq!(net.stats(SiteId(1)).dropped_loss, 1);
        assert_eq!(net.stats(SiteId(1)).delivered, 2);
    }

    #[test]
    fn duplicate_seq_clones_without_consuming_randomness() {
        let (net, logs) = collect_manual(2, NetConfig::fast(7));
        net.send(SiteId(0), SiteId(1), payload(42));
        let h = net.handle();
        let copy = h.duplicate_seq(1).expect("in flight");
        assert_ne!(copy, 1);
        assert_eq!(h.pending_datagrams().len(), 2);
        assert!(h.duplicate_seq(99).is_none());
        h.pump_all();
        assert_eq!(*logs[1].lock(), vec![42, 42]);
        assert_eq!(net.stats(SiteId(1)).duplicated, 1);
    }

    #[test]
    fn basic_delivery() {
        let (net, logs) = collect_net(2, NetConfig::fast(1));
        net.send(SiteId(0), SiteId(1), payload(7));
        net.quiesce();
        assert_eq!(*logs[1].lock(), vec![7]);
        assert_eq!(net.stats(SiteId(0)).sent, 1);
        assert_eq!(net.stats(SiteId(1)).delivered, 1);
    }

    #[test]
    fn send_all_reaches_everyone_but_self() {
        let (net, logs) = collect_net(4, NetConfig::fast(2));
        net.send_all(SiteId(2), payload(9));
        net.quiesce();
        for (i, log) in logs.iter().enumerate() {
            let expected: Vec<u8> = if i == 2 { vec![] } else { vec![9] };
            assert_eq!(*log.lock(), expected, "site {i}");
        }
    }

    #[test]
    fn crashed_destination_drops() {
        let (net, logs) = collect_net(2, NetConfig::fast(3));
        net.crash(SiteId(1));
        net.send(SiteId(0), SiteId(1), payload(1));
        net.quiesce();
        assert!(logs[1].lock().is_empty());
        assert_eq!(net.stats(SiteId(1)).dropped_crash, 1);
        net.recover(SiteId(1));
        net.send(SiteId(0), SiteId(1), payload(2));
        net.quiesce();
        assert_eq!(*logs[1].lock(), vec![2]);
    }

    #[test]
    fn crashed_sender_sends_nothing() {
        let (net, logs) = collect_net(2, NetConfig::fast(4));
        net.crash(SiteId(0));
        net.send(SiteId(0), SiteId(1), payload(1));
        net.quiesce();
        assert!(logs[1].lock().is_empty());
        assert!(!net.is_crashed(SiteId(1)));
        assert!(net.is_crashed(SiteId(0)));
    }

    #[test]
    fn partition_blocks_and_heal_restores() {
        let (net, logs) = collect_net(3, NetConfig::fast(5));
        net.partition(&[&[SiteId(0)], &[SiteId(1), SiteId(2)]]);
        net.send(SiteId(0), SiteId(1), payload(1));
        net.send(SiteId(1), SiteId(2), payload(2));
        net.quiesce();
        assert!(logs[1].lock().is_empty(), "cross-partition delivered");
        assert_eq!(*logs[2].lock(), vec![2], "intra-partition blocked");
        assert_eq!(net.stats(SiteId(1)).dropped_partition, 1);
        net.heal();
        net.send(SiteId(0), SiteId(1), payload(3));
        net.quiesce();
        assert_eq!(*logs[1].lock(), vec![3]);
    }

    #[test]
    fn full_loss_drops_everything() {
        let (net, logs) = collect_net(2, NetConfig::fast(6).with_loss(1.0));
        for i in 0..10 {
            net.send(SiteId(0), SiteId(1), payload(i));
        }
        net.quiesce();
        assert!(logs[1].lock().is_empty());
        assert_eq!(net.stats(SiteId(1)).dropped_loss, 10);
        net.set_loss(0.0);
        net.send(SiteId(0), SiteId(1), payload(42));
        net.quiesce();
        assert_eq!(*logs[1].lock(), vec![42]);
    }

    #[test]
    fn same_seed_same_loss_pattern() {
        let outcome = |seed: u64| {
            let (net, logs) = collect_net(2, NetConfig::fast(seed).with_loss(0.5));
            for i in 0..20 {
                net.send(SiteId(0), SiteId(1), payload(i));
            }
            net.quiesce();
            let mut got = logs[1].lock().clone();
            got.sort_unstable();
            got
        };
        assert_eq!(outcome(42), outcome(42));
    }

    #[test]
    fn callback_can_send_and_quiesce_waits_for_cascade() {
        let net = SimNet::new(2, NetConfig::fast(7));
        let hits = Arc::new(AtomicUsize::new(0));
        {
            let h = net.handle();
            let hits = Arc::clone(&hits);
            net.register(SiteId(1), move |dg| {
                hits.fetch_add(1, Ordering::SeqCst);
                // Ping-pong until payload reaches 0.
                if dg.payload[0] > 0 {
                    h.send(SiteId(1), SiteId(0), payload(dg.payload[0] - 1));
                }
            });
        }
        {
            let h = net.handle();
            let hits = Arc::clone(&hits);
            net.register(SiteId(0), move |dg| {
                hits.fetch_add(1, Ordering::SeqCst);
                if dg.payload[0] > 0 {
                    h.send(SiteId(0), SiteId(1), payload(dg.payload[0] - 1));
                }
            });
        }
        net.send(SiteId(0), SiteId(1), payload(6));
        net.quiesce();
        assert_eq!(hits.load(Ordering::SeqCst), 7);
    }

    #[test]
    fn delivery_respects_timestamp_order_for_deterministic_delays() {
        // With min == max the delay is constant, so FIFO order holds.
        let cfg = NetConfig {
            seed: 1,
            min_delay: Duration::from_micros(200),
            max_delay: Duration::from_micros(200),
            loss_probability: 0.0,
            duplicate_probability: 0.0,
            corruption_probability: 0.0,
        };
        let (net, logs) = collect_net(2, cfg);
        for i in 0..10 {
            net.send(SiteId(0), SiteId(1), payload(i));
        }
        net.quiesce();
        assert_eq!(*logs[1].lock(), (0..10).collect::<Vec<u8>>());
    }

    #[test]
    fn full_duplication_doubles_deliveries() {
        let (net, logs) = collect_net(2, NetConfig::fast(12).with_duplicates(1.0));
        for i in 0..5 {
            net.send(SiteId(0), SiteId(1), payload(i));
        }
        net.quiesce();
        assert_eq!(
            logs[1].lock().len(),
            10,
            "every datagram should arrive twice"
        );
        assert_eq!(net.stats(SiteId(1)).duplicated, 5);
        let mut got = logs[1].lock().clone();
        got.sort_unstable();
        assert_eq!(got, vec![0, 0, 1, 1, 2, 2, 3, 3, 4, 4]);
    }

    #[test]
    fn no_duplication_by_default() {
        let (net, logs) = collect_net(2, NetConfig::fast(13));
        net.send(SiteId(0), SiteId(1), payload(1));
        net.quiesce();
        assert_eq!(logs[1].lock().len(), 1);
        assert_eq!(net.stats(SiteId(1)).duplicated, 0);
    }

    #[test]
    fn full_corruption_flips_exactly_one_bit() {
        let (net, logs) = collect_net(2, NetConfig::fast(14).with_corruption(1.0));
        net.send(
            SiteId(0),
            SiteId(1),
            Bytes::copy_from_slice(&[0u8, 0, 0, 0]),
        );
        net.quiesce();
        let got = logs[1].lock().clone();
        // collect_net's callback stores only the first byte; use stats and
        // a dedicated capture instead.
        let _ = got;
        assert_eq!(net.stats(SiteId(1)).corrupted, 1);
    }

    #[test]
    fn corruption_alters_payload_bits() {
        let net = SimNet::new(2, NetConfig::fast(15).with_corruption(1.0));
        let got: Arc<Mutex<Vec<Bytes>>> = Arc::new(Mutex::new(Vec::new()));
        {
            let got = Arc::clone(&got);
            net.register(SiteId(1), move |dg| got.lock().push(dg.payload));
        }
        let original = Bytes::from_static(&[0xAA, 0xBB, 0xCC]);
        net.send(SiteId(0), SiteId(1), original.clone());
        net.quiesce();
        let delivered = got.lock()[0].clone();
        assert_eq!(delivered.len(), original.len());
        let diff_bits: u32 = delivered
            .iter()
            .zip(original.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff_bits, 1, "exactly one bit must flip");
    }

    #[test]
    fn manual_net_holds_until_pumped() {
        let net = SimNet::new_manual(2, NetConfig::fast(1));
        assert!(net.is_manual());
        let log = Arc::new(Mutex::new(Vec::new()));
        {
            let log = Arc::clone(&log);
            net.register(SiteId(1), move |dg| log.lock().push(dg.payload[0]));
        }
        net.send(SiteId(0), SiteId(1), payload(3));
        net.send(SiteId(0), SiteId(1), payload(4));
        assert_eq!(net.pending(), 2);
        assert!(log.lock().is_empty(), "nothing delivered before pumping");
        assert!(net.pump_one());
        assert_eq!(log.lock().len(), 1);
        assert_eq!(net.pump_all(), 1);
        assert!(!net.pump_one());
        assert_eq!(log.lock().len(), 2);
    }

    #[test]
    fn manual_net_order_is_seed_deterministic() {
        let run = |seed: u64| {
            let net = SimNet::new_manual(2, NetConfig::default().with_seed(seed));
            let log = Arc::new(Mutex::new(Vec::new()));
            {
                let log = Arc::clone(&log);
                net.register(SiteId(1), move |dg| log.lock().push(dg.payload[0]));
            }
            for i in 0..16 {
                net.send(SiteId(0), SiteId(1), payload(i));
            }
            net.pump_all();
            let got = log.lock().clone();
            got
        };
        assert_eq!(run(9), run(9), "same seed, same delivery order");
        // Random delays actually reorder (otherwise virtual time is moot).
        assert_ne!(run(9), (0..16).collect::<Vec<u8>>());
    }

    #[test]
    fn manual_net_quiesce_pumps_cascades() {
        let net = SimNet::new_manual(2, NetConfig::fast(2));
        let hits = Arc::new(AtomicUsize::new(0));
        for (me, other) in [(SiteId(0), SiteId(1)), (SiteId(1), SiteId(0))] {
            let h = net.handle();
            let hits = Arc::clone(&hits);
            net.register(me, move |dg| {
                hits.fetch_add(1, Ordering::SeqCst);
                if dg.payload[0] > 0 {
                    h.send(me, other, payload(dg.payload[0] - 1));
                }
            });
        }
        net.send(SiteId(0), SiteId(1), payload(4));
        net.quiesce();
        assert_eq!(hits.load(Ordering::SeqCst), 5);
        assert_eq!(net.pending(), 0);
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        let mut net = SimNet::new(2, NetConfig::fast(8));
        net.send(SiteId(0), SiteId(1), payload(1));
        net.shutdown();
        net.shutdown();
        // Sends after shutdown are ignored.
        net.send(SiteId(0), SiteId(1), payload(2));
    }
}
