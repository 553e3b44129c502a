//! What one atomic broadcast allocates, counted exactly: the first rows of
//! a cost ledger that does not drift with the box it runs on.
//!
//! The rig is `commit_frames.rs`'s: three full nodes on a manual
//! [`SimNet`] and a manual clock, policy `Basic`, each broadcaster's own
//! datagrams delivered before any forwarded copy. So the rows are the
//! commits that file pins as 9 and 6 frames (the coordinator's request
//! travels only inside its `Propose`, and its decision point to point) and
//! the burst it pins as two packed requests. Nothing runs on another
//! thread: a datagram is
//! delivered by the `pump_seq` the test thread calls, and its computation
//! runs inline there. A thread-local count of the global allocator's calls
//! therefore sees exactly what the stack and the network allocated for the
//! commit, and nothing a sibling test did. The rig's own bookkeeping —
//! telling a forwarded copy from an original, listing what is in flight —
//! runs with the count paused. Reallocations count as allocations (the
//! counter wraps `alloc` only, and the default `realloc` goes through it).
//!
//! Each case first runs the same commit on a throwaway cluster, so lazy
//! one-time allocations — thread-locals, process-wide caches — are made
//! before counting starts, whichever test runs first. The counts are then
//! a function of the code and the seed: a change that moves one updates
//! the pin and says why.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use samoa_net::sim::DeliveryFn;
use samoa_net::{NetConfig, NetHandle, SimNet, SiteId, Transport};
use samoa_proto::{Node, NodeConfig, Payload, ProtoClock, Wire};

// ---- thread-local counting allocator ------------------------------------

struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static PAUSED: Cell<bool> = const { Cell::new(false) };
}

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: allocations during TLS teardown must not panic.
        let _ = THREAD_ALLOCS.try_with(|c| {
            if !PAUSED.with(Cell::get) {
                c.set(c.get() + 1)
            }
        });
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Run `f` with the count paused.
fn uncounted<T>(f: impl FnOnce() -> T) -> T {
    PAUSED.with(|p| p.set(true));
    let out = f();
    PAUSED.with(|p| p.set(false));
    out
}

// ---- the rig -------------------------------------------------------------

/// Forwards to the network and notes, per datagram in send order, whether
/// it carries a request sent on by a site other than its origin.
struct Relays {
    inner: NetHandle,
    relay: Mutex<Vec<bool>>,
}

impl Transport for Relays {
    fn send(&self, from: SiteId, to: SiteId, payload: Bytes) {
        uncounted(|| {
            let relay = match Wire::decode(payload.clone()) {
                Ok(Wire::Data {
                    payload: Payload::Request(batch),
                    ..
                }) => batch.iter().any(|m| m.uid.origin != from),
                _ => false,
            };
            self.relay.lock().expect("relay log").push(relay);
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

/// What `casts` back-to-back atomic broadcasts from site `origin` of a
/// fresh three-site cluster cost until the network is quiet, origin's
/// datagrams first: heap allocations on this thread, and datagrams sent.
fn commit(origin: usize, casts: usize, seed: u64) -> (u64, u64) {
    let net = SimNet::new_manual(3, NetConfig::fast(seed));
    let h = net.handle();
    let relays = Arc::new(Relays {
        inner: net.handle(),
        relay: Mutex::new(Vec::new()),
    });
    let cfg = NodeConfig {
        clock: ProtoClock::manual(),
        ..NodeConfig::default()
    };
    let nodes: Vec<Arc<Node>> = (0..3)
        .map(|i| Node::new_on(relays.clone(), SiteId(i), cfg.clone()))
        .collect();
    let before = thread_allocs();
    for i in 0..casts {
        let cast = uncounted(|| format!("m{i}"));
        nodes[origin].abcast(cast);
    }
    loop {
        for n in &nodes {
            n.runtime().quiesce();
        }
        let next = uncounted(|| {
            let relay = relays.relay.lock().expect("relay log");
            h.pending_datagrams()
                .into_iter()
                .map(|dg| (relay[dg.seq as usize - 1], dg.seq))
                .min()
        });
        match next {
            Some((_, seq)) => assert!(h.pump_seq(seq)),
            None => break,
        }
    }
    let allocs = thread_allocs() - before;
    for n in &nodes {
        assert_eq!(n.ab_delivered().len(), casts, "{:?}", n.site);
        assert_eq!(n.external_errors(), 0, "{:?}", n.site);
    }
    (allocs, h.total_stats().sent)
}

/// [`commit`] after the same commit on a throwaway cluster.
fn warm_commit(origin: usize, casts: usize, seed: u64) -> (u64, u64) {
    let warm_up = commit(origin, casts, seed);
    let counted = commit(origin, casts, seed);
    assert_eq!(counted.1, warm_up.1, "the same schedule both times");
    counted
}

/// The count to expect: a debug build also runs core's check of every
/// trigger against its handler's declaration, which allocates.
fn allocs(debug: u64, release: u64) -> u64 {
    if cfg!(debug_assertions) {
        debug
    } else {
        release
    }
}

// Site 0 coordinates round 0. A batch collected from what a site holds is
// written into its one allocation, an empty one allocates nothing, and a
// decision's `ADeliver` runs are ranges of the decided batch, not copies.
// A computation's Rule 1 allocates its entry vector and nothing else; the
// three rows run 10, 7 and 26 computations.

#[test]
fn one_commit_from_a_follower() {
    assert_eq!(warm_commit(1, 1, 41), (allocs(177, 162), 9));
}

#[test]
fn one_commit_from_the_coordinator() {
    assert_eq!(warm_commit(0, 1, 41), (allocs(133, 123), 6));
}

#[test]
fn a_burst_of_eight_casts_from_a_follower() {
    assert_eq!(warm_commit(1, 8, 43), (allocs(342, 313), 18));
}
