//! Acceptance guard for the lock-free admission cost model: the
//! *uncontended* Rule-2 admission path is a single atomic probe — no
//! parking, no condvar signalling (each park / notify is the one place the
//! runtime would make a syscall), no gate spinning, and zero heap
//! allocations. `samoa_core::version::{parks, park_notifies, gate_spins}`
//! count every slow-path entry process-wide on the parking seam shared by
//! `VersionCell`, the 2PL `LockCell`s and `Runtime::quiesce`, so zero
//! deltas across full sequential workloads prove the fast path never
//! leaves user space.
//!
//! The park counters are process-global and the liveness leg parks on
//! purpose, so everything watching them lives in one `#[test]`
//! (uncontended first, then contended); the allocation proof uses a
//! thread-local counter and runs as its own `#[test]` in parallel safely.
//! Each file under `tests/` is its own process, so sibling test binaries
//! (which do park) cannot perturb these counters.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use common::chain_stack;
use samoa_core::version::{gate_spins, park_notifies, parks};
use samoa_core::{Ctx, Decl, EventData, ProtocolState, Result, Runtime, StackBuilder};

// ---- thread-local counting allocator ------------------------------------

/// Counts allocations per thread; `Ctx::trigger` runs handlers inline on
/// the calling worker thread, so a handler-side reading of this counter
/// captures exactly the admissions it performed, immune to allocator noise
/// from unrelated threads.
struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: allocations during TLS teardown must not panic.
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

// ---- helpers -------------------------------------------------------------

/// A stack of `n` independent no-op microprotocols (handler `i` on event
/// `i` does nothing), for spawning computations whose only cost is the
/// admission machinery itself.
fn noop_stack(
    n: usize,
) -> (
    Runtime,
    Vec<samoa_core::ProtocolId>,
    Vec<samoa_core::EventType>,
) {
    let mut b = StackBuilder::new();
    let mut protocols = Vec::new();
    let mut events = Vec::new();
    for i in 0..n {
        let p = b.protocol(&format!("P{i}"));
        let e = b.event(&format!("E{i}"));
        b.bind(e, p, &format!("h{i}"), move |_ctx, _ev| Ok(()));
        protocols.push(p);
        events.push(e);
    }
    (Runtime::new(b.build()), protocols, events)
}

// ---- the park/notify/gate-spin guard ------------------------------------

#[test]
fn uncontended_admission_never_parks_contended_admission_does() {
    // --- zero leg: strictly sequential computations (each joined before
    // the next spawns) across every policy family — version cells
    // (Basic/Bound/Route), the 2PL lock table (TwoPhase) and the
    // all-declaring Serial comparator. Nothing can conflict, so the
    // fast path must absorb every admission: zero parks, zero notifies,
    // zero Rule-1 gate spins.
    let (rt, protocols, events) = noop_stack(3);
    let bounds: Vec<(samoa_core::ProtocolId, u64)> = protocols.iter().map(|&p| (p, 1)).collect();
    let route_stack = chain_stack(3, None);
    let pattern = route_stack.route_pattern();

    let (p0, n0, g0) = (parks(), park_notifies(), gate_spins());
    for _ in 0..32 {
        let evs = events.clone();
        let body = move |ctx: &Ctx| {
            for e in &evs {
                ctx.trigger(*e, EventData::empty())?;
            }
            Ok(())
        };
        for decl in [
            Decl::Basic(&protocols),
            Decl::Bound(&bounds),
            Decl::TwoPhase(&protocols),
            Decl::Serial,
        ] {
            rt.spawn(decl, body.clone()).join().expect("noop comp");
        }
        let entry = route_stack.entry;
        route_stack
            .rt
            .spawn(Decl::Route(&pattern), move |ctx: &Ctx| {
                ctx.trigger(entry, EventData::empty())
            })
            .join()
            .expect("route comp");
    }
    rt.quiesce();
    route_stack.rt.quiesce();
    assert_eq!(parks() - p0, 0, "uncontended admission parked");
    assert_eq!(park_notifies() - n0, 0, "uncontended completion notified");
    assert_eq!(
        gate_spins() - g0,
        0,
        "uncontended Rule-1 sweep spun on a gate"
    );

    // --- liveness leg: an actual conflict must drive the counters, or the
    // zero assertions above are vacuous. Computation A holds protocol P
    // asleep past the spin budget; B's admission on P must park, and A's
    // Rule-3 release must notify it.
    let mut b = StackBuilder::new();
    let p = b.protocol("P");
    let e = b.event("E");
    let running = Arc::new(AtomicBool::new(false));
    {
        let running = Arc::clone(&running);
        let state = ProtocolState::new(p, 0u64);
        b.bind(e, p, "h", move |ctx, ev| {
            let sleep_ms: u64 = *ev.expect::<u64>(e)?;
            state.with(ctx, |v| *v += 1);
            if sleep_ms > 0 {
                running.store(true, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(sleep_ms));
            }
            Ok(())
        });
    }
    let rt = Runtime::new(b.build());
    let decl = [p];
    let (p0, n0) = (parks(), park_notifies());
    let a = rt.spawn(Decl::Basic(&decl), move |ctx: &Ctx| ctx.trigger(e, 80u64));
    while !running.load(Ordering::SeqCst) {
        std::hint::spin_loop();
    }
    let b_comp = rt.spawn(Decl::Basic(&decl), move |ctx: &Ctx| ctx.trigger(e, 0u64));
    a.join().expect("holder");
    b_comp.join().expect("waiter");
    assert!(parks() - p0 > 0, "a blocked admission never parked");
    assert!(
        park_notifies() - n0 > 0,
        "a release with a parked waiter never notified"
    );
}

// ---- the zero-allocation guard ------------------------------------------

#[test]
fn uncontended_admission_allocates_nothing() {
    // Admission cost is isolated by differencing against `Unsync` (whose
    // Rule 2 is a no-op): the same handler loop on the same thread
    // allocates some fixed amount per trigger for the shared machinery
    // (exec state, event dispatch); if versioned admission allocated
    // anything, the versioned total would exceed the unsync total.
    fn allocs_per_run(rt: &Runtime, decl: Decl<'_>, events: &[samoa_core::EventType]) -> u64 {
        const TRIGGERS: usize = 128;
        let out = Arc::new(AtomicU64::new(0));
        let evs = events.to_vec();
        let out2 = Arc::clone(&out);
        let body = move |ctx: &Ctx| -> Result<()> {
            // Warm up lazy one-time allocations (TLS, queue growth).
            for e in &evs {
                for _ in 0..16 {
                    ctx.trigger(*e, EventData::empty())?;
                }
            }
            let before = thread_allocs();
            for e in &evs {
                for _ in 0..TRIGGERS {
                    ctx.trigger(*e, EventData::empty())?;
                }
            }
            out2.store(thread_allocs() - before, Ordering::SeqCst);
            Ok(())
        };
        rt.spawn(decl, body).join().expect("measured comp");
        out.load(Ordering::SeqCst)
    }

    let (rt, protocols, events) = noop_stack(2);
    // Bound declarations must cover warmup + measured visits.
    let bounds: Vec<(samoa_core::ProtocolId, u64)> = protocols.iter().map(|&p| (p, 1024)).collect();
    let unsync = allocs_per_run(&rt, Decl::Unsync, &events);
    let basic = allocs_per_run(&rt, Decl::Basic(&protocols), &events);
    let bound = allocs_per_run(&rt, Decl::Bound(&bounds), &events);
    let two_phase = allocs_per_run(&rt, Decl::TwoPhase(&protocols), &events);
    rt.quiesce();
    assert_eq!(
        basic, unsync,
        "VCAbasic admission allocated ({basic} vs {unsync} unsync allocs per run)"
    );
    assert_eq!(
        bound, unsync,
        "VCAbound admission allocated ({bound} vs {unsync} unsync allocs per run)"
    );
    assert_eq!(
        two_phase, unsync,
        "2PL admission allocated ({two_phase} vs {unsync} unsync allocs per run)"
    );
}
