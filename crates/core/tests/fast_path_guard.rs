//! Acceptance guard for the lock-free admission cost model: the
//! *uncontended* Rule-2 admission path is a single atomic probe — no
//! parking, no condvar signalling, no gate spinning — and a handler call
//! allocates nothing. `samoa_core::version::{parks, park_notifies,
//! gate_spins}` count every slow-path entry process-wide on the parking
//! seam shared by `VersionCell`, the 2PL `LockCell`s and `Runtime::quiesce`,
//! so zero deltas across full sequential workloads prove the admission fast
//! path never leaves user space. The seam is no longer the only place that
//! matters, and need not be: every other wait in the runtime — the state
//! cell's `ReentrantMutex`, a computation's task queue and `done` flag, the
//! executor's slots — is a `parking_lot` (shim) primitive, whose unlock and
//! `notify_*` enter the kernel only when a thread is actually asleep on
//! them; the shim's own tests pin that as counts (10 000 uncontended
//! lock/unlock pairs and 20 000 notifies with nobody waiting: 0 slow-path
//! entries, 0 OS-level notifies). So an inline `Runtime::run` over an
//! uncontended stack makes no syscall at all, and a detached one makes at
//! most the two that wake real sleepers (the worker, the joiner) — usually
//! none: a joiner that gets to the job first takes it back and runs it
//! itself, and the worker the job was handed to is notified only if its
//! last notify has been answered (`exec.rs`), so back-to-back spawn and
//! join wake it once, not once per computation.
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
use samoa_core::{Ctx, Decl, EventData, ProtocolState, Runtime, StackBuilder};

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

/// A stack of `n` independent microprotocols whose handler `i` (on event
/// `i`) does nothing, or — `with_state` — bumps its own state cell: a real
/// handler at its cheapest. For computations whose only cost is the
/// runtime's own machinery.
fn flat_stack(
    n: usize,
    with_state: bool,
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
        let state = with_state.then(|| ProtocolState::new(p, 0u64));
        b.bind(e, p, &format!("h{i}"), move |ctx, _ev| {
            if let Some(state) = &state {
                state.with(ctx, |v| *v += 1);
            }
            Ok(())
        });
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
    let (rt, protocols, events) = flat_stack(3, false);
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
fn a_handler_call_allocates_nothing() {
    // Allocations made by 128 `ctx.trigger`s per event, on the computation's
    // own thread, all carrying one shared payload (a fresh `EventData` is an
    // `Arc` of its own; the caller's, not the call's).
    fn allocs_per_run(rt: &Runtime, decl: Decl<'_>, events: &[samoa_core::EventType]) -> u64 {
        const TRIGGERS: usize = 128;
        let data = EventData::empty();
        rt.run(decl, |ctx| {
            // Warm up lazy one-time allocations (TLS).
            for e in events {
                ctx.trigger(*e, data.clone())?;
            }
            let before = thread_allocs();
            for e in events {
                for _ in 0..TRIGGERS {
                    ctx.trigger(*e, data.clone())?;
                }
            }
            Ok(thread_allocs() - before)
        })
        .expect("measured comp")
    }

    // A no-op handler, then one that also takes its state cell: admission,
    // the call's `Ctx`, the Rule-4 release and the state access are all
    // allocation-free under every policy family.
    for (what, with_state) in [("no-op", false), ("state", true)] {
        let (rt, protocols, events) = flat_stack(2, with_state);
        // Bound declarations must cover warmup + measured visits.
        let bounds: Vec<(samoa_core::ProtocolId, u64)> =
            protocols.iter().map(|&p| (p, 1024)).collect();
        for decl in [
            Decl::Unsync,
            Decl::Basic(&protocols),
            Decl::Bound(&bounds),
            Decl::TwoPhase(&protocols),
        ] {
            let policy = decl.policy();
            let allocs = allocs_per_run(&rt, decl, &events);
            assert_eq!(allocs, 0, "{what} handler calls under {policy} allocated");
        }
    }
}

#[test]
fn a_computation_allocates_its_entries_and_itself() {
    // What an inline `Runtime::run` whose body triggers nothing allocates
    // on the calling thread: the entry vector Rule 1 fills straight from
    // the declaration (sorted, or sorted in place) and the shared
    // `ComputationInner`. A debug build allocates nothing more here (its
    // trigger check allocates only once a handler triggers).
    fn allocs(debug: u64, release: u64) -> u64 {
        if cfg!(debug_assertions) {
            debug
        } else {
            release
        }
    }
    const RUNS: u64 = 64;
    let (rt, protocols, _) = flat_stack(8, false);
    let reversed: Vec<_> = protocols.iter().rev().copied().collect();
    for (what, decl) in [
        ("one cell", &protocols[..1]),
        ("eight cells", &protocols[..]),
        ("eight cells, unsorted", &reversed[..]),
    ] {
        let run = || rt.run(Decl::Basic(decl), |_| Ok(())).expect("empty comp");
        run();
        let before = thread_allocs();
        (0..RUNS).for_each(|_| run());
        assert_eq!(thread_allocs() - before, RUNS * allocs(2, 2), "{what}");
    }
}

#[test]
fn a_call_that_spawns_allocates_and_still_releases_after_its_child() {
    // The price of `Ctx::spawn` is paid by the call that uses it: the exec
    // state is created there, and Rule 4's release of the handler's
    // microprotocol still waits for the spawned closure to end.
    let mut b = StackBuilder::new();
    let p = b.protocol("P");
    let e = b.event("E");
    let child_may_end = Arc::new(AtomicBool::new(false));
    let spawn_allocs = Arc::new(AtomicU64::new(0));
    {
        let (child_may_end, spawn_allocs) = (Arc::clone(&child_may_end), Arc::clone(&spawn_allocs));
        b.bind(e, p, "spawner", move |ctx, _ev| {
            let child_may_end = Arc::clone(&child_may_end);
            let before = thread_allocs();
            ctx.spawn(move |_| {
                while !child_may_end.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                Ok(())
            });
            spawn_allocs.store(thread_allocs() - before, Ordering::SeqCst);
            Ok(())
        });
    }
    let rt = Runtime::new(b.build());
    // Two visits declared, one made: the visit's release moves `lv` 0 -> 1,
    // completion moves it on to 2, so the two are told apart.
    rt.run(Decl::Bound(&[(p, 2)]), |ctx| {
        ctx.trigger(e, EventData::empty())?;
        assert_eq!(
            rt.local_version(p),
            0,
            "released with the spawned closure still running"
        );
        child_may_end.store(true, Ordering::SeqCst);
        while rt.local_version(p) == 0 {
            std::thread::yield_now();
        }
        assert_eq!(rt.local_version(p), 1, "the child's end is the release");
        Ok(())
    })
    .expect("spawning comp");
    assert_eq!(rt.local_version(p), 2);
    assert!(
        spawn_allocs.load(Ordering::SeqCst) > 0,
        "a spawn without an exec state or a boxed closure?"
    );
}
