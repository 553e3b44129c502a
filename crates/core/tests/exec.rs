//! The executor behind `Runtime::spawn`: threads are reused, jobs are never
//! queued, panics do not cost a worker, `spawn_guarded`'s `on_end` runs as
//! the job ends and is told how the computation went, and idle workers go
//! away.
//!
//! The executor is process-wide, so the tests in this file take one lock and
//! run one at a time: what each observes (distinct thread ids, how many
//! workers exist) would otherwise include its neighbours' computations.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use samoa_core::prelude::*;

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

/// `n` independent microprotocols; handler `i` (on event `i`) runs `f`.
fn flat_stack(
    n: usize,
    f: impl Fn() + Send + Sync + 'static,
) -> (Runtime, Vec<ProtocolId>, Vec<EventType>) {
    let f = Arc::new(f);
    let mut b = StackBuilder::new();
    let mut protocols = Vec::new();
    let mut events = Vec::new();
    for i in 0..n {
        let p = b.protocol(&format!("P{i}"));
        let e = b.event(&format!("E{i}"));
        let f = Arc::clone(&f);
        b.bind(e, p, &format!("h{i}"), move |_, _| {
            f();
            Ok(())
        });
        protocols.push(p);
        events.push(e);
    }
    (Runtime::new(b.build()), protocols, events)
}

/// More than the few workers a sequential `spawn(..).join()` loop can ever
/// hold (a new one is created only when every existing one is still between
/// signalling `join` and parking), far fewer than one per computation.
const A_HANDFUL: usize = 32;

#[test]
fn sequential_computations_reuse_a_handful_of_threads() {
    let _one = exclusive();
    let seen = Arc::new(Mutex::new(HashSet::<ThreadId>::new()));
    let (rt, protocols, events) = flat_stack(1, {
        let seen = Arc::clone(&seen);
        move || {
            seen.lock().unwrap().insert(std::thread::current().id());
        }
    });
    let e = events[0];
    for _ in 0..1000 {
        rt.spawn(Decl::Basic(&protocols), move |ctx| {
            ctx.trigger(e, EventData::empty())
        })
        .join()
        .unwrap();
    }
    let distinct = seen.lock().unwrap().len();
    assert!(
        (1..=A_HANDFUL).contains(&distinct),
        "1000 sequential computations ran on {distinct} threads"
    );
}

#[test]
fn a_job_never_queues_behind_blocked_workers() {
    let _one = exclusive();
    // Every computation blocks inside its handler until all N are inside
    // theirs: with a run queue anywhere, or fewer than N threads, nobody
    // would ever get out.
    const N: usize = 48;
    let all_inside = Arc::new(Barrier::new(N));
    let (rt, protocols, events) = flat_stack(N, {
        let all_inside = Arc::clone(&all_inside);
        move || {
            all_inside.wait();
        }
    });
    let handles: Vec<_> = (0..N)
        .map(|i| {
            let e = events[i];
            rt.spawn(Decl::Basic(&protocols[i..=i]), move |ctx| {
                ctx.trigger(e, EventData::empty())
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(rt.stats().handler_calls, N as u64);
}

#[test]
fn a_panic_surfaces_on_join_and_does_not_cost_the_worker() {
    let _one = exclusive();
    let seen = Arc::new(Mutex::new(HashSet::<ThreadId>::new()));
    let (rt, protocols, events) = flat_stack(1, {
        let seen = Arc::clone(&seen);
        move || {
            seen.lock().unwrap().insert(std::thread::current().id());
            panic!("handler down");
        }
    });
    let e = events[0];
    for round in 0..100 {
        // Alternate a panicking handler with a panicking closure body.
        let h = if round % 2 == 0 {
            rt.spawn(Decl::Basic(&protocols), move |ctx| {
                ctx.trigger(e, EventData::empty())
            })
        } else {
            let seen = Arc::clone(&seen);
            rt.spawn(Decl::Basic(&protocols), move |_| {
                seen.lock().unwrap().insert(std::thread::current().id());
                panic!("body down");
            })
        };
        match h.join() {
            Err(SamoaError::HandlerPanic { message, .. }) => {
                assert!(message.ends_with("down"), "{message}");
            }
            other => panic!("expected HandlerPanic, got {other:?}"),
        }
    }
    // Had each panic taken its thread along, every job would have needed a
    // new one. And the cached workers still serve ordinary work.
    let distinct = seen.lock().unwrap().len();
    assert!(
        (1..=A_HANDFUL).contains(&distinct),
        "100 panicking computations ran on {distinct} threads"
    );
    rt.spawn(Decl::Basic(&[]), |_| Ok(())).join().unwrap();
}

/// A `spawn_guarded` guard that counts itself and remembers being dropped.
struct Slot {
    live: Arc<AtomicUsize>,
    dropped: Arc<AtomicBool>,
}

impl Drop for Slot {
    fn drop(&mut self) {
        self.dropped.store(true, Ordering::SeqCst);
        self.live.fetch_sub(1, Ordering::SeqCst);
    }
}

#[test]
fn the_guard_ends_with_the_root_job_before_the_worker_is_reused() {
    let _one = exclusive();
    let (rt, protocols, events) = flat_stack(1, || {});
    let e = events[0];
    let live = Arc::new(AtomicUsize::new(0));
    // Per worker thread: the guard of the last job it ran.
    let last_guard = Arc::new(Mutex::new(HashMap::<ThreadId, Arc<AtomicBool>>::new()));
    let early_reuse = Arc::new(AtomicUsize::new(0));
    for _ in 0..500 {
        let dropped = Arc::new(AtomicBool::new(false));
        live.fetch_add(1, Ordering::SeqCst);
        let guard = Slot {
            live: Arc::clone(&live),
            dropped: Arc::clone(&dropped),
        };
        let (last_guard, early_reuse) = (Arc::clone(&last_guard), Arc::clone(&early_reuse));
        rt.spawn_guarded(
            Decl::Basic(&protocols),
            move |_| drop(guard),
            move |ctx| {
                let previous = last_guard
                    .lock()
                    .unwrap()
                    .insert(std::thread::current().id(), dropped);
                if previous.is_some_and(|p| !p.load(Ordering::SeqCst)) {
                    early_reuse.fetch_add(1, Ordering::SeqCst);
                }
                // Asynchronous work keeps the root job going past the body.
                ctx.async_trigger(e, EventData::empty())
            },
        )
        .join()
        .unwrap();
    }
    assert_eq!(
        early_reuse.load(Ordering::SeqCst),
        0,
        "a worker took a new job while still holding the previous job's guard"
    );
    // `quiesce` (like `join`) returns at Rule 3; the root jobs drop their
    // guards right after, on their way back into the cache.
    rt.quiesce();
    let deadline = Instant::now() + Duration::from_secs(60);
    while live.load(Ordering::SeqCst) > 0 {
        assert!(Instant::now() < deadline, "guards outlived their jobs");
        std::thread::yield_now();
    }
}

#[test]
fn on_end_is_told_of_an_error_raised_in_the_asynchronous_drain() {
    let _one = exclusive();
    let (rt, protocols, events) = flat_stack(1, || panic!("down in the drain"));
    let e = events[0];
    let (told, told_rx) = std::sync::mpsc::channel();
    let handle = rt.spawn_guarded(
        Decl::Basic(&protocols),
        move |first_error| told.send(first_error.cloned()).expect("the test listens"),
        // The body itself succeeds; the queued call fails after it returned.
        move |ctx| ctx.async_trigger(e, EventData::empty()),
    );
    let first_error = told_rx.recv().expect("on_end ran");
    assert!(
        matches!(&first_error, Some(SamoaError::HandlerPanic { message, .. }) if message == "down in the drain"),
        "{first_error:?}"
    );
    assert_eq!(handle.join().err(), first_error, "join reports the same");
    // And a computation that ends well is reported as such.
    let (told, told_rx) = std::sync::mpsc::channel();
    rt.spawn_guarded(
        Decl::Basic(&protocols),
        move |first_error| told.send(first_error.cloned()).expect("the test listens"),
        |_| Ok(()),
    );
    assert_eq!(told_rx.recv(), Ok(None));
}

/// Threads of this process named like the executor's workers.
#[cfg(target_os = "linux")]
fn worker_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == "samoa-worker")
        .count()
}

#[cfg(target_os = "linux")]
#[test]
fn idle_workers_are_reaped_after_the_keep_alive() {
    let _one = exclusive();
    const N: usize = 8;
    // Both barriers include this thread.
    let all_inside = Arc::new(Barrier::new(N + 1));
    let release = Arc::new(Barrier::new(N + 1));
    let (rt, protocols, events) = flat_stack(N, {
        let (all_inside, release) = (Arc::clone(&all_inside), Arc::clone(&release));
        move || {
            all_inside.wait();
            release.wait();
        }
    });
    let handles: Vec<_> = (0..N)
        .map(|i| {
            let e = events[i];
            rt.spawn(Decl::Basic(&protocols[i..=i]), move |ctx| {
                ctx.trigger(e, EventData::empty())
            })
        })
        .collect();
    all_inside.wait();
    // All N are inside their handlers right now, each on a worker.
    assert!(worker_threads() >= N, "{} workers", worker_threads());
    release.wait();
    for h in handles {
        h.join().unwrap();
    }
    // Nothing else is submitted: the cache must drain on its own. The
    // keep-alive is a fraction of a second; the deadline only bounds a
    // failing run.
    let deadline = Instant::now() + Duration::from_secs(60);
    while worker_threads() > 0 {
        assert!(
            Instant::now() < deadline,
            "{} idle workers never exited",
            worker_threads()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // And a drained cache still serves.
    rt.spawn(Decl::Basic(&[]), |_| Ok(())).join().unwrap();
}
