//! The executor behind `Runtime::spawn`: threads are reused, jobs are never
//! queued, a root runs exactly once — on its worker, or on the joiner that
//! took it back — and without a joiner too, panics do not cost a worker, and
//! idle workers go away. (What a
//! root job's `on_end` is told, and when, is pinned next to the crate-private
//! `spawn_guarded`, in `runtime.rs`.)
//!
//! The executor is process-wide, so the tests in this file take one lock and
//! run one at a time: what each observes (distinct thread ids, how many
//! workers exist) would otherwise include its neighbours' computations.

use std::cell::RefCell;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier, Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::Duration;

use samoa_core::prelude::*;
use samoa_core::sched::NoopHook;

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

/// More than the few threads a sequential `spawn(..).join()` loop can ever
/// run its roots on (the joiner, when it takes a job back, and the workers:
/// a new one is created only when every existing one is still between
/// signalling `join` and parking), far fewer than one per computation.
const A_HANDFUL: usize = 32;

#[test]
fn sequential_computations_reuse_a_handful_of_threads() {
    let _one = exclusive();
    const N: usize = 10_000;
    let seen = Arc::new(Mutex::new(HashSet::<ThreadId>::new()));
    let visits = Arc::new(AtomicUsize::new(0));
    let (rt, protocols, events) = flat_stack(1, {
        let (seen, visits) = (Arc::clone(&seen), Arc::clone(&visits));
        move || {
            seen.lock().unwrap().insert(std::thread::current().id());
            visits.fetch_add(1, Ordering::SeqCst);
        }
    });
    let e = events[0];
    #[cfg(target_os = "linux")]
    let before = worker_threads();
    for _ in 0..N / 1000 {
        for _ in 0..1000 {
            rt.spawn(Decl::Basic(&protocols), move |ctx| {
                ctx.trigger(e, EventData::empty())
            })
            .join()
            .unwrap();
        }
        #[cfg(target_os = "linux")]
        {
            let now = worker_threads();
            assert!(now <= before + A_HANDFUL, "{before} workers grew to {now}");
        }
    }
    // Each root ran once: neither lost between worker and joiner nor run by
    // both.
    assert_eq!(visits.load(Ordering::SeqCst), N);
    let distinct = seen.lock().unwrap().len();
    assert!(
        (1..=A_HANDFUL).contains(&distinct),
        "{N} sequential computations ran on {distinct} threads"
    );
}

#[test]
fn a_computation_nobody_joins_still_runs() {
    let _one = exclusive();
    let (rt, protocols, _) = flat_stack(1, || {});
    let (ran, ran_rx) = std::sync::mpsc::channel();
    let handle = rt.spawn(Decl::Basic(&protocols), move |_| {
        ran.send(()).expect("the test listens");
        Ok(())
    });
    // The handle is alive and never joined: the woken worker runs the root
    // anyway. The timeout only bounds a failing run.
    ran_rx
        .recv_timeout(PATIENCE)
        .expect("an unjoined computation never ran");
    drop(handle);
    rt.quiesce();
}

#[test]
fn under_a_hook_the_root_runs_on_its_worker_never_on_the_joiner() {
    let _one = exclusive();
    let mut b = StackBuilder::new();
    let p = b.protocol("P");
    let rt = Runtime::with_parts(
        b.build(),
        RuntimeConfig::default(),
        Some(Arc::new(NoopHook)),
        None,
    );
    let joiner = std::thread::current().id();
    for _ in 0..200 {
        let (ran_on, ran_on_rx) = std::sync::mpsc::channel();
        rt.spawn(Decl::Basic(&[p]), move |_| {
            let me = std::thread::current();
            let name = me.name().map(String::from);
            ran_on.send((me.id(), name)).expect("the test listens");
            Ok(())
        })
        .join()
        .unwrap();
        let (id, name) = ran_on_rx.recv().expect("the root ran");
        assert_ne!(id, joiner, "a hooked root ran on its joiner");
        assert_eq!(name.as_deref(), Some("samoa-worker"));
    }
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
    // Each worker that runs a handler reports its own exit on `exited`: a
    // thread-local it holds is dropped as the thread ends.
    struct OnExit(mpsc::Sender<()>);
    impl Drop for OnExit {
        fn drop(&mut self) {
            let _ = self.0.send(());
        }
    }
    thread_local! {
        static ON_EXIT: RefCell<Option<OnExit>> = const { RefCell::new(None) };
    }
    let (exit_tx, exited) = mpsc::channel();
    let exit_tx = Mutex::new(exit_tx);
    let (rt, protocols, events) = flat_stack(N, {
        let (all_inside, release) = (Arc::clone(&all_inside), Arc::clone(&release));
        move || {
            let tx = exit_tx.lock().unwrap().clone();
            ON_EXIT.with(|slot| *slot.borrow_mut() = Some(OnExit(tx)));
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
    // Nothing else is submitted: the cache must drain on its own, every one
    // of the N workers ending. The keep-alive is a fraction of a second;
    // the patience only bounds a failing run.
    for i in 0..N {
        let reaped = exited.recv_timeout(Duration::from_secs(60));
        assert!(reaped.is_ok(), "{} of {N} idle workers never exited", N - i);
    }
    // And a drained cache still serves.
    rt.spawn(Decl::Basic(&[]), |_| Ok(())).join().unwrap();
}

// ---- effects that leave the computation (`Ctx::after_completion`) --------

const PATIENCE: Duration = Duration::from_secs(60);

/// What the effects stack's handler is asked to do besides queueing.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Ask {
    Nothing,
    /// Return `Err` after queueing.
    Fail,
    /// `Ctx::spawn` a closure that is still running when the handler has
    /// returned, and queues an effect of its own then.
    OutlivingChild,
}

/// How the test waits for the computation.
#[derive(Clone, Copy, Debug)]
enum Wait {
    Run,
    Join,
    Quiesce,
}

/// A log shared by the effects of one computation.
type Log = Arc<Mutex<Vec<String>>>;

/// One computation of a fresh two-microprotocol stack — `hp` on P calls `hq`
/// on Q, then queues `first` and `last`; an outliving child queues `child`
/// once `hp` has returned — declared under `policy`, waited for as `wait`.
/// Every effect checks that all the computation declared is released;
/// `first` also holds the computation at a latch until the test has seen
/// that whoever waits for it is still waiting. Returns what ran, in order,
/// what any effect found wrong, and how the computation ended.
fn effects_case(policy: Policy, ask: Ask, wait: Wait) -> (Vec<String>, Vec<String>, Result<()>) {
    let (ran, wrong) = (Log::default(), Log::default());
    let rt_slot = Arc::new(std::sync::OnceLock::<Runtime>::new());
    let (inside, inside_rx) = std::sync::mpsc::channel::<()>();
    let (go, go_rx) = std::sync::mpsc::channel::<()>();
    let go_rx = Arc::new(Mutex::new(go_rx));

    let mut b = StackBuilder::new();
    let (p, q) = (b.protocol("P"), b.protocol("Q"));
    let (ep, eq) = (b.event("EP"), b.event("EQ"));
    let hq = b.bind(eq, q, "hq", |_, _| Ok(()));
    // Local versions once this — the runtime's first — computation has
    // released: its `pv` under the versioning policies (the bound under
    // `Bound`), untouched under `TwoPhase` and `Unsync`.
    let released: [(ProtocolId, u64); 2] = match policy {
        Policy::Basic | Policy::Route | Policy::Serial => [(p, 1), (q, 1)],
        Policy::Bound => [(p, 2), (q, 1)],
        Policy::TwoPhase | Policy::Unsync => [(p, 0), (q, 0)],
    };
    let effect = {
        let (ran, wrong, rt_slot) = (Arc::clone(&ran), Arc::clone(&wrong), Arc::clone(&rt_slot));
        move |name: &'static str| {
            let (ran, wrong, rt_slot) =
                (Arc::clone(&ran), Arc::clone(&wrong), Arc::clone(&rt_slot));
            move || {
                let rt = rt_slot.get().expect("the runtime exists").clone();
                for (pid, want) in released {
                    let lv = rt.local_version(pid);
                    if lv != want {
                        let line = format!("{name}: lv({pid:?}) = {lv}, released is {want}");
                        wrong.lock().unwrap().push(line);
                    }
                }
                if policy == Policy::TwoPhase {
                    // The locks are free: a conflicting computation runs now.
                    let (took, took_rx) = std::sync::mpsc::channel();
                    std::thread::spawn(move || {
                        let _ = took.send(rt.run(Decl::TwoPhase(&[p, q]), |_| Ok(())).is_ok());
                    });
                    if took_rx.recv_timeout(PATIENCE) != Ok(true) {
                        let line = format!("{name}: the 2PL locks were still held");
                        wrong.lock().unwrap().push(line);
                    }
                }
                ran.lock().unwrap().push(name.to_string());
            }
        }
    };
    let hp = {
        let effect = effect.clone();
        let go_rx = Arc::clone(&go_rx);
        b.bind(ep, p, "hp", move |ctx, data| {
            let (ask, returned): &(Ask, Arc<AtomicBool>) = data.expect(ep)?;
            ctx.trigger(eq, EventData::empty())?;
            let (first, inside, go_rx) = (effect("first"), inside.clone(), Arc::clone(&go_rx));
            ctx.after_completion(move || {
                first();
                inside.send(()).expect("the test listens");
                let _ = go_rx.lock().unwrap().recv_timeout(PATIENCE);
            });
            if *ask == Ask::OutlivingChild {
                let (returned, child) = (Arc::clone(returned), effect("child"));
                ctx.spawn(move |c| {
                    while !returned.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    c.after_completion(child);
                    Ok(())
                });
            }
            ctx.after_completion(effect("last"));
            match ask {
                Ask::Fail => Err(SamoaError::protocol("asked to fail")),
                _ => Ok(()),
            }
        })
    };
    let rt = Runtime::new(b.build());
    rt_slot.set(rt.clone()).expect("set once");

    let pattern = RoutePattern::new().root(hp).edge(hp, hq);
    let (protocols, bounds) = ([p, q], [(p, 2), (q, 1)]);
    let returned = Arc::new(AtomicBool::new(false));
    let body = {
        let returned = Arc::clone(&returned);
        move |ctx: &Ctx| {
            let outcome = ctx.trigger(ep, EventData::new((ask, Arc::clone(&returned))));
            returned.store(true, Ordering::SeqCst);
            outcome
        }
    };
    let (done, done_rx) = std::sync::mpsc::channel();
    std::thread::scope(|s| {
        s.spawn(|| {
            let decl = policy.decl(&protocols, &bounds, &pattern);
            let outcome = match wait {
                Wait::Run => rt.run(decl, body),
                Wait::Join => rt.spawn(decl, body).join(),
                Wait::Quiesce => {
                    drop(rt.spawn(decl, body));
                    rt.quiesce();
                    Ok(())
                }
            };
            done.send(outcome).expect("the test listens");
        });
        inside_rx
            .recv_timeout(PATIENCE)
            .expect("the first effect never ran");
        // An effect is running, so the computation is not over for anyone
        // outside it.
        assert!(
            done_rx.try_recv().is_err(),
            "{policy}/{ask:?}: {wait:?} returned with an effect still running"
        );
        go.send(()).expect("the effect listens");
    });
    let outcome = done_rx.recv_timeout(PATIENCE).expect("the waiter returned");
    // No effect may run after the waiter has returned: the logs are final.
    let (ran, wrong) = (ran.lock().unwrap().clone(), wrong.lock().unwrap().clone());
    (ran, wrong, outcome)
}

#[test]
fn effects_run_once_in_push_order_after_release_and_before_anyone_is_told() {
    let _one = exclusive();
    let policies = [
        Policy::Basic,
        Policy::Bound,
        Policy::Route,
        Policy::TwoPhase,
        Policy::Unsync,
        Policy::Serial,
    ];
    for policy in policies {
        for wait in [Wait::Run, Wait::Join, Wait::Quiesce] {
            for ask in [Ask::Nothing, Ask::Fail, Ask::OutlivingChild] {
                let what = format!("{policy}/{ask:?}/{wait:?}");
                let (ran, wrong, outcome) = effects_case(policy, ask, wait);
                assert_eq!(wrong, Vec::<String>::new(), "{what}");
                let mut expected = vec!["first", "last"];
                if ask == Ask::OutlivingChild {
                    expected.push("child");
                }
                assert_eq!(ran, expected, "{what}");
                match (ask, wait) {
                    // The command was applied and its effects are out; the
                    // error is still the computation's (`quiesce` has no
                    // channel for it).
                    (Ask::Fail, Wait::Run | Wait::Join) => assert_eq!(
                        outcome,
                        Err(SamoaError::protocol("asked to fail")),
                        "{what}"
                    ),
                    _ => assert_eq!(outcome, Ok(()), "{what}"),
                }
            }
        }
    }
}

#[test]
fn a_panicking_effect_is_recorded_like_a_handler_panic_and_the_rest_still_run() {
    let _one = exclusive();
    let ran = Arc::new(AtomicUsize::new(0));
    let (rt, protocols, _) = flat_stack(1, || {});
    let outcome = rt.run(Decl::Basic(&protocols), |ctx| {
        let ran = Arc::clone(&ran);
        ctx.after_completion(|| panic!("effect down"));
        ctx.after_completion(move || {
            ran.fetch_add(1, Ordering::SeqCst);
        });
        Ok(())
    });
    assert!(
        matches!(&outcome, Err(SamoaError::HandlerPanic { message, .. }) if message == "effect down"),
        "{outcome:?}"
    );
    assert_eq!(ran.load(Ordering::SeqCst), 1);
    // The computation is over all the same: nothing is left held or active.
    assert_eq!(rt.local_version(protocols[0]), 1);
    rt.quiesce();
    rt.run(Decl::Basic(&protocols), |_| Ok(()))
        .expect("the next one");
}
