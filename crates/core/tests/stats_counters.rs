//! The early-release statistics counters against hand-computed values on a
//! pipeline stack: `bound_releases` counts one per VCAbound handler
//! completion, `route_releases` one per protocol freed by VCAroute's
//! reachability scan, and `version_wait_wakeups` counts predicate re-checks
//! of blocked version waits (exactly zero when nothing ever contends).

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use common::{join_within, wait_flag, wait_parked};
use samoa_core::prelude::*;

/// A 3-stage pipeline: h0 → h1 → h2, one protocol per stage.
struct Pipeline {
    rt: Runtime,
    e0: EventType,
    protocols: [ProtocolId; 3],
    handlers: [HandlerId; 3],
}

fn pipeline() -> Pipeline {
    pipeline_with(None, || {})
}

/// [`pipeline`], traced into `sink` if there is one, with `stage0` run in
/// h0 before it triggers stage 1.
fn pipeline_with(
    sink: Option<Arc<dyn TraceSink>>,
    stage0: impl Fn() + Send + Sync + 'static,
) -> Pipeline {
    let mut b = StackBuilder::new();
    let p0 = b.protocol("S0");
    let p1 = b.protocol("S1");
    let p2 = b.protocol("S2");
    let e0 = b.event("e0");
    let e1 = b.event("e1");
    let e2 = b.event("e2");
    let s0 = ProtocolState::new(p0, 0u64);
    let s1 = ProtocolState::new(p1, 0u64);
    let s2 = ProtocolState::new(p2, 0u64);
    let h0 = {
        let s = s0.clone();
        b.bind(e0, p0, "h0", move |ctx, _| {
            s.with(ctx, |v| *v += 1);
            stage0();
            ctx.trigger(e1, EventData::empty())
        })
    };
    let h1 = {
        let s = s1.clone();
        b.bind(e1, p1, "h1", move |ctx, _| {
            s.with(ctx, |v| *v += 1);
            ctx.trigger(e2, EventData::empty())
        })
    };
    let h2 = {
        let s = s2.clone();
        b.bind(e2, p2, "h2", move |ctx, _| {
            s.with(ctx, |v| *v += 1);
            Ok(())
        })
    };
    let stack = b.build();
    Pipeline {
        rt: match sink {
            Some(s) => Runtime::with_trace(stack, RuntimeConfig::default(), s),
            None => Runtime::new(stack),
        },
        e0,
        protocols: [p0, p1, p2],
        handlers: [h0, h1, h2],
    }
}

#[test]
fn counters_start_at_zero() {
    let p = pipeline();
    let s = p.rt.stats();
    assert_eq!(s.bound_releases, 0);
    assert_eq!(s.route_releases, 0);
    assert_eq!(s.version_wait_wakeups, 0);
}

#[test]
fn basic_and_serial_computations_release_nothing_early() {
    let p = pipeline();
    let decl = p.protocols;
    p.rt.run(Decl::Basic(&decl), |ctx| {
        ctx.trigger(p.e0, EventData::empty())
    })
    .unwrap();
    p.rt.run(Decl::Serial, |ctx| ctx.trigger(p.e0, EventData::empty()))
        .unwrap();
    let s = p.rt.stats();
    // Rule 4 never fires for VCAbasic or Serial; nothing contended, so no
    // version wait ever blocked.
    assert_eq!(s.bound_releases, 0);
    assert_eq!(s.route_releases, 0);
    assert_eq!(s.version_wait_wakeups, 0);
    assert_eq!(s.handler_calls, 6);
}

#[test]
fn bound_pipeline_releases_once_per_handler_call() {
    let p = pipeline();
    let bounds: Vec<(ProtocolId, u64)> = p.protocols.iter().map(|&pr| (pr, 1)).collect();
    // Each of the 3 handler completions bumps its protocol: 3 per run.
    p.rt.run(Decl::Bound(&bounds), |ctx| {
        ctx.trigger(p.e0, EventData::empty())
    })
    .unwrap();
    assert_eq!(p.rt.stats().bound_releases, 3);
    p.rt.run(Decl::Bound(&bounds), |ctx| {
        ctx.trigger(p.e0, EventData::empty())
    })
    .unwrap();
    let s = p.rt.stats();
    assert_eq!(s.bound_releases, 6);
    assert_eq!(s.route_releases, 0, "bound releases are not route releases");
}

#[test]
fn route_pipeline_releases_every_protocol_via_the_scan() {
    let p = pipeline();
    let pat = RoutePattern::new()
        .root(p.handlers[0])
        .edge(p.handlers[0], p.handlers[1])
        .edge(p.handlers[1], p.handlers[2]);
    // The chain runs synchronously: every stage stays reachable until the
    // root closure returns, then the final scan frees all 3 protocols —
    // through the Rule 4(b) release path, so all 3 are counted.
    p.rt.run(Decl::Route(&pat), |ctx| {
        ctx.trigger(p.e0, EventData::empty())
    })
    .unwrap();
    assert_eq!(p.rt.stats().route_releases, 3);
    p.rt.run(Decl::Route(&pat), |ctx| {
        ctx.trigger(p.e0, EventData::empty())
    })
    .unwrap();
    let s = p.rt.stats();
    assert_eq!(s.route_releases, 6);
    assert_eq!(s.bound_releases, 0, "route releases are not bound releases");
    assert_eq!(s.version_wait_wakeups, 0, "uncontended runs never block");
}

#[test]
fn contended_admission_counts_wakeups() {
    // ka holds S0 parked on a gate; kb's VCAbasic admission on S0 must
    // block, and every wake-and-recheck is counted.
    let mut b = StackBuilder::new();
    let p0 = b.protocol("S0");
    let e0 = b.event("e0");
    let gate = Arc::new(AtomicBool::new(false));
    let entered = Arc::new(AtomicBool::new(false));
    {
        let gate = Arc::clone(&gate);
        let entered = Arc::clone(&entered);
        let st = ProtocolState::new(p0, 0u64);
        b.bind(e0, p0, "h0", move |ctx, _| {
            st.with(ctx, |v| *v += 1);
            if !entered.swap(true, Ordering::SeqCst) {
                assert!(
                    wait_flag(&gate, Duration::from_secs(10)),
                    "gate never opened"
                );
            }
            Ok(())
        });
    }
    let rt = Runtime::new(b.build());
    assert_eq!(rt.stats().version_wait_wakeups, 0);
    let ka = rt.spawn(Decl::Basic(&[p0]), move |ctx| {
        ctx.trigger(e0, EventData::empty())
    });
    // Wait until ka is inside the handler, so kb's admission *must* block.
    while !entered.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let kb = rt.spawn(Decl::Basic(&[p0]), move |ctx| {
        ctx.trigger(e0, EventData::empty())
    });
    std::thread::sleep(Duration::from_millis(20));
    gate.store(true, Ordering::SeqCst);
    join_within(ka, Duration::from_secs(10)).unwrap();
    join_within(kb, Duration::from_secs(10)).unwrap();
    let s = rt.stats();
    assert!(
        s.version_wait_wakeups >= 1,
        "kb's blocked admission must have woken at least once"
    );
}

/// A holder off the CPU is waited for asleep. The older route
/// computation's h0 blocks on a channel, on no run queue, so yielding cannot
/// hand it the CPU: the younger one's probe (a count of spins and yields)
/// runs out and it parks — and only a parked waiter is listed in
/// `Runtime::waiters()`. The channel is released only once it is listed,
/// and then the wait shows in this runtime's own counters. Nothing here
/// sleeps or times anything.
#[test]
fn a_holder_off_the_cpu_is_waited_for_asleep() {
    let (release, held) = mpsc::channel::<()>();
    let held = Mutex::new(held);
    let entered = Arc::new(AtomicBool::new(false));
    let p = {
        let entered = Arc::clone(&entered);
        pipeline_with(Some(TraceBuffer::new()), move || {
            if !entered.swap(true, Ordering::SeqCst) {
                // Returns on the release, or when the test drops the sender.
                let _ = held.lock().unwrap().recv();
            }
        })
    };
    let pat = RoutePattern::new()
        .root(p.handlers[0])
        .edge(p.handlers[0], p.handlers[1])
        .edge(p.handlers[1], p.handlers[2]);
    let e0 = p.e0;
    let older = p.rt.spawn(Decl::Route(&pat), move |ctx| {
        ctx.trigger(e0, EventData::empty())
    });
    assert!(
        wait_flag(&entered, Duration::from_secs(10)),
        "the older computation never entered h0"
    );
    let younger = p.rt.spawn(Decl::Route(&pat), move |ctx| {
        ctx.trigger(e0, EventData::empty())
    });
    let id = younger.comp_id();
    assert!(
        wait_parked(&p.rt, id, Duration::from_secs(10)),
        "the younger one never parked"
    );
    release.send(()).unwrap();
    join_within(older, Duration::from_secs(10)).unwrap();
    join_within(younger, Duration::from_secs(10)).unwrap();
    let s = p.rt.stats();
    assert!(
        s.admission_wait > Duration::ZERO,
        "the parked phase is counted"
    );
    assert!(
        s.version_wait_wakeups >= 1,
        "the release woke the parked waiter"
    );
}

/// What the one handler of the `external_errors` test is asked to do.
#[derive(Clone, Copy)]
enum Ask {
    Succeed,
    Fail,
    /// Queue a `Fail` for the asynchronous drain and return `Ok`.
    FailLater,
}

#[test]
fn external_errors_counts_each_failed_external_wherever_it_failed() {
    let mut b = StackBuilder::new();
    let p = b.protocol("P");
    let e = b.event("e");
    b.bind_with_triggers(e, p, "h", &[e], move |ctx, data| {
        match *data.expect::<Ask>(e)? {
            Ask::Succeed => Ok(()),
            Ask::Fail => Err(SamoaError::protocol("asked to")),
            Ask::FailLater => ctx.async_trigger(e, EventData::new(Ask::Fail)),
        }
    });
    let stack = b.build();
    let ext = External::new(&stack, e);
    let rt = Runtime::new(stack);
    // `Basic` runs on this thread, `Bound` on a worker; the count is read
    // once the runtime is idle *and* the detached root job has left.
    let settled = |want: u64| {
        rt.quiesce();
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while rt.stats().external_errors < want {
            assert!(std::time::Instant::now() < deadline, "{want} never counted");
            std::thread::yield_now();
        }
        rt.stats().external_errors
    };
    let mut want = 0;
    for policy in [Policy::Basic, Policy::Bound] {
        rt.external(policy, &ext, EventData::new(Ask::Succeed));
        assert_eq!(settled(want), want, "{policy}: a success was counted");
        for ask in [Ask::Fail, Ask::FailLater] {
            rt.external(policy, &ext, EventData::new(ask));
            want += 1;
            assert_eq!(settled(want), want, "{policy}");
        }
    }
    let s = rt.stats();
    assert_eq!(s.computations_spawned, 6);
    assert_eq!(s.computations_completed, 6);
}
