//! The paper's Figure 1 example (§2): handlers P, Q, R, S; external events
//! `a0` (handled by P) and `b0` (handled by Q); P and Q both forward to R
//! (events a1/b1) and R forwards to S (events a2/b2).
//!
//! Runs r1 (serial) and r2 (interleaved but isolated) are legal; run r3 —
//! where ka precedes kb on R but kb precedes ka on S — violates isolation.
//! Under SAMOA r3 cannot occur; under the Cactus-style `Unsync` policy we
//! force exactly r3 and show the checker rejecting it.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use common::{join_within, latch, wait_parked, Latch};
use samoa_core::prelude::*;

/// The diamond stack. Each handler appends its name + computation to the
/// shared trace of its own protocol. S's handler can be made to stall on a
/// gate for schedule control in the r3 test. The runtime is traced, so
/// `Runtime::waiters()` shows who is parked in admission.
struct Diamond {
    rt: Runtime,
    a0: EventType,
    b0: EventType,
    p: ProtocolId,
    q: ProtocolId,
    r: ProtocolId,
    s: ProtocolId,
    r_trace: ProtocolState<Vec<u64>>,
    s_trace: ProtocolState<Vec<u64>>,
    /// When set, computation 1's S handler waits for this gate.
    s_gate: Arc<Latch>,
    /// Set by computation 1's S handler when it reaches the armed gate.
    at_gate: Arc<Latch>,
    /// Whether the gate is armed at all.
    use_gate: Arc<AtomicBool>,
}

fn diamond() -> Diamond {
    let mut b = StackBuilder::new();
    let p = b.protocol("P");
    let q = b.protocol("Q");
    let r = b.protocol("R");
    let s = b.protocol("S");
    let a0 = b.event("a0");
    let b0 = b.event("b0");
    let to_r = b.event("r");
    let to_s = b.event("s");
    let r_trace = ProtocolState::new(r, Vec::new());
    let s_trace = ProtocolState::new(s, Vec::new());
    let s_gate = latch();
    let at_gate = latch();
    let use_gate = Arc::new(AtomicBool::new(false));

    b.bind(a0, p, "P", move |ctx, ev| ctx.trigger(to_r, ev.clone()));
    b.bind(b0, q, "Q", move |ctx, ev| ctx.trigger(to_r, ev.clone()));
    {
        let tr = r_trace.clone();
        b.bind(to_r, r, "R", move |ctx, ev| {
            tr.with(ctx, |t| t.push(ctx.comp_id()));
            ctx.trigger(to_s, ev.clone())
        });
    }
    {
        let ts = s_trace.clone();
        let gate = Arc::clone(&s_gate);
        let at = Arc::clone(&at_gate);
        let armed = Arc::clone(&use_gate);
        b.bind(to_s, s, "S", move |ctx, _| {
            if armed.load(Ordering::SeqCst) && ctx.comp_id() == 1 {
                at.open();
                assert!(gate.wait(Duration::from_secs(10)), "S gate never opened");
            }
            ts.with(ctx, |t| t.push(ctx.comp_id()));
            Ok(())
        });
    }
    Diamond {
        rt: Runtime::with_trace(b.build(), RuntimeConfig::recording(), TraceBuffer::new()),
        a0,
        b0,
        p,
        q,
        r,
        s,
        r_trace,
        s_trace,
        s_gate,
        at_gate,
        use_gate,
    }
}

#[test]
fn isolated_diamond_always_serializable() {
    let d = diamond();
    let ka = d.rt.spawn(Decl::Basic(&[d.p, d.r, d.s]), {
        let e = d.a0;
        move |ctx| ctx.trigger(e, EventData::empty())
    });
    let kb = d.rt.spawn(Decl::Basic(&[d.q, d.r, d.s]), {
        let e = d.b0;
        move |ctx| ctx.trigger(e, EventData::empty())
    });
    join_within(ka, Duration::from_secs(10)).unwrap();
    join_within(kb, Duration::from_secs(10)).unwrap();
    // Both computations visited R and S in the same (spawn) order.
    assert_eq!(d.r_trace.snapshot(), vec![1, 2]);
    assert_eq!(d.s_trace.snapshot(), vec![1, 2]);
    let order = d.rt.check_isolation().unwrap();
    assert_eq!(order, vec![1, 2]);
}

#[test]
fn unsync_can_produce_run_r3_and_checker_catches_it() {
    let d = diamond();
    d.use_gate.store(true, Ordering::SeqCst);
    // ka (comp 1): P, R, then stalls before S on the gate.
    let ka = d.rt.spawn(Decl::Unsync, {
        let e = d.a0;
        move |ctx| ctx.trigger(e, EventData::empty())
    });
    // ka has passed R once it is at the gate.
    assert!(
        d.at_gate.wait(Duration::from_secs(10)),
        "ka never reached S"
    );
    // kb (comp 2): P, R, S — overtakes ka at S.
    let kb = d.rt.spawn(Decl::Unsync, {
        let e = d.b0;
        move |ctx| ctx.trigger(e, EventData::empty())
    });
    join_within(kb, Duration::from_secs(10)).unwrap();
    d.s_gate.open();
    join_within(ka, Duration::from_secs(10)).unwrap();

    // This is exactly run r3: ka before kb on R, kb before ka on S.
    assert_eq!(d.r_trace.snapshot(), vec![1, 2]);
    assert_eq!(d.s_trace.snapshot(), vec![2, 1]);
    let violation = d.rt.check_isolation().unwrap_err();
    let mut cyc = violation.cycle.clone();
    cyc.sort_unstable();
    assert_eq!(cyc, vec![1, 2]);
}

#[test]
fn isolation_prevents_run_r3_under_same_schedule_pressure() {
    // Identical schedule pressure (ka stalls at S) but with VCAbasic: kb
    // cannot overtake at S, because kb's R/S versions sit behind ka's.
    let d = diamond();
    d.use_gate.store(true, Ordering::SeqCst);
    let ka = d.rt.spawn(Decl::Basic(&[d.p, d.r, d.s]), {
        let e = d.a0;
        move |ctx| ctx.trigger(e, EventData::empty())
    });
    assert!(
        d.at_gate.wait(Duration::from_secs(10)),
        "ka never reached S"
    );
    let kb = d.rt.spawn(Decl::Basic(&[d.q, d.r, d.s]), {
        let e = d.b0;
        move |ctx| ctx.trigger(e, EventData::empty())
    });
    // kb is *blocked* at R; open ka's gate so the system drains.
    assert!(
        wait_parked(&d.rt, kb.comp_id(), Duration::from_secs(10)),
        "kb never parked behind ka"
    );
    assert_eq!(d.s_trace.snapshot(), Vec::<u64>::new(), "kb overtook ka");
    d.s_gate.open();
    join_within(ka, Duration::from_secs(10)).unwrap();
    join_within(kb, Duration::from_secs(10)).unwrap();
    assert_eq!(d.r_trace.snapshot(), vec![1, 2]);
    assert_eq!(d.s_trace.snapshot(), vec![1, 2]);
    d.rt.check_isolation().unwrap();
}

#[test]
fn run_r2_interleaving_is_possible_under_isolation() {
    // r2 = ((a0,P),(b0,Q),(a1,R),(a2,S),(b1,R),(b2,S)): kb's Q part runs
    // before ka finishes — allowed, because P and Q are disjoint. We force
    // the interleaving by making ka's P handler wait until Q has run.
    let mut b = StackBuilder::new();
    let p = b.protocol("P");
    let q = b.protocol("Q");
    let r = b.protocol("R");
    let a0 = b.event("a0");
    let b0 = b.event("b0");
    let to_r = b.event("r");
    let q_ran = latch();
    {
        let q_ran = Arc::clone(&q_ran);
        b.bind(a0, p, "P", move |ctx, _| {
            assert!(
                q_ran.wait(Duration::from_secs(10)),
                "Q never ran while P was active — no interleaving"
            );
            ctx.trigger(to_r, EventData::empty())
        });
    }
    {
        let q_ran = Arc::clone(&q_ran);
        b.bind(b0, q, "Q", move |ctx, _| {
            q_ran.open();
            ctx.trigger(to_r, EventData::empty())
        });
    }
    let r_trace = ProtocolState::new(r, Vec::<u64>::new());
    {
        let tr = r_trace.clone();
        b.bind(to_r, r, "R", move |ctx, _| {
            tr.with(ctx, |t| t.push(ctx.comp_id()));
            Ok(())
        });
    }
    let rt = Runtime::with_config(b.build(), RuntimeConfig::recording());
    let ka = rt.spawn(Decl::Basic(&[p, r]), move |ctx| {
        ctx.trigger(a0, EventData::empty())
    });
    let kb = rt.spawn(Decl::Basic(&[q, r]), move |ctx| {
        ctx.trigger(b0, EventData::empty())
    });
    join_within(ka, Duration::from_secs(10)).unwrap();
    join_within(kb, Duration::from_secs(10)).unwrap();
    // ka spawned first, so it still visits R first; but Q ran concurrently
    // with P (asserted inside P's handler) — run r2's shape.
    assert_eq!(r_trace.snapshot(), vec![1, 2]);
    rt.check_isolation().unwrap();
}

#[test]
fn appia_style_serial_admits_only_serial_runs() {
    // Under Decl::Serial, kb's Q handler cannot run while ka is anywhere in
    // flight (every computation declares every protocol).
    let d = diamond();
    let ka_done = Arc::new(AtomicBool::new(false));
    let ka = {
        let e = d.a0;
        let done = Arc::clone(&ka_done);
        let rt = d.rt.clone();
        d.rt.spawn(Decl::Serial, move |ctx| {
            ctx.trigger(e, EventData::empty())?;
            // ka stays in flight until kb (comp 2) is parked behind it; a kb
            // that never parks ran past ka and finds `done` unset.
            wait_parked(&rt, 2, Duration::from_secs(10));
            done.store(true, Ordering::SeqCst);
            Ok(())
        })
    };
    let kb = {
        let e = d.b0;
        let done = Arc::clone(&ka_done);
        d.rt.spawn(Decl::Serial, move |ctx| {
            ctx.trigger(e, EventData::empty())?;
            assert!(done.load(Ordering::SeqCst), "serial policy interleaved");
            Ok(())
        })
    };
    join_within(ka, Duration::from_secs(10)).unwrap();
    join_within(kb, Duration::from_secs(10)).unwrap();
    assert_eq!(d.s_trace.snapshot(), vec![1, 2]);
}

#[test]
fn two_phase_locking_also_isolates_the_diamond() {
    let d = diamond();
    let mut handles = Vec::new();
    for i in 0..6 {
        let decl_a = [d.p, d.r, d.s];
        let decl_b = [d.q, d.r, d.s];
        let (ea, eb) = (d.a0, d.b0);
        handles.push(if i % 2 == 0 {
            d.rt.spawn(Decl::TwoPhase(&decl_a), move |ctx| {
                ctx.trigger(ea, EventData::empty())
            })
        } else {
            d.rt.spawn(Decl::TwoPhase(&decl_b), move |ctx| {
                ctx.trigger(eb, EventData::empty())
            })
        });
    }
    for h in handles {
        join_within(h, Duration::from_secs(30)).unwrap();
    }
    d.rt.check_isolation().unwrap();
    assert_eq!(d.s_trace.snapshot().len(), 6);
}
