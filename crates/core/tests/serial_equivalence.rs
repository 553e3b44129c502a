//! The isolation property, end to end: the paper defines isolation as
//! equivalence to *some serial execution* (§2). These tests make that
//! definition operational: run a randomized concurrent workload under a
//! versioning policy, obtain the equivalent serial order from the
//! serializability checker, replay the same computations **serially in that
//! order** on a fresh stack, and require bit-identical final states.

mod common;

use std::time::Duration;

use common::join_within;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use samoa_core::prelude::*;

/// A deterministic workload: computation `k` performs `visits[k]` =
/// a list of (protocol, value) appends. Appending is state-dependent
/// (records the length seen), so different interleavings of conflicting
/// computations produce observably different final states.
struct Workload {
    n_protocols: usize,
    /// Per computation: list of (protocol index, tag).
    visits: Vec<Vec<(usize, u64)>>,
}

fn gen_workload(seed: u64, n_protocols: usize, n_comps: usize) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let visits = (0..n_comps)
        .map(|k| {
            let len = rng.gen_range(1..=3);
            (0..len)
                .map(|j| (rng.gen_range(0..n_protocols), (k * 10 + j) as u64))
                .collect()
        })
        .collect();
    Workload {
        n_protocols,
        visits,
    }
}

struct Built {
    rt: Runtime,
    protocols: Vec<ProtocolId>,
    events: Vec<EventType>,
    /// Per protocol: the log of (tag, length observed at append).
    logs: Vec<ProtocolState<Vec<(u64, usize)>>>,
}

fn build(n_protocols: usize) -> Built {
    let mut b = StackBuilder::new();
    let mut protocols = Vec::new();
    let mut events = Vec::new();
    let mut logs = Vec::new();
    for i in 0..n_protocols {
        let p = b.protocol(&format!("P{i}"));
        let e = b.event(&format!("E{i}"));
        let log = ProtocolState::new(p, Vec::<(u64, usize)>::new());
        {
            let log = log.clone();
            b.bind(e, p, &format!("h{i}"), move |ctx, ev| {
                let tag: u64 = *ev.expect::<u64>(e)?;
                // State-dependent effect + a tiny sleep to open race windows.
                let len = log.with(ctx, |l| l.len());
                std::thread::sleep(Duration::from_micros(200));
                log.with(ctx, |l| l.push((tag, len)));
                Ok(())
            });
        }
        protocols.push(p);
        events.push(e);
        logs.push(log);
    }
    Built {
        rt: Runtime::with_config(b.build(), RuntimeConfig::recording()),
        protocols,
        events,
        logs,
    }
}

fn final_state(b: &Built) -> Vec<Vec<(u64, usize)>> {
    b.logs.iter().map(|l| l.snapshot()).collect()
}

/// Execute the workload concurrently under the given spawner; return the
/// final state and the serial order the checker found.
fn run_concurrent(
    wl: &Workload,
    spawn: impl Fn(&Built, &[ProtocolId], Vec<(EventType, u64)>) -> CompHandle,
) -> (Vec<Vec<(u64, usize)>>, Vec<u64>) {
    let built = build(wl.n_protocols);
    let mut handles = Vec::new();
    for visits in &wl.visits {
        let decl: Vec<ProtocolId> = {
            let mut v: Vec<ProtocolId> = visits.iter().map(|&(i, _)| built.protocols[i]).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let evs: Vec<(EventType, u64)> = visits
            .iter()
            .map(|&(i, tag)| (built.events[i], tag))
            .collect();
        handles.push(spawn(&built, &decl, evs));
    }
    for h in handles {
        join_within(h, Duration::from_secs(60)).unwrap();
    }
    let order = built
        .rt
        .check_isolation()
        .unwrap_or_else(|v| panic!("not serializable: {v}"));
    (final_state(&built), order)
}

/// Execute the workload strictly serially in the given computation order.
fn run_serial(wl: &Workload, order: &[u64]) -> Vec<Vec<(u64, usize)>> {
    let built = build(wl.n_protocols);
    // Computation ids in the concurrent run are 1-based spawn indices.
    for &comp in order {
        let visits = &wl.visits[(comp - 1) as usize];
        let decl: Vec<ProtocolId> = {
            let mut v: Vec<ProtocolId> = visits.iter().map(|&(i, _)| built.protocols[i]).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let evs: Vec<(EventType, u64)> = visits
            .iter()
            .map(|&(i, tag)| (built.events[i], tag))
            .collect();
        built
            .rt
            .run(Decl::Basic(&decl), |ctx| {
                for &(e, tag) in &evs {
                    ctx.trigger(e, tag)?;
                }
                Ok(())
            })
            .unwrap();
    }
    final_state(&built)
}

fn assert_equivalent(
    seed: u64,
    policy: &str,
    spawn: impl Fn(&Built, &[ProtocolId], Vec<(EventType, u64)>) -> CompHandle,
) {
    let wl = gen_workload(seed, 3, 10);
    let (concurrent, order) = run_concurrent(&wl, spawn);
    assert_eq!(
        order.len(),
        10,
        "{policy} seed {seed}: checker lost computations"
    );
    let serial = run_serial(&wl, &order);
    assert_eq!(
        concurrent, serial,
        "{policy} seed {seed}: concurrent execution is NOT equivalent to \
         the serial execution in order {order:?}"
    );
}

#[test]
fn vca_basic_is_equivalent_to_a_serial_execution() {
    for seed in 0..5 {
        assert_equivalent(seed, "vca-basic", |b, decl, evs| {
            b.rt.spawn(Decl::Basic(decl), move |ctx| {
                for &(e, tag) in &evs {
                    ctx.trigger(e, tag)?;
                }
                Ok(())
            })
        });
    }
}

#[test]
fn vca_bound_is_equivalent_to_a_serial_execution() {
    for seed in 10..15 {
        assert_equivalent(seed, "vca-bound", |b, decl, evs| {
            // Exact bounds: count visits per protocol.
            let mut bounds: Vec<(ProtocolId, u64)> = decl.iter().map(|&p| (p, 0)).collect();
            for &(e, _) in &evs {
                // event index == protocol index in this stack
                let idx = b.events.iter().position(|&x| x == e).unwrap();
                let pid = b.protocols[idx];
                let slot = bounds.iter_mut().find(|(p, _)| *p == pid).unwrap();
                slot.1 += 1;
            }
            b.rt.spawn(Decl::Bound(&bounds), move |ctx| {
                for &(e, tag) in &evs {
                    ctx.trigger(e, tag)?;
                }
                Ok(())
            })
        });
    }
}

#[test]
fn two_phase_is_equivalent_to_a_serial_execution() {
    for seed in 20..23 {
        assert_equivalent(seed, "two-phase", |b, decl, evs| {
            b.rt.spawn(Decl::TwoPhase(decl), move |ctx| {
                for &(e, tag) in &evs {
                    ctx.trigger(e, tag)?;
                }
                Ok(())
            })
        });
    }
}

/// The contrapositive: under `Unsync`, when the checker *does* reject the
/// history, the final state genuinely differs from every serial replay of
/// the spawn order (sanity that the equivalence test has teeth). We retry
/// seeds until a violation occurs.
#[test]
fn unsync_violations_produce_non_serial_states() {
    for seed in 0..10u64 {
        let wl = gen_workload(seed, 1, 6); // single protocol: max conflict
        let built = build(wl.n_protocols);
        let mut handles = Vec::new();
        for visits in &wl.visits {
            let evs: Vec<(EventType, u64)> = visits
                .iter()
                .map(|&(i, tag)| (built.events[i], tag))
                .collect();
            handles.push(built.rt.spawn(Decl::Unsync, move |ctx| {
                for &(e, tag) in &evs {
                    ctx.trigger(e, tag)?;
                }
                Ok(())
            }));
        }
        for h in handles {
            join_within(h, Duration::from_secs(60)).unwrap();
        }
        if built.rt.check_isolation().is_err() {
            // A length-inconsistency (lost update) must exist: in any
            // serial execution the observed lengths are strictly
            // increasing per protocol.
            let log = built.logs[0].snapshot();
            let consistent = log.iter().enumerate().all(|(i, &(_, len))| len == i);
            assert!(
                !consistent,
                "checker flagged a violation but the state looks serial"
            );
            return;
        }
    }
    panic!("unsync never produced a violation in 10 seeds");
}
