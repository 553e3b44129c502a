//! Randomized stress tests: many computations under every isolating policy
//! over a shared conflict stack must always produce a serializable history
//! and lose no updates.

mod common;

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Duration;

use common::{conflict_stack, conflict_stack_with, join_within, ConflictStack};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use samoa_core::prelude::*;

/// Run `n_comps` computations, each visiting a random subset of protocols
/// with tiny sleeps, under the given policy selector.
fn stress(seed: u64, policy: Policy, n_protocols: usize, n_comps: usize) {
    let s = conflict_stack(n_protocols);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut handles = Vec::new();
    for _ in 0..n_comps {
        // Random subset of protocols (at least one), random visit counts.
        let mut pids: Vec<usize> = (0..n_protocols).collect();
        for i in (1..pids.len()).rev() {
            pids.swap(i, rng.gen_range(0..=i));
        }
        let take = rng.gen_range(1..=n_protocols);
        let mut chosen: Vec<usize> = pids[..take].to_vec();
        chosen.sort_unstable();
        let visits: Vec<(usize, u64, u64)> = chosen
            .iter()
            .map(|&i| (i, rng.gen_range(1..=2u64), rng.gen_range(0..=2u64)))
            .collect();
        let events: Vec<EventType> = s.events.clone();
        let protocols: Vec<ProtocolId> = chosen.iter().map(|&i| s.protocols[i]).collect();
        let body = move |ctx: &Ctx| {
            for &(i, count, sleep) in &visits {
                for _ in 0..count {
                    ctx.trigger(events[i], sleep)?;
                }
            }
            Ok(())
        };
        let h = match policy {
            Policy::Basic => {
                // Basic admits any number of visits to declared protocols.
                s.rt.spawn(Decl::Basic(&protocols), body)
            }
            Policy::Bound => {
                let decl: Vec<(ProtocolId, u64)> =
                    chosen.iter().map(|&i| (s.protocols[i], 2)).collect();
                s.rt.spawn(Decl::Bound(&decl), body)
            }
            Policy::Serial => s.rt.spawn(Decl::Serial, body),
            Policy::TwoPhase => s.rt.spawn(Decl::TwoPhase(&protocols), body),
            Policy::Unsync => s.rt.spawn(Decl::Unsync, body),
            Policy::Route => unreachable!("route needs per-stack patterns"),
        };
        handles.push(h);
    }
    for h in handles {
        join_within(h, Duration::from_secs(120)).unwrap();
    }
    if policy.isolating() {
        assert!(s.no_lost_updates(), "lost update under {policy}");
        if policy != Policy::TwoPhase {
            // 2PL is isolating but we only assert the history check for the
            // versioning policies (2PL is covered by no_lost_updates).
        }
        s.rt.check_isolation()
            .unwrap_or_else(|v| panic!("{policy}: {v}"));
    }
}

#[test]
fn stress_vca_basic() {
    for seed in 0..4 {
        stress(seed, Policy::Basic, 4, 24);
    }
}

#[test]
fn stress_vca_bound() {
    for seed in 10..14 {
        stress(seed, Policy::Bound, 4, 24);
    }
}

#[test]
fn stress_serial() {
    stress(20, Policy::Serial, 3, 16);
}

#[test]
fn stress_two_phase() {
    stress(30, Policy::TwoPhase, 4, 24);
}

/// Order-insensitive digest of a conflict stack's final state: per
/// protocol, the sorted tag multiset and the sorted observed-length
/// multiset, hashed. Serialized appends always observe lengths
/// `0..count`, whatever the order — so an isolating concurrent run and a
/// serial run of the same computations digest identically, while a single
/// lost update (two appends observing the same length) diverges.
fn state_digest(s: &ConflictStack) -> u64 {
    let mut h = DefaultHasher::new();
    for log in &s.logs {
        let entries = log.snapshot();
        let mut tags: Vec<u64> = entries.iter().map(|&(c, _)| c).collect();
        let mut lens: Vec<usize> = entries.iter().map(|&(_, l)| l).collect();
        tags.sort_unstable();
        lens.sort_unstable();
        tags.hash(&mut h);
        lens.hash(&mut h);
    }
    h.finish()
}

/// The contention stress the fast-path rewrite must survive: thousands of
/// computations (10k in release; CI's `core-stress` job runs it there)
/// hammering a small protocol set from many threads at once, in bounded
/// waves so handles are joined while spawning continues elsewhere. The
/// final state must digest-match a strictly serial run of the same
/// workload — one lost wakeup deadlocks a wave (the joins time out), one
/// lost update changes the digest.
#[test]
fn stress_ten_k_contention_digest_matches_serial() {
    let n_comps: usize = if cfg!(debug_assertions) {
        2_000
    } else {
        10_000
    };
    let n_protocols = 8;
    const WAVE: usize = 64;

    let run = |serial: bool| -> u64 {
        let s = conflict_stack_with(n_protocols, RuntimeConfig::default());
        let mut rng = StdRng::seed_from_u64(0xfa57);
        let mut wave = Vec::with_capacity(WAVE);
        for k in 0..n_comps {
            let i = k % n_protocols;
            let j = rng.gen_range(0..n_protocols);
            let mut decl = vec![s.protocols[i], s.protocols[j]];
            decl.sort_unstable();
            decl.dedup();
            let (ei, ej) = (s.events[i], s.events[j]);
            let h = s.rt.spawn(Decl::Basic(&decl), move |ctx| {
                ctx.trigger(ei, 0u64)?;
                if ej != ei {
                    ctx.trigger(ej, 0u64)?;
                }
                Ok(())
            });
            if serial {
                join_within(h, Duration::from_secs(60)).unwrap();
            } else {
                wave.push(h);
                if wave.len() == WAVE {
                    for h in wave.drain(..) {
                        join_within(h, Duration::from_secs(120)).unwrap();
                    }
                }
            }
        }
        for h in wave {
            join_within(h, Duration::from_secs(120)).unwrap();
        }
        s.rt.quiesce();
        assert!(
            s.no_lost_updates(),
            "lost update in the {} run",
            if serial { "serial" } else { "concurrent" }
        );
        state_digest(&s)
    };

    let concurrent = run(false);
    let serial = run(true);
    assert_eq!(
        concurrent, serial,
        "threaded contention run diverged from the serial run"
    );
}

#[test]
fn stress_mixed_versioning_policies() {
    // Basic and bound computations interleaved over one stack.
    let s = conflict_stack(3);
    let mut rng = StdRng::seed_from_u64(99);
    let mut handles = Vec::new();
    for j in 0..30 {
        let i = rng.gen_range(0..3);
        let e = s.events[i];
        let p = s.protocols[i];
        let sleep = rng.gen_range(0..=1u64);
        handles.push(if j % 2 == 0 {
            s.rt.spawn(Decl::Basic(&[p]), move |ctx| ctx.trigger(e, sleep))
        } else {
            s.rt.spawn(Decl::Bound(&[(p, 1)]), move |ctx| ctx.trigger(e, sleep))
        });
    }
    for h in handles {
        join_within(h, Duration::from_secs(60)).unwrap();
    }
    assert!(s.no_lost_updates());
    s.rt.check_isolation().unwrap();
}

#[test]
fn unsync_with_heavy_conflicts_violates_isolation() {
    // With deliberate read-sleep-write races over one protocol, the
    // unsynchronised policy essentially always produces a non-serializable
    // history (and lost updates). Retry a few seeds to make this robust.
    let mut violated = false;
    for seed in 0..5u64 {
        let s = conflict_stack(1);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let e = s.events[0];
            let sleep = 5 + seed % 3;
            handles.push(s.rt.spawn(Decl::Unsync, move |ctx| ctx.trigger(e, sleep)));
        }
        for h in handles {
            join_within(h, Duration::from_secs(60)).unwrap();
        }
        if s.rt.check_isolation().is_err() || !s.no_lost_updates() {
            violated = true;
            break;
        }
    }
    assert!(
        violated,
        "unsync never violated isolation under heavy conflicts"
    );
}

#[test]
fn high_fanout_async_storm_stays_isolated() {
    let s = conflict_stack(2);
    let mut handles = Vec::new();
    for _ in 0..10 {
        let (e0, e1) = (s.events[0], s.events[1]);
        let decl = [s.protocols[0], s.protocols[1]];
        handles.push(s.rt.spawn(Decl::Basic(&decl), move |ctx| {
            for _ in 0..5 {
                ctx.async_trigger(e0, 0u64)?;
                ctx.async_trigger(e1, 1u64)?;
            }
            Ok(())
        }));
    }
    for h in handles {
        join_within(h, Duration::from_secs(120)).unwrap();
    }
    assert_eq!(s.visit_order(0).len(), 50);
    assert_eq!(s.visit_order(1).len(), 50);
    // NOTE: `no_lost_updates` is *not* asserted here. The five async tasks
    // of one computation race with each other on the same protocol, and the
    // isolation property deliberately says nothing about intra-computation
    // concurrency (the paper's computations are "possibly multi-threaded
    // transactions"). What must hold is inter-computation isolation:
    s.rt.check_isolation().unwrap();
    // ...and that each computation's visits to a protocol form a contiguous
    // block (no other computation slipped in between).
    for proto in 0..2 {
        let order = s.visit_order(proto);
        let mut seen = std::collections::HashSet::new();
        let mut prev = None;
        for c in order {
            if prev != Some(c) {
                assert!(seen.insert(c), "computation k{c} visits split");
                prev = Some(c);
            }
        }
    }
}
