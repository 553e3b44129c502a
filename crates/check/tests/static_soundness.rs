//! Soundness of the static conflict analysis against dynamic traces: on
//! random schedules of the bundled scenarios, everything the [`Controller`]
//! actually records must be *covered* by what the static pass promised.
//! Three properties, each of which the DPOR pruning
//! (`DporSearch::with_independence`) depends on:
//!
//! 1. **Seed coverage** — a thread spawned with a static seed
//!    ([`SchedHook::on_thread_spawn_with`]) never touches a resource
//!    outside that seed. The seed is the upper bound that licenses
//!    pruning the thread from no-initiator backtrack fallbacks.
//! 2. **Dynamic conflicts stay dependent** — any resource two distinct
//!    threads both touch is never declared self-independent by the
//!    [`StaticIndependence`] relation (the conflict-matrix diagonal
//!    over-approximates observed contention).
//! 3. **Footprint coupling** — when two seeded threads dynamically share
//!    a protocol, *every* cross pair of the protocols they touched is
//!    matrix-dependent: the static footprints that contain the shared
//!    protocol couple everything else those threads do.
//!
//! [`Controller`]: samoa_check::Controller
//! [`StaticIndependence`]: samoa_check::StaticIndependence
//! [`SchedHook::on_thread_spawn_with`]: samoa_core::SchedHook::on_thread_spawn_with

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use proptest::prelude::*;
use samoa_check::{
    Controller, DiamondScenario, DisjointClustersScenario, RandomDecider, Scenario, ScheduleTrace,
    StaticIndependence, ViewChangeScenario,
};
use samoa_core::sched::SchedResource;
use samoa_core::Policy;

/// One controlled run of `scenario` under a seeded random walk.
fn random_trace(scenario: &dyn Scenario, seed: u64) -> ScheduleTrace {
    let ctrl = Controller::new(Box::new(RandomDecider::new(seed)), 100_000);
    ctrl.register_main();
    let hook: Arc<dyn samoa_core::SchedHook> = ctrl.clone();
    let _report = scenario.run(hook);
    ctrl.finish()
}

/// Per-thread view of a trace: the spawn-time static seed (empty when the
/// thread had none) and every resource the thread's recorded accesses
/// touched.
fn per_thread(
    trace: &ScheduleTrace,
) -> BTreeMap<u32, (Vec<SchedResource>, BTreeSet<SchedResource>)> {
    let mut out: BTreeMap<u32, (Vec<SchedResource>, BTreeSet<SchedResource>)> = BTreeMap::new();
    for rec in &trace.records {
        for (i, &tid) in rec.ready.iter().enumerate() {
            let entry = out.entry(tid).or_default();
            if entry.0.is_empty() && !rec.seeds[i].is_empty() {
                entry.0 = rec.seeds[i].clone();
            }
        }
        for ev in &rec.events {
            let entry = out.entry(ev.tid).or_default();
            entry.1.extend(ev.resources.iter().copied());
        }
    }
    out
}

fn protocols_of(touched: &BTreeSet<SchedResource>) -> BTreeSet<u32> {
    touched
        .iter()
        .filter_map(|r| match r {
            SchedResource::Version(p) | SchedResource::Lock(p) => Some(*p),
            _ => None,
        })
        .collect()
}

/// The three soundness properties on one trace. Returns the number of
/// seeded threads observed so callers can reject vacuous runs.
fn assert_sound(name: &str, trace: &ScheduleTrace, relation: &StaticIndependence) -> usize {
    let threads = per_thread(trace);

    // 1. Seed coverage: the seed over-approximates everything the thread
    //    ever did.
    for (tid, (seed, touched)) in &threads {
        if seed.is_empty() {
            continue;
        }
        for r in touched {
            assert!(
                seed.contains(r),
                "{name}: thread {tid} touched {r:?} outside its static seed {seed:?}"
            );
        }
    }

    // 2. Observed contention is never statically independent.
    let ids: Vec<u32> = threads.keys().copied().collect();
    for (ai, &a) in ids.iter().enumerate() {
        for &b in &ids[ai + 1..] {
            let ta = &threads[&a].1;
            let tb = &threads[&b].1;
            for r in ta.intersection(tb) {
                assert!(
                    !relation.resources_independent(*r, *r),
                    "{name}: threads {a} and {b} both touched {r:?}, \
                     yet the relation calls it independent of itself"
                );
            }
        }
    }

    // 3. Dynamically coupled seeded threads: all cross protocol pairs are
    //    matrix-dependent.
    for (ai, &a) in ids.iter().enumerate() {
        for &b in &ids[ai + 1..] {
            let (seed_a, ta) = &threads[&a];
            let (seed_b, tb) = &threads[&b];
            if seed_a.is_empty() || seed_b.is_empty() {
                continue;
            }
            let pa = protocols_of(ta);
            let pb = protocols_of(tb);
            if pa.intersection(&pb).next().is_none() {
                continue;
            }
            for &p in &pa {
                for &q in &pb {
                    assert!(
                        !relation.resources_independent(
                            SchedResource::Version(p),
                            SchedResource::Version(q)
                        ),
                        "{name}: threads {a} and {b} share a protocol dynamically, \
                         but the matrix calls protocols {p} and {q} independent"
                    );
                }
            }
        }
    }

    threads.values().filter(|(s, _)| !s.is_empty()).count()
}

fn scenario_under_test(kind: usize) -> Box<dyn Scenario> {
    match kind {
        0 => Box::new(DiamondScenario::new(Policy::Unsync)),
        1 => Box::new(DiamondScenario::new(Policy::Basic)),
        2 => Box::new(ViewChangeScenario::new(Policy::Unsync, 7)),
        3 => Box::new(ViewChangeScenario::new(Policy::Basic, 7)),
        4 => Box::new(DisjointClustersScenario::new(Policy::Basic)),
        _ => Box::new(DisjointClustersScenario::new(Policy::TwoPhase)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The static conflict matrix over-approximates every dynamic
    /// footprint conflict the controller records, on random schedules of
    /// every bundled scenario shape.
    #[test]
    fn static_relation_over_approximates_dynamic_traces(
        kind in 0usize..6,
        seed in any::<u64>(),
    ) {
        let scenario = scenario_under_test(kind);
        let relation = scenario
            .static_independence()
            .expect("bundled scenarios ship a static relation");
        let trace = random_trace(scenario.as_ref(), seed);
        prop_assert!(!trace.runaway, "runaway schedule in soundness probe");
        let seeded = assert_sound(&scenario.name(), &trace, &relation);
        // Admission-based policies announce static seeds at spawn; a run
        // that never sees one would make the coverage property vacuous.
        if matches!(kind, 1 | 3 | 4 | 5) {
            prop_assert!(
                seeded > 0,
                "{}: no seeded thread observed — vacuous soundness case",
                scenario.name()
            );
        }
    }
}
