//! Property tests for the DPOR happens-before relation over *real*
//! controller traces: it must be a strict partial order that refines the
//! per-resource (and per-thread) total orders of the replayed schedule,
//! and the trace itself must be deterministic under replay.

use std::sync::Arc;

use proptest::prelude::*;
use samoa_check::{
    dpor, Controller, DiamondScenario, HappensBefore, PrefixDecider, RandomDecider, Scenario,
    ScheduleTrace, StepRecord, ViewChangeScenario,
};
use samoa_core::sched::SchedResource;
use samoa_core::Policy;

/// Run `scenario` once under a fresh controller driven by `decider`.
fn trace_of(scenario: &dyn Scenario, decider: Box<dyn samoa_check::Decider>) -> ScheduleTrace {
    let ctrl = Controller::new(decider, 50_000);
    ctrl.register_main();
    let hook: Arc<dyn samoa_core::SchedHook> = ctrl.clone();
    let _report = scenario.run(hook);
    ctrl.finish()
}

fn scenario_for(pick: u8) -> Box<dyn Scenario> {
    match pick % 4 {
        0 => Box::new(DiamondScenario::new(Policy::Unsync)),
        1 => Box::new(DiamondScenario::new(Policy::Serial)),
        2 => Box::new(ViewChangeScenario::new(Policy::Unsync, 7)),
        // 2PL admission: footprints name `SchedResource::Lock`, which no
        // other arm reaches.
        _ => Box::new(DiamondScenario::new(Policy::TwoPhase)),
    }
}

/// The segment-level units the relation is computed over: one per
/// recorded decision, carrying the chosen thread and aggregate footprint.
fn units_of(records: &[StepRecord]) -> Vec<(u32, Vec<SchedResource>)> {
    records.iter().map(|r| (r.chosen, r.footprint())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Happens-before over a real trace is a strict partial order:
    /// it only points forward in the trace (which gives irreflexivity
    /// and antisymmetry for free) and is transitively closed.
    #[test]
    fn happens_before_is_a_strict_partial_order(seed in 0u64..1_000, pick in 0u8..4) {
        let scenario = scenario_for(pick);
        let trace = trace_of(scenario.as_ref(), Box::new(RandomDecider::new(seed)));
        let hb = HappensBefore::of_run(&trace.records);
        let n = hb.len();
        prop_assert_eq!(n, trace.records.len());
        for i in 0..n {
            for j in 0..n {
                if hb.ordered(i, j) {
                    prop_assert!(i < j, "hb points backward: {} -> {}", i, j);
                    prop_assert!(!hb.ordered(j, i), "hb not antisymmetric: {} <-> {}", i, j);
                    for k in 0..n {
                        if hb.ordered(j, k) {
                            prop_assert!(
                                hb.ordered(i, k),
                                "hb not transitive: {} -> {} -> {} but not {} -> {}",
                                i, j, k, i, k
                            );
                        }
                    }
                }
            }
        }
    }

    /// Happens-before refines the schedule's per-thread and per-resource
    /// total orders: any two decisions by the same thread, or whose
    /// footprints touch a common resource, are ordered exactly as the
    /// schedule ran them. (This is the soundness half DPOR leans on: a
    /// pair it treats as unordered really is independent.)
    #[test]
    fn happens_before_refines_resource_total_orders(seed in 0u64..1_000, pick in 0u8..4) {
        let scenario = scenario_for(pick);
        let trace = trace_of(scenario.as_ref(), Box::new(RandomDecider::new(seed)));
        let hb = HappensBefore::of_run(&trace.records);
        let units = units_of(&trace.records);
        for j in 0..units.len() {
            for i in 0..j {
                let (ti, ref ri) = units[i];
                let (tj, ref rj) = units[j];
                let shares = ri.iter().any(|r| rj.contains(r));
                if ti == tj || shares {
                    prop_assert!(
                        hb.ordered(i, j),
                        "dependent pair unordered: #{} (tid {}, {:?}) vs #{} (tid {}, {:?})",
                        i, ti, ri, j, tj, rj
                    );
                    let a = dpor::HbUnit { tid: ti, resources: ri.clone() };
                    let b = dpor::HbUnit { tid: tj, resources: rj.clone() };
                    prop_assert!(dpor::dependent(&a, &b));
                }
            }
        }
    }

    /// Replaying a trace's effective decision log reproduces the exact
    /// same step records — ready sets, footprints, chosen threads, and
    /// per-segment events. DPOR's prefix-replay restarts rely on this.
    #[test]
    fn step_records_replay_deterministically(seed in 0u64..1_000, pick in 0u8..4) {
        let scenario = scenario_for(pick);
        let first = trace_of(scenario.as_ref(), Box::new(RandomDecider::new(seed)));
        let log: Vec<u32> = first.choices.iter().map(|c| c.chosen).collect();
        let second = trace_of(scenario.as_ref(), Box::new(PrefixDecider::new(log)));
        prop_assert_eq!(&first.records, &second.records);
        prop_assert_eq!(first.steps, second.steps);
    }
}
