//! Property test for fault-schedule replay determinism: any random walk
//! through the combined schedule × fault space of the hooked cluster can be
//! replayed from its logged decision prefix, reproducing the exact same
//! [`RunReport`] verdict *and* the same end state — per-site KV digests and
//! atomic-broadcast delivery sequences ([`ClusterProbe`]). This is the
//! substrate both witness replay and DPOR's prefix-restarts stand on: if a
//! logged prefix could diverge, every cluster-level witness would be
//! unreproducible.

use std::sync::Arc;

use proptest::prelude::*;
use samoa_check::{
    ClusterProbe, ClusterScenario, Controller, FaultBudget, PrefixDecider, RandomDecider, Scenario,
};
use samoa_proto::StackPolicy;

/// Run the scenario once under `decider`; return the invariant verdict,
/// the end-state probe, and the effective decision log.
fn run_once(
    scenario: &ClusterScenario,
    decider: Box<dyn samoa_check::Decider>,
) -> (Option<String>, ClusterProbe, Vec<u32>) {
    let ctrl = Controller::new(decider, 50_000);
    ctrl.register_main();
    let hook: Arc<dyn samoa_core::SchedHook> = ctrl.clone();
    let report = scenario.run(hook);
    let trace = ctrl.finish();
    let log: Vec<u32> = trace.choices.iter().map(|c| c.chosen).collect();
    (report.invariant_violation, scenario.probe(), log)
}

fn budget_for(pick: u8) -> FaultBudget {
    match pick % 4 {
        0 => FaultBudget::none(),
        1 => FaultBudget::crash_and_drop(),
        2 => FaultBudget {
            drops: 1,
            duplicates: 1,
            partitions: 1,
            ..FaultBudget::default()
        },
        _ => FaultBudget {
            crashes: 1,
            suspicions: 1,
            ..FaultBudget::default()
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A logged random walk — healthy or with the injected ordering bug,
    /// under varying fault budgets — replays to the identical verdict and
    /// end state.
    #[test]
    fn fault_schedule_replay_is_deterministic(
        seed in 0u64..10_000,
        pick in 0u8..4,
        bug in any::<bool>(),
    ) {
        let mut scenario = ClusterScenario::new(3, StackPolicy::Basic, 7, budget_for(pick));
        if bug {
            scenario = scenario.with_ab_order_bug();
        }
        let (v1, p1, log) = run_once(&scenario, Box::new(RandomDecider::new(seed)));
        let (v2, p2, log2) = run_once(&scenario, Box::new(PrefixDecider::new(log.clone())));
        prop_assert_eq!(v1, v2, "verdict diverged under prefix replay");
        prop_assert_eq!(p1, p2, "cluster end state diverged under prefix replay");
        prop_assert_eq!(log, log2, "the replayed run recorded a different decision log");
    }
}
