//! Cluster-level fault exploration: DPOR over the combined schedule ×
//! fault space of the real proto stack (ISSUE 8's acceptance suite).
//!
//! * The bounded DPOR sweep of a hooked 3-site cluster with a fault budget
//!   of one crash + one drop is **deterministic**: two runs produce
//!   identical schedule counts and failure signatures.
//! * So is the sweep with one crash + one suspicion, the budget under which
//!   consensus instances leave round 0.
//! * The injected ordering bug ([`ClusterScenario::with_ab_order_bug`])
//!   yields a minimised cluster-level witness that replays
//!   deterministically — byte-identical choices on a re-exploration and
//!   the same failure on every replay.

use samoa_check::{ClusterScenario, Explorer, ExplorerConfig, FaultBudget, Strategy};
use samoa_proto::StackPolicy;

fn scenario(budget: FaultBudget) -> ClusterScenario {
    ClusterScenario::new(3, StackPolicy::Basic, 7, budget)
}

/// Two bounded sweeps under `budget` agree with each other and the healthy
/// stack survives every schedule × fault mix they explore.
fn assert_sweep_deterministic_and_clean(budget: FaultBudget, cfg: ExplorerConfig) {
    let a = Explorer::sweep(&scenario(budget), &cfg);
    let b = Explorer::sweep(&scenario(budget), &cfg);
    assert_eq!(a.schedules_run, b.schedules_run);
    assert!(a.schedules_run > 1, "the budgeted space must branch");
    let sigs = |s: &samoa_check::Sweep| {
        s.failures
            .iter()
            .map(|w| w.failure.signature())
            .collect::<Vec<_>>()
    };
    assert_eq!(sigs(&a), sigs(&b));
    assert_eq!(sigs(&a), Vec::<String>::new());
}

#[test]
fn dpor_sweep_with_crash_and_drop_budget_is_deterministic() {
    assert_sweep_deterministic_and_clean(
        FaultBudget::crash_and_drop(),
        ExplorerConfig::new(12, Strategy::Dpor),
    );
}

/// A suspicion restarts consensus in a round ≥ 1, whose read phase has to
/// find whatever round 0's coordinator proposed without one — alone, or
/// after that coordinator (or anyone else) crashed. DPOR's bounded prefix
/// spends both tokens before the first delivery; the random walk is the leg
/// that suspects *after* a site adopted a round-0 proposal.
#[test]
fn sweeps_with_crash_and_suspicion_budget_are_deterministic() {
    let budget = FaultBudget {
        crashes: 1,
        suspicions: 1,
        ..FaultBudget::default()
    };
    assert_sweep_deterministic_and_clean(budget, ExplorerConfig::new(12, Strategy::Dpor));
    assert_sweep_deterministic_and_clean(
        budget,
        ExplorerConfig::new(64, Strategy::Random { seed: 5 }),
    );
}

/// Pinned cluster-witness regression: a fixed seed *and* a fault budget.
/// The search over the combined schedule × fault space finds a witness for
/// the injected ordering bug, the same seed finds the byte-identical
/// choice trace again, and the witness replays to the same failure.
#[test]
fn pinned_witness_with_fault_budget_replays_byte_identically() {
    let cfg = ExplorerConfig::new(192, Strategy::Random { seed: 3 });
    let s = scenario(FaultBudget::crash_and_drop()).with_ab_order_bug();
    let witness = Explorer::explore(&s, &cfg)
        .violation
        .expect("ordering bug must surface within the budgeted space");
    let again = Explorer::explore(&s, &cfg)
        .violation
        .expect("the search is deterministic");
    assert_eq!(again.choices, witness.choices);
    assert_eq!(again.failure.signature(), witness.failure.signature());
    let replay = Explorer::replay(&s, &witness).expect("witness must replay");
    assert_eq!(replay.signature(), witness.failure.signature());
}

#[test]
fn ab_order_bug_yields_minimised_replayable_witness() {
    let cfg = ExplorerConfig::new(64, Strategy::Random { seed: 3 });
    let s = scenario(FaultBudget::none()).with_ab_order_bug();
    let got = Explorer::explore(&s, &cfg);
    let witness = got
        .violation
        .expect("arrival-order delivery must violate prefix agreement under some schedule");
    assert!(
        witness.failure.signature().contains("prefix agreement"),
        "unexpected failure: {:?}",
        witness.failure
    );
    // Pinned regression: the same seed finds the same witness, and it
    // replays byte-identically.
    let again = Explorer::explore(&s, &cfg)
        .violation
        .expect("the search is deterministic");
    assert_eq!(again.choices, witness.choices);
    assert_eq!(again.schedule_index, witness.schedule_index);
    let replay1 = Explorer::replay(&s, &witness).expect("witness must replay");
    let replay2 = Explorer::replay(&s, &witness).expect("witness must replay twice");
    assert_eq!(replay1.signature(), witness.failure.signature());
    assert_eq!(replay2.signature(), witness.failure.signature());
}
