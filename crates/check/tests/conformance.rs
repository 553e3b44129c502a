//! DPOR conformance: on every bounded scenario, the reduced search must
//! find *exactly* the failures exhaustive enumeration finds — no more, no
//! fewer — while running at most as many schedules. The reduction claim
//! itself (≤ 1/5 of exhaustive on a ≥ 10k-schedule space) is pinned by
//! `dpor_reduction_on_the_wide_diamond`.

use std::collections::BTreeSet;

use samoa_check::{
    ClusterScenario, DiamondScenario, DisjointClustersScenario, Explorer, ExplorerConfig,
    FaultBudget, Scenario, Strategy, Sweep, ViewChangeScenario,
};
use samoa_core::Policy;

fn signatures(sweep: &Sweep) -> BTreeSet<String> {
    sweep
        .failures
        .iter()
        .map(|w| w.failure.signature())
        .collect()
}

/// Sweep `scenario` to exhaustion under both strategies and demand
/// identical failure sets with DPOR running no more schedules. Returns
/// (exhaustive runs, dpor runs) for reduction assertions.
fn conforms(scenario: &dyn Scenario, budget: usize) -> (usize, usize) {
    let mut cfg = ExplorerConfig::new(budget, Strategy::Exhaustive);
    cfg.minimise = false;
    let ex = Explorer::sweep(scenario, &cfg);
    assert!(
        ex.exhausted,
        "{}: exhaustive budget {budget} too small ({} runs)",
        scenario.name(),
        ex.schedules_run
    );
    cfg.strategy = Strategy::Dpor;
    let dp = Explorer::sweep(scenario, &cfg);
    assert!(
        dp.exhausted,
        "{}: DPOR did not exhaust within the exhaustive budget ({} runs)",
        scenario.name(),
        dp.schedules_run
    );
    assert_eq!(
        signatures(&ex),
        signatures(&dp),
        "{}: DPOR failure set differs from exhaustive",
        scenario.name()
    );
    assert!(
        dp.schedules_run <= ex.schedules_run,
        "{}: DPOR ran more schedules ({}) than exhaustive ({})",
        scenario.name(),
        dp.schedules_run,
        ex.schedules_run
    );
    (ex.schedules_run, dp.schedules_run)
}

// Schedule-count ceilings measured at PR-5 (before the static-independence
// relation was wired into DPOR). Static pruning must never push a count
// *above* these: statically-independent pairs pruned from backtrack sets
// can only shrink the search.
const PR5_DIAMOND_UNSYNC: usize = 48;
const PR5_DIAMOND_VCA: usize = 35;
const PR5_VIEW_CHANGE_UNSYNC: usize = 23;

#[test]
fn diamond_conformance_buggy_and_isolating() {
    let (_, dp) = conforms(&DiamondScenario::new(Policy::Unsync), 1_000);
    assert!(
        dp <= PR5_DIAMOND_UNSYNC,
        "diamond/unsync DPOR count regressed past PR-5: {dp} > {PR5_DIAMOND_UNSYNC}"
    );
    let (_, dp) = conforms(&DiamondScenario::new(Policy::Basic), 1_000);
    assert!(
        dp <= PR5_DIAMOND_VCA,
        "diamond/vca-basic DPOR count regressed past PR-5: {dp} > {PR5_DIAMOND_VCA}"
    );
    let (_, _) = conforms(&DiamondScenario::new(Policy::Serial), 1_000);
    let (_, _) = conforms(&DiamondScenario::new(Policy::TwoPhase), 1_000);
}

#[test]
fn view_change_conformance() {
    let (_, dp) = conforms(&ViewChangeScenario::new(Policy::Unsync, 7), 1_000);
    assert!(
        dp <= PR5_VIEW_CHANGE_UNSYNC,
        "view-change/unsync DPOR count regressed past PR-5: {dp} > {PR5_VIEW_CHANGE_UNSYNC}"
    );
    let (_, _) = conforms(&ViewChangeScenario::new(Policy::Serial, 7), 1_000);
}

/// The static-pruning invariant of the conflict-matrix → DPOR loop: on a
/// workload with two statically disjoint clusters (a VCAbasic diamond next
/// to an unrelated two-protocol chain), DPOR armed with the stack's
/// [`ConflictMatrix`](samoa_check::ConflictMatrix) finds
/// exactly the exhaustive failure set while the no-initiator fallback
/// demonstrably prunes statically independent threads.
#[test]
fn disjoint_clusters_static_pruning_conformance() {
    let scenario = DisjointClustersScenario::new(Policy::Basic);
    let mut cfg = ExplorerConfig::new(40_000, Strategy::Exhaustive);
    cfg.minimise = false;
    let ex = Explorer::sweep(&scenario, &cfg);
    assert!(
        ex.exhausted,
        "exhaustive budget too small ({} runs)",
        ex.schedules_run
    );
    cfg.strategy = Strategy::Dpor;
    let dp = Explorer::sweep(&scenario, &cfg);
    assert!(
        dp.exhausted,
        "DPOR did not exhaust ({} runs)",
        dp.schedules_run
    );
    assert_eq!(
        signatures(&ex),
        signatures(&dp),
        "DPOR failure set differs from exhaustive"
    );
    assert!(
        dp.schedules_run * 10 <= ex.schedules_run,
        "static pruning lost its edge: {} DPOR runs vs {} exhaustive",
        dp.schedules_run,
        ex.schedules_run
    );
    assert!(
        dp.backtrack_pruned > 0,
        "the static relation never pruned a fallback candidate"
    );
    assert!(dp.backtrack_pruned <= dp.backtrack_candidates);

    // The buggy sibling: seeds are withheld for Unsync stacks (no admission
    // protocol to bound the future), so pruning must stay off — and the
    // isolation violation must still surface.
    let buggy = DisjointClustersScenario::new(Policy::Unsync);
    cfg.schedules = 60_000;
    let dp = Explorer::sweep(&buggy, &cfg);
    assert!(dp.exhausted, "buggy sweep did not exhaust");
    assert_eq!(dp.backtrack_pruned, 0, "unsync stacks must not be pruned");
    assert!(
        signatures(&dp).iter().any(|s| s.starts_with("isolation")),
        "unsync disjoint clusters must violate isolation"
    );
}

/// Fast-path conformance: the lock-free admission core (atomic
/// `VersionCell` + gate-bit Rule-1 sweep + sharded 2PL table) must be
/// *semantically invisible* to DPOR. These literal failure sets were
/// captured by the same sweeps on the pre-rewrite core (Mutex+Condvar
/// cells, global spawn lock) and are pinned byte-for-byte: any divergence
/// — a new signature, a lost signature, a changed victim set — means the
/// rewrite changed observable interleaving semantics, not just its cost.
/// Schedule counts are pinned too (pre-rewrite values; may only shrink).
#[test]
fn fast_path_failure_sets_byte_identical_to_pre_rewrite() {
    let iso12: BTreeSet<String> = ["isolation:[1, 2]".to_string()].into();
    let none = BTreeSet::new();

    // (scenario, budget, pre-rewrite DPOR schedule count, pinned set)
    type Case<'a> = (Box<dyn Scenario>, usize, usize, &'a BTreeSet<String>);
    let cases: Vec<Case> = vec![
        (
            Box::new(DiamondScenario::new(Policy::Unsync)),
            1_000,
            48,
            &iso12,
        ),
        (
            Box::new(DiamondScenario::new(Policy::Basic)),
            1_000,
            35,
            &none,
        ),
        (
            Box::new(ViewChangeScenario::new(Policy::Unsync, 7)),
            1_000,
            23,
            &iso12,
        ),
        (
            Box::new(DisjointClustersScenario::new(Policy::Basic)),
            40_000,
            331,
            &none,
        ),
        (
            Box::new(DisjointClustersScenario::new(Policy::Unsync)),
            60_000,
            847,
            &iso12,
        ),
    ];
    for (scenario, budget, pre_rewrite_runs, pinned) in cases {
        let mut cfg = ExplorerConfig::new(budget, Strategy::Dpor);
        cfg.minimise = false;
        let dp = Explorer::sweep(scenario.as_ref(), &cfg);
        assert!(
            dp.exhausted,
            "{}: DPOR did not exhaust within {budget}",
            scenario.name()
        );
        assert_eq!(
            &signatures(&dp),
            pinned,
            "{}: failure set diverged from the pre-rewrite core",
            scenario.name()
        );
        assert!(
            dp.schedules_run <= pre_rewrite_runs,
            "{}: schedule count grew past the pre-rewrite core: {} > {pre_rewrite_runs}",
            scenario.name(),
            dp.schedules_run
        );
    }
}

/// The ISSUE acceptance bar: a diamond sized so exhaustive enumeration
/// explores ≥ 10 000 schedules, where DPOR must explore ≤ 1/5 as many and
/// still produce the identical violation set. Expensive (exhaustive alone
/// is > 100k runs), so ignored by default; CI runs it in release via
/// `--include-ignored`.
#[test]
#[ignore = "slow acceptance sweep; run in release via --include-ignored"]
fn dpor_reduction_on_the_wide_diamond() {
    let scenario = DiamondScenario::sized(Policy::Unsync, 3);
    let (ex, dp) = conforms(&scenario, 150_000);
    assert!(
        ex >= 10_000,
        "width-3 diamond space unexpectedly small: {ex} schedules"
    );
    assert!(
        dp * 5 <= ex,
        "DPOR reduction regressed: {dp} runs vs exhaustive {ex} (need ≤ 1/5)"
    );
}

/// With a **zero fault budget** the cluster explorer degenerates to pure
/// schedule exploration of a healthy stack — exactly the regime the
/// [`ViewChangeScenario`] family already pins. A bounded DPOR sweep of the
/// hooked 3-site cluster must report the same failure set (none) as the
/// clean view-change scenario: fault promotion must not manufacture
/// failures the schedule-only search would not see.
#[test]
fn cluster_zero_budget_conforms_to_view_change_family() {
    let cluster = ClusterScenario::new(3, samoa_proto::StackPolicy::Basic, 7, FaultBudget::none());
    let cfg = ExplorerConfig::new(8, Strategy::Dpor);
    let cl = Explorer::sweep(&cluster, &cfg);
    assert!(cl.schedules_run > 0);
    let vc = Explorer::sweep(
        &ViewChangeScenario::new(Policy::Serial, 7),
        &ExplorerConfig::new(1_000, Strategy::Dpor),
    );
    assert_eq!(
        signatures(&cl),
        signatures(&vc),
        "zero-budget cluster sweep diverged from the view-change family"
    );
    assert_eq!(signatures(&cl), BTreeSet::new());
}

/// Witness minimisation memoises replays on the controller's effective
/// decision log: minimising a diamond witness must replay the scenario
/// strictly fewer times than the un-memoised bound (one run per deletion
/// candidate), and the result must still fail.
#[test]
fn minimisation_replays_fewer_runs_than_candidates() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Wraps a scenario, counting runs.
    struct Counting<S> {
        inner: S,
        runs: Arc<AtomicUsize>,
    }
    impl<S: Scenario> Scenario for Counting<S> {
        fn name(&self) -> String {
            self.inner.name()
        }
        fn run(&self, hook: Arc<dyn samoa_core::SchedHook>) -> samoa_check::RunReport {
            self.runs.fetch_add(1, Ordering::Relaxed);
            self.inner.run(hook)
        }
    }

    // First: same seed with minimisation off, to learn the raw witness
    // length. Greedy deletion tries one candidate per index of that
    // trace, so an un-memoised minimiser replays exactly that many times.
    let raw_len = {
        let mut cfg = ExplorerConfig::new(500, Strategy::Random { seed: 3 });
        cfg.minimise = false;
        Explorer::explore(&DiamondScenario::new(Policy::Unsync), &cfg)
            .violation
            .expect("unsync diamond must fail")
            .choices
            .len()
    };

    let runs = Arc::new(AtomicUsize::new(0));
    let scenario = Counting {
        inner: DiamondScenario::new(Policy::Unsync),
        runs: Arc::clone(&runs),
    };
    // Same walk with minimisation on (the default).
    let cfg = ExplorerConfig::new(500, Strategy::Random { seed: 3 });
    let got = Explorer::explore(&scenario, &cfg);
    let witness = got.violation.expect("unsync diamond must fail");
    let minimisation_replays = runs.load(Ordering::Relaxed) - got.schedules_run;
    assert!(
        Explorer::replay(&scenario, &witness).is_some(),
        "minimised witness must still fail"
    );
    assert!(
        minimisation_replays > 0,
        "minimisation did not run at all — test is vacuous"
    );
    assert!(witness.choices.len() < raw_len, "nothing was shrunk");
    // The memoisation claim: candidates settled by the canonical /
    // effective-decision-log cache are not replayed, so minimisation
    // replays strictly fewer schedules than the one-per-candidate bound
    // an un-memoised greedy pass would pay.
    assert!(
        minimisation_replays < raw_len,
        "memoisation regressed: {minimisation_replays} replays for a \
         {raw_len}-choice trace (un-memoised bound)"
    );
}
