//! The exploration driver: run a [`Scenario`] under many schedules, check
//! every run for isolation violations and scenario invariants, and — on
//! failure — produce a minimised, replayable [`Witness`].

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use samoa_core::IsolationViolation;

use crate::conflict::ConflictMatrix;
use crate::controller::{Controller, ScheduleTrace};
use crate::dpor::DporSearch;
use crate::scenarios::{RunReport, Scenario};
use crate::strategy::{Decider, PctDecider, PrefixDecider, RandomDecider};

/// How schedules are generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Seeded uniform random walk; run `i` uses seed `seed + i`.
    Random {
        /// Base seed.
        seed: u64,
    },
    /// Probabilistic Concurrency Testing with the given bug depth.
    Pct {
        /// Base seed (run `i` uses `seed + i`).
        seed: u64,
        /// Bug depth `d` (`d − 1` priority-change points per run).
        depth: usize,
    },
    /// Trace-guided PCT: same priority mechanics as [`Strategy::Pct`], but
    /// between schedules the generator drains the scenario's
    /// [`trace_buffer`](crate::scenarios::Scenario::trace_buffer),
    /// aggregates per-microprotocol contention the way
    /// [`ContentionProfile`](crate::ContentionProfile) does (admission
    /// wait time, falling back to handler service time when no schedule has
    /// waited yet), and places the next run's priority-change points on
    /// scheduling steps whose recorded footprint touches the hottest
    /// protocol. Scenarios without a trace buffer degrade to plain PCT.
    Guided {
        /// Base seed (run `i` uses `seed + i`).
        seed: u64,
        /// Bug depth `d` (`d − 1` priority-change points per run).
        depth: usize,
    },
    /// Exhaustive bounded depth-first enumeration of the choice tree.
    /// Stops early when the space is exhausted.
    Exhaustive,
    /// Dynamic partial-order reduction ([`crate::dpor`]): like
    /// [`Strategy::Exhaustive`] it covers the whole bounded space, but it
    /// skips schedules equivalent to one already run — two interleavings
    /// that differ only in the order of steps with disjoint resource
    /// footprints reach the same state. Typically orders of magnitude
    /// fewer runs for the same set of reachable failures.
    Dpor,
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Strategy::Random { seed } => write!(f, "random(seed={seed})"),
            Strategy::Pct { seed, depth } => write!(f, "pct(seed={seed}, depth={depth})"),
            Strategy::Guided { seed, depth } => {
                write!(f, "guided-pct(seed={seed}, depth={depth})")
            }
            Strategy::Exhaustive => write!(f, "exhaustive"),
            Strategy::Dpor => write!(f, "dpor"),
        }
    }
}

/// Exploration parameters.
#[derive(Debug, Clone)]
pub struct ExplorerConfig {
    /// Maximum number of schedules to run.
    pub schedules: usize,
    /// Schedule-generation strategy.
    pub strategy: Strategy,
    /// Per-run scheduling-step budget; longer runs abort as
    /// [`Failure::Runaway`].
    pub max_steps: u64,
    /// Greedily shrink the witness trace before returning it.
    pub minimise: bool,
}

impl ExplorerConfig {
    /// `schedules` runs under `strategy`, with minimisation on and a
    /// generous step budget.
    pub fn new(schedules: usize, strategy: Strategy) -> ExplorerConfig {
        ExplorerConfig {
            schedules,
            strategy,
            max_steps: 50_000,
            minimise: true,
        }
    }
}

/// Why a run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// The serializability checker found a precedence cycle.
    Isolation(IsolationViolation),
    /// A scenario-specific invariant was violated.
    Invariant(String),
    /// The schedule wedged: no thread ready, at least one blocked.
    Deadlock,
    /// The run exceeded the scheduling-step budget.
    Runaway,
}

impl Failure {
    /// A canonical, schedule-independent key for deduplication: the sorted
    /// precedence cycle for isolation violations, the message for invariant
    /// violations, the kind alone for aborts. Two schedules exhibiting the
    /// same underlying bug map to the same signature, so
    /// [`Explorer::sweep`]'s failure sets are comparable across strategies.
    pub fn signature(&self) -> String {
        match self {
            Failure::Isolation(v) => {
                let mut cycle = v.cycle.clone();
                cycle.sort_unstable();
                format!("isolation:{cycle:?}")
            }
            Failure::Invariant(s) => format!("invariant:{s}"),
            Failure::Deadlock => "deadlock".to_string(),
            Failure::Runaway => "runaway".to_string(),
        }
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Isolation(v) => write!(f, "{v}"),
            Failure::Invariant(s) => write!(f, "invariant violated: {s}"),
            Failure::Deadlock => write!(f, "schedule deadlocked"),
            Failure::Runaway => write!(f, "schedule exceeded the step budget"),
        }
    }
}

/// A replayable counterexample: strategy, schedule index, and the exact
/// choice trace. [`Explorer::replay`] reproduces the failure
/// deterministically from `choices` alone.
#[derive(Debug, Clone)]
pub struct Witness {
    /// Name of the failing scenario.
    pub scenario: String,
    /// The strategy that found the failure.
    pub strategy: Strategy,
    /// Which schedule (0-based) failed.
    pub schedule_index: usize,
    /// The recorded decision trace (minimised if the config asked for it).
    pub choices: Vec<u32>,
    /// What went wrong.
    pub failure: Failure,
}

impl std::fmt::Display for Witness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} (strategy {}, schedule #{}, trace {:?})",
            self.scenario, self.failure, self.strategy, self.schedule_index, self.choices
        )
    }
}

/// What an exploration did.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// Schedules actually run (less than requested if exhaustive search
    /// exhausted the space or a failure stopped it early).
    pub schedules_run: usize,
    /// The first failure found, already minimised if configured.
    pub violation: Option<Witness>,
    /// Exhaustive/DPOR search visited the whole bounded space.
    pub exhausted: bool,
}

/// What a [`Explorer::sweep`] did: like [`Exploration`], but the search
/// keeps going past failures and collects every *distinct* one
/// (deduplicated by [`Failure::signature`]).
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Schedules actually run.
    pub schedules_run: usize,
    /// One witness per distinct failure signature, in discovery order.
    pub failures: Vec<Witness>,
    /// Exhaustive/DPOR search visited the whole bounded space — the
    /// failure set is *complete* for the bounded scenario.
    pub exhausted: bool,
    /// Under [`Strategy::Dpor`]: ready threads the race analysis'
    /// no-initiator fallback considered across all runs (0 otherwise).
    pub backtrack_candidates: usize,
    /// Under [`Strategy::Dpor`]: of those, threads suppressed by the
    /// scenario's [`ConflictMatrix`]. The quotient is the
    /// *pruned ratio* `tests/conformance.rs` bounds.
    pub backtrack_pruned: usize,
}

/// The per-strategy schedule source shared by [`Explorer::explore`] and
/// [`Explorer::sweep`]: hands out a decider per run, folds each finished
/// trace back in, and knows when the space is exhausted.
enum Gen {
    Random {
        seed: u64,
    },
    Pct {
        seed: u64,
        depth: usize,
        horizon: usize,
    },
    Guided {
        seed: u64,
        depth: usize,
        horizon: usize,
        /// The scenario's trace feedback channel; `None` (no traced
        /// scenario) leaves the strategy running as plain PCT.
        buffer: Option<Arc<samoa_core::TraceBuffer>>,
        /// Scheduling-step indices (the change-point clock) whose recorded
        /// segment touched the hottest microprotocol in the last run.
        hot: Vec<usize>,
    },
    Exhaustive {
        prefix: Vec<u32>,
    },
    Dpor {
        search: DporSearch,
    },
}

impl Gen {
    fn new(
        strategy: Strategy,
        independence: Option<ConflictMatrix>,
        buffer: Option<Arc<samoa_core::TraceBuffer>>,
    ) -> Gen {
        match strategy {
            Strategy::Random { seed } => Gen::Random { seed },
            Strategy::Pct { seed, depth } => Gen::Pct {
                seed,
                depth,
                horizon: 64,
            },
            Strategy::Guided { seed, depth } => Gen::Guided {
                seed,
                depth,
                horizon: 64,
                buffer,
                hot: Vec::new(),
            },
            Strategy::Exhaustive => Gen::Exhaustive { prefix: Vec::new() },
            Strategy::Dpor => Gen::Dpor {
                search: DporSearch::with_independence(independence),
            },
        }
    }

    fn decider(&self, i: usize) -> Box<dyn Decider> {
        match self {
            Gen::Random { seed } => Box::new(RandomDecider::new(seed.wrapping_add(i as u64))),
            Gen::Pct {
                seed,
                depth,
                horizon,
            } => Box::new(PctDecider::new(
                seed.wrapping_add(i as u64),
                *depth,
                *horizon,
            )),
            Gen::Guided {
                seed,
                depth,
                horizon,
                hot,
                ..
            } => Box::new(PctDecider::guided(
                seed.wrapping_add(i as u64),
                *depth,
                *horizon,
                hot,
            )),
            Gen::Exhaustive { prefix } => Box::new(PrefixDecider::new(prefix.clone())),
            Gen::Dpor { search } => Box::new(PrefixDecider::new(search.prefix())),
        }
    }

    /// Fold a finished run in; `true` when the whole bounded space has
    /// been visited and no further run is useful.
    fn observe(&mut self, trace: &ScheduleTrace) -> bool {
        match self {
            Gen::Random { .. } => false,
            Gen::Pct { horizon, .. } => {
                // PCT places change points over scheduling *steps* — every
                // yield point, forced moves included — to match its depth
                // bound, so the horizon tracks the step count, not the
                // (much shorter) recorded-decision count.
                *horizon = (trace.steps as usize).max(16);
                false
            }
            Gen::Guided {
                horizon,
                buffer,
                hot,
                ..
            } => {
                *horizon = (trace.steps as usize).max(16);
                if let Some(buf) = buffer {
                    if let Some(h) = hot_steps(&buf.drain(), trace) {
                        *hot = h;
                    }
                }
                false
            }
            Gen::Exhaustive { prefix } => match next_prefix(trace) {
                Some(p) => {
                    *prefix = p;
                    false
                }
                None => true,
            },
            Gen::Dpor { search } => {
                search.record(trace);
                search.advance().is_none()
            }
        }
    }
}

/// The trace-guidance heuristic: from one run's drained trace events and
/// its schedule trace, the scheduling-step indices worth spending the next
/// run's PCT change points on.
///
/// The hottest microprotocol is the one where admission-wait time
/// concentrates (the same per-protocol aggregation
/// [`ContentionProfile`](crate::ContentionProfile) reports); when no
/// schedule has produced a wait yet — e.g. `Unsync` workloads, which never
/// block on admission — handler service time stands in, so the guidance
/// still points at the protocol doing the contended work. Steps qualify
/// when their recorded segment footprint touched that protocol's version
/// counter or lock slot. `None` (keep the previous guidance) when the
/// drained trace attributes nothing to any protocol or no step qualifies.
fn hot_steps(events: &[samoa_core::TraceEvent], trace: &ScheduleTrace) -> Option<Vec<usize>> {
    use samoa_core::sched::SchedResource;
    use samoa_core::TraceKind;

    let mut wait_ns: HashMap<u32, u64> = HashMap::new();
    let mut service_ns: HashMap<u32, u64> = HashMap::new();
    for ev in events {
        match ev.kind {
            TraceKind::WaitEnd {
                protocol,
                wait_ns: w,
                ..
            } => *wait_ns.entry(protocol.index() as u32).or_default() += w,
            TraceKind::HandlerExit {
                protocol,
                service_ns: s,
                ..
            } => *service_ns.entry(protocol.index() as u32).or_default() += s,
            _ => {}
        }
    }
    let table = if wait_ns.is_empty() {
        &service_ns
    } else {
        &wait_ns
    };
    // Ties broken toward the lower index to keep runs deterministic.
    let hottest = table
        .iter()
        .max_by_key(|&(&idx, &ns)| (ns, std::cmp::Reverse(idx)))
        .map(|(&idx, _)| idx)?;
    let hot: Vec<usize> = trace
        .records
        .iter()
        .filter(|r| {
            r.footprint().iter().any(|rs| {
                matches!(rs,
                    SchedResource::Version(i) | SchedResource::Lock(i) if *i == hottest)
            })
        })
        .map(|r| r.step as usize)
        .collect();
    if hot.is_empty() {
        None
    } else {
        Some(hot)
    }
}

/// Runs scenarios under controlled schedules.
pub struct Explorer;

impl Explorer {
    /// Run `scenario` for up to `cfg.schedules` schedules; stop at the
    /// first failure.
    pub fn explore(scenario: &dyn Scenario, cfg: &ExplorerConfig) -> Exploration {
        let mut generator = Gen::new(
            cfg.strategy,
            scenario.static_independence(),
            scenario.trace_buffer(),
        );
        let mut runs = 0;
        for i in 0..cfg.schedules {
            let (report, trace) = run_once(scenario, generator.decider(i), cfg.max_steps);
            runs = i + 1;
            if let Some(mut failure) = classify(&report, &trace) {
                let mut choices: Vec<u32> = trace.choices.iter().map(|c| c.chosen).collect();
                if cfg.minimise {
                    (choices, failure) = minimise(scenario, choices, failure, cfg.max_steps);
                }
                return Exploration {
                    schedules_run: runs,
                    violation: Some(Witness {
                        scenario: scenario.name().to_string(),
                        strategy: cfg.strategy,
                        schedule_index: i,
                        choices,
                        failure,
                    }),
                    exhausted: false,
                };
            }
            if generator.observe(&trace) {
                return Exploration {
                    schedules_run: runs,
                    violation: None,
                    exhausted: true,
                };
            }
        }
        Exploration {
            schedules_run: runs,
            violation: None,
            exhausted: false,
        }
    }

    /// Run `scenario` like [`explore`](Explorer::explore), but *keep
    /// going* past failures and collect one witness per distinct
    /// [`Failure::signature`]. With [`Strategy::Exhaustive`] or
    /// [`Strategy::Dpor`] and a sufficient budget, the returned failure
    /// set is complete for the bounded scenario — which is what makes the
    /// two strategies comparable: DPOR must find exactly the exhaustive
    /// failure set in (usually far) fewer schedules.
    pub fn sweep(scenario: &dyn Scenario, cfg: &ExplorerConfig) -> Sweep {
        let mut generator = Gen::new(
            cfg.strategy,
            scenario.static_independence(),
            scenario.trace_buffer(),
        );
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut failures: Vec<Witness> = Vec::new();
        let mut runs = 0;
        let mut exhausted = false;
        for i in 0..cfg.schedules {
            let (report, trace) = run_once(scenario, generator.decider(i), cfg.max_steps);
            runs = i + 1;
            if let Some(mut failure) = classify(&report, &trace) {
                if seen.insert(failure.signature()) {
                    let mut choices: Vec<u32> = trace.choices.iter().map(|c| c.chosen).collect();
                    if cfg.minimise {
                        (choices, failure) = minimise(scenario, choices, failure, cfg.max_steps);
                    }
                    failures.push(Witness {
                        scenario: scenario.name().to_string(),
                        strategy: cfg.strategy,
                        schedule_index: i,
                        choices,
                        failure,
                    });
                }
            }
            if generator.observe(&trace) {
                exhausted = true;
                break;
            }
        }
        let (backtrack_candidates, backtrack_pruned) = match &generator {
            Gen::Dpor { search } => (search.fallback_candidates(), search.fallback_pruned()),
            _ => (0, 0),
        };
        Sweep {
            schedules_run: runs,
            failures,
            exhausted,
            backtrack_candidates,
            backtrack_pruned,
        }
    }

    /// Re-run `witness.choices` deterministically and return the failure it
    /// reproduces (or `None` — a stale witness).
    pub fn replay(scenario: &dyn Scenario, witness: &Witness) -> Option<Failure> {
        let (report, trace) = run_once(
            scenario,
            Box::new(PrefixDecider::new(witness.choices.clone())),
            u64::MAX,
        );
        classify(&report, &trace)
    }
}

/// One controlled run: fresh controller, scenario workload, shutdown.
fn run_once(
    scenario: &dyn Scenario,
    decider: Box<dyn Decider>,
    max_steps: u64,
) -> (RunReport, ScheduleTrace) {
    let ctrl = Controller::new(decider, max_steps);
    ctrl.register_main();
    let hook: Arc<dyn samoa_core::SchedHook> = ctrl.clone();
    let report = scenario.run(hook);
    // Free any straggler threads (parked between their last handler and
    // thread exit) *after* the report — including its history snapshot —
    // is taken, so the trace stays schedule-pure.
    let trace = ctrl.finish();
    (report, trace)
}

/// Order of severity: a definite isolation violation beats an invariant
/// message beats the abort conditions.
fn classify(report: &RunReport, trace: &ScheduleTrace) -> Option<Failure> {
    if let Err(v) = report.history.check_isolation() {
        return Some(Failure::Isolation(v));
    }
    if let Some(s) = &report.invariant_violation {
        return Some(Failure::Invariant(s.clone()));
    }
    if trace.deadlock {
        return Some(Failure::Deadlock);
    }
    if trace.runaway {
        return Some(Failure::Runaway);
    }
    None
}

/// Depth-first successor of a completed run's trace: increment the last
/// decision that still has an untried alternative, drop everything after
/// it. `None` when the whole bounded space has been visited.
fn next_prefix(trace: &ScheduleTrace) -> Option<Vec<u32>> {
    let c = &trace.choices;
    for i in (0..c.len()).rev() {
        if c[i].chosen + 1 < c[i].alternatives {
            let mut p: Vec<u32> = c[..i].iter().map(|r| r.chosen).collect();
            p.push(c[i].chosen + 1);
            return Some(p);
        }
    }
    None
}

/// Strip trailing zeros: they are no-ops for the prefix decider (it picks
/// 0 past the end anyway), so this is the canonical form of a prefix.
fn canonical(mut choices: Vec<u32>) -> Vec<u32> {
    while choices.last() == Some(&0) {
        choices.pop();
    }
    choices
}

/// Greedy witness shrinking: try deleting each choice (from the back — late
/// choices are most likely incidental), keep deletions that preserve a
/// failure of the same kind. Every kept deletion is validated by a full
/// replay, so the result is guaranteed to still fail — and the failure
/// returned with it is the one *its* replay produced, which may name other
/// computations or sites than the original did: a witness must replay to
/// exactly the failure it records.
///
/// Replays are memoised on the controller's *effective* decision log: a
/// deletion candidate is an arbitrary prefix, but the run it induces is
/// fully described by the choices the controller actually recorded
/// (out-of-range entries are clamped, entries past the last decision are
/// ignored). Distinct candidates frequently collapse onto the same
/// effective log — especially near the tail — so caching both the
/// candidate and its effective log skips whole re-runs of the scenario.
fn minimise(
    scenario: &dyn Scenario,
    mut choices: Vec<u32>,
    original: Failure,
    max_steps: u64,
) -> (Vec<u32>, Failure) {
    let same_kind = |f: &Failure| std::mem::discriminant(f) == std::mem::discriminant(&original);
    // canonical(candidate) → the failure of the original kind its replay
    // ends in, if it does.
    let mut cache: HashMap<Vec<u32>, Option<Failure>> = HashMap::new();
    cache.insert(canonical(choices.clone()), Some(original.clone()));
    let mut failure = original.clone();
    let mut i = choices.len();
    while i > 0 {
        i -= 1;
        let mut candidate = choices.clone();
        candidate.remove(i);
        let key = canonical(candidate.clone());
        let fails = match cache.get(&key) {
            Some(hit) => hit.clone(),
            None => {
                let (report, trace) = run_once(
                    scenario,
                    Box::new(PrefixDecider::new(candidate.clone())),
                    max_steps,
                );
                let fails = classify(&report, &trace).filter(same_kind);
                // The effective log describes the same run as the
                // candidate — future candidates that collapse onto it are
                // settled without replaying.
                let effective: Vec<u32> = trace.choices.iter().map(|c| c.chosen).collect();
                cache.insert(canonical(effective), fails.clone());
                cache.insert(key, fails.clone());
                fails
            }
        };
        if let Some(f) = fails {
            choices = candidate;
            failure = f;
        }
    }
    (canonical(choices), failure)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_prefix_increments_deepest_open_choice() {
        use crate::controller::ChoiceRecord;
        let t = |choices: Vec<(u32, u32)>| ScheduleTrace {
            choices: choices
                .into_iter()
                .map(|(chosen, alternatives)| ChoiceRecord {
                    chosen,
                    alternatives,
                })
                .collect(),
            records: Vec::new(),
            steps: 0,
            deadlock: false,
            runaway: false,
        };
        assert_eq!(next_prefix(&t(vec![(0, 2), (1, 2)])), Some(vec![1]));
        assert_eq!(next_prefix(&t(vec![(0, 2), (0, 3)])), Some(vec![0, 1]));
        assert_eq!(next_prefix(&t(vec![(1, 2), (2, 3)])), None);
        assert_eq!(next_prefix(&t(vec![])), None);
    }
}
