//! CI driver for cluster-level fault exploration (`ClusterScenario`).
//!
//! Two gates, both release-mode and fully deterministic:
//!
//! 1. **Healthy sweeps** — a bounded DPOR sweep of the hooked 3-site proto
//!    cluster with a fault budget of one crash + one drop, and one with one
//!    crash + one suspicion (the budget under which consensus leaves round
//!    0), each run *twice*. The runs must agree on schedule counts and
//!    failure signatures, and the healthy stack must survive every explored
//!    schedule × fault mix.
//! 2. **Positive control** — the injected arrival-order bug
//!    ([`ClusterScenario::with_ab_order_bug`]) must yield a witness that
//!    replays to the same failure; a checker that can no longer find a
//!    planted bug is broken even if the healthy sweep stays green.
//!
//! On any failure the offending witnesses are written to a log file
//! (default `fault-explore-witness.log`, override with argv[1]) for CI to
//! upload, and the process exits nonzero.

use std::fmt::Write as _;
use std::process::ExitCode;

use samoa_check::{ClusterScenario, Explorer, ExplorerConfig, FaultBudget, Strategy, Sweep};
use samoa_proto::StackPolicy;

fn signatures(sweep: &Sweep) -> Vec<String> {
    sweep
        .failures
        .iter()
        .map(|w| w.failure.signature())
        .collect()
}

fn witness_log(sweep: &Sweep) -> String {
    let mut out = String::new();
    for w in &sweep.failures {
        let _ = writeln!(
            out,
            "scenario={} schedule={} failure={} choices={:?}",
            w.scenario,
            w.schedule_index,
            w.failure.signature(),
            w.choices
        );
    }
    out
}

fn main() -> ExitCode {
    let log_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "fault-explore-witness.log".to_string());
    let mut failed = false;
    let mut log = String::new();

    // Gate 1: deterministic healthy sweeps.
    let scenario = |budget| ClusterScenario::new(3, StackPolicy::Basic, 7, budget);
    let crash_and_suspicion = FaultBudget {
        crashes: 1,
        suspicions: 1,
        ..FaultBudget::default()
    };
    let cfg = ExplorerConfig::new(12, Strategy::Dpor);
    for (label, budget) in [
        ("crash + drop", FaultBudget::crash_and_drop()),
        ("crash + suspicion", crash_and_suspicion),
    ] {
        let a = Explorer::sweep(&scenario(budget), &cfg);
        let b = Explorer::sweep(&scenario(budget), &cfg);
        println!(
            "healthy sweep ({label}): {} schedules (run A) / {} (run B), {} failure(s)",
            a.schedules_run,
            b.schedules_run,
            a.failures.len()
        );
        if a.schedules_run != b.schedules_run || signatures(&a) != signatures(&b) {
            println!("FAIL: the bounded DPOR sweep is not deterministic");
            failed = true;
        }
        if !a.failures.is_empty() {
            println!("FAIL: the healthy stack failed under some schedule × fault mix");
            let _ = write!(log, "{}", witness_log(&a));
            failed = true;
        }
    }

    // Gate 2: the planted ordering bug must still be caught and replay.
    let buggy = scenario(FaultBudget::crash_and_drop()).with_ab_order_bug();
    let search = ExplorerConfig::new(192, Strategy::Random { seed: 3 });
    match Explorer::explore(&buggy, &search).violation {
        None => {
            println!("FAIL: positive control lost — the planted ordering bug went undetected");
            failed = true;
        }
        Some(witness) => {
            let sig = witness.failure.signature();
            println!(
                "positive control: witness at schedule {} ({} choices): {}",
                witness.schedule_index,
                witness.choices.len(),
                sig
            );
            match Explorer::replay(&buggy, &witness) {
                Some(replayed) if replayed.signature() == sig => {}
                other => {
                    println!("FAIL: witness did not replay to the same failure: {other:?}");
                    let _ = writeln!(
                        log,
                        "scenario={} schedule={} failure={sig} choices={:?}",
                        witness.scenario, witness.schedule_index, witness.choices
                    );
                    failed = true;
                }
            }
        }
    }

    if failed {
        if !log.is_empty() {
            if let Err(e) = std::fs::write(&log_path, &log) {
                println!("could not write witness log {log_path}: {e}");
            } else {
                println!("witness log written to {log_path}");
            }
        }
        return ExitCode::FAILURE;
    }
    println!("fault-explore: all gates passed");
    ExitCode::SUCCESS
}
