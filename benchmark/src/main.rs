//! The SAMOA benchmark: seven named workloads over the runtime, the
//! replicated KV, the transport stack and failover, each measured from
//! outside through public APIs. See `benchmark/README.md`.
//!
//! ```text
//! samoa-benchmark run --workload W --seed N --seconds S --trace 0|1
//! samoa-benchmark all [--seed N] [--seconds S] [--traced] [--smoke]
//! samoa-benchmark aa  [--sets K] [--seed N] [--seconds S]
//! samoa-benchmark schema
//! samoa-benchmark spin        (internal: an idle-priority spinner, see steady.rs)
//! ```
//!
//! `run` is what the driver calls: one workload in this process, a table
//! for people, then the one-line JSON result. `all` runs every workload and
//! `aa` the ones `BENCHMARK.json` declares, each in a process of its own, by
//! re-invoking this executable.

mod boxspeed;
mod failover;
mod harness;
mod kv;
mod lifecycle;
mod load;
mod probes;
mod procfs;
mod report;
mod rt;
mod schema;
mod spans;
mod stats;
mod steady;
mod suite;
mod timed;
mod xfer;

use std::process::ExitCode;

use harness::Outcome;

/// `--key value` options after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value {v:?} for {key}")),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }
}

/// Run one workload in this process.
fn run_workload(name: &str, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    use harness::{run_end_to_end, run_traced};
    macro_rules! go {
        ($w:expr) => {
            if traced {
                run_traced(&$w, seconds)
            } else {
                run_end_to_end(&$w, seconds)
            }
        };
    }
    let kv = |backend, window| kv::KvWorkload {
        name: name.to_string(),
        backend,
        window,
        seed,
    };
    Ok(match name {
        "kv-sim3-closed" => go!(kv(kv::Backend::Sim, 1)),
        "kv-sim3-window8" => go!(kv(kv::Backend::Sim, 8)),
        "kv-tcp3-closed" => go!(kv(kv::Backend::Tcp, 1)),
        "kv-tcp3-failover" => {
            let w = failover::Failover { seed };
            if traced {
                failover::run_traced(&w, seconds)
            } else {
                failover::run_end_to_end(&w, seconds)
            }
        }
        "rt-spawn-null" => go!(rt::SpawnNull { seed }),
        "rt-pipeline-io" => go!(rt::PipelineIo { seed }),
        "xfer-sim-lossy" => go!(xfer::XferLossy { seed }),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// The `run` subcommand: table, then the result line. Exit code 0 only if
/// every correctness gate held.
fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    let workload = args.value("--workload").ok_or("--workload is required")?;
    let seed: u64 = args.parsed("--seed", 1)?;
    let seconds: f64 = args.parsed("--seconds", schema::RUN_SECONDS as f64)?;
    let traced = match args.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} is outside 0..=60"));
    }
    let box_before = procfs::BoxCpu::read();
    let spinners = steady::IdleSpinners::start();
    println!(
        "# {workload} seed={seed} seconds={seconds} trace={} idle_spinners={}",
        u8::from(traced),
        spinners.count()
    );
    let outcome = run_workload(workload, seed, seconds, traced)?;
    drop(spinners);
    println!(
        "# box: steal = {:.1} % of CPU time during the run",
        100.0 * procfs::BoxCpu::read().steal_share_since(box_before)
    );
    let rows = if traced {
        outcome.report.rows(&schema::PER_LAYER, true)
    } else {
        let decls: Vec<_> = schema::END_TO_END.iter().map(|(d, _)| *d).collect();
        outcome.report.rows(&decls, false)
    };
    print!("{}", report::render_table(workload, &rows));
    if let Err(gate) = &outcome.correct {
        eprintln!("CORRECTNESS GATE FAILED on {workload}: {gate}");
    }
    println!(
        "{}",
        report::render_result_json(
            outcome.correct.is_ok(),
            outcome.attempted.max(1),
            outcome.failed,
            &rows
        )
    );
    Ok(if outcome.correct.is_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = if argv.first().is_some_and(|a| !a.starts_with("--")) {
        argv.remove(0)
    } else {
        "run".to_string()
    };
    let args = Args(argv);
    let result = match command.as_str() {
        "run" => cmd_run(&args),
        "all" => suite::cmd_all(&args),
        "aa" => suite::cmd_aa(&args),
        "spin" => steady::spin(),
        "schema" => {
            print!("{}", schema::render_benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!(
            "unknown command {other:?} (expected run, all, aa or schema)"
        )),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}
