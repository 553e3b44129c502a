//! Whole-suite commands: `all` (every workload, each in its own process,
//! optionally validated against `BENCHMARK.json`) and `aa` (the suite run
//! several times on the same binary, to measure the noise floor the
//! regression bounds are set from).

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use serde_json::Value;

use crate::procfs;
use crate::schema::{self, valid_name, valid_unit};
use crate::stats;
use crate::Args;

/// `--seconds` of each run under `--smoke`: long enough for a failover
/// trial to see the crash, short enough for the whole suite in ~20 s.
const SMOKE_SECONDS: f64 = 0.5;

/// One child run's parsed result line.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// name -> (value, unit)
    metrics: BTreeMap<String, (f64, String)>,
    /// The raw result line, for duplicate-key checks.
    line: String,
}

/// Run `workload` in a process of its own; echo its table; parse its last
/// line.
fn run_child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let began = std::time::Instant::now();
    let out = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    println!("# {workload}: {:.1} s wall", began.elapsed().as_secs_f64());
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("{workload} printed nothing"))?
        .to_string();
    print!("{}", &stdout[..stdout.len() - line.len() - 1]);
    let v = serde_json::from_str(&line)
        .map_err(|e| format!("{workload}: last line is not JSON ({e:?}): {line}"))?;
    let obj = v.as_object().ok_or("result is not an object")?;
    let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
    if keys != ["attempted", "correct", "failed", "metrics"] {
        return Err(format!("{workload}: result keys are {keys:?}"));
    }
    let field = |k: &str| obj.get(k).ok_or(format!("{workload}: no {k}"));
    let mut metrics = BTreeMap::new();
    for (name, m) in field("metrics")?
        .as_object()
        .ok_or("metrics is not an object")?
    {
        let value = m.get("value").and_then(Value::as_f64);
        let unit = m.get("unit").and_then(Value::as_str);
        let (Some(value), Some(unit)) = (value, unit) else {
            return Err(format!("{workload}: metric {name} lacks value or unit"));
        };
        metrics.insert(name.clone(), (value, unit.to_string()));
    }
    let correct = field("correct")?.as_bool().ok_or("correct is not a bool")?;
    if !out.status.success() && correct {
        return Err(format!("{workload} exited with {}", out.status));
    }
    Ok(RunResult {
        correct,
        attempted: field("attempted")?
            .as_u64()
            .ok_or("attempted is not a whole number")?,
        failed: field("failed")?
            .as_u64()
            .ok_or("failed is not a whole number")?,
        metrics,
        line,
    })
}

/// What `BENCHMARK.json` declares: workloads, and (name, unit) of each
/// metric list.
struct Declared {
    workloads: Vec<String>,
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

fn read_benchmark_json() -> Result<Declared, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repo root): {e}"))?;
    let v = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let list = |key: &str, fields: [&str; 2]| -> Result<Vec<(String, String)>, String> {
        v.get(key)
            .and_then(Value::as_array)
            .ok_or(format!("BENCHMARK.json: no {key} list"))?
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .map(str::to_string)
                        .ok_or(format!("BENCHMARK.json: a {key} entry lacks {k}"))
                };
                Ok((s(fields[0])?, s(fields[1])?))
            })
            .collect()
    };
    Ok(Declared {
        workloads: list("workloads", ["name", "why"])?
            .into_iter()
            .map(|(n, _)| n)
            .collect(),
        end_to_end: list("end_to_end", ["name", "unit"])?,
        per_layer: list("per_layer", ["name", "unit"])?,
    })
}

/// Every declared metric emitted exactly once with its declared unit, and
/// nothing undeclared.
fn check_emitted(workload: &str, declared: &[(String, String)], got: &RunResult) -> Vec<String> {
    let mut problems = Vec::new();
    for (name, unit) in declared {
        if !valid_name(name) || !valid_unit(unit) {
            problems.push(format!("{name} ({unit}): name or unit is not well-formed"));
        }
        match got.line.matches(&format!("\"{name}\": {{")).count() {
            1 => {}
            n => problems.push(format!("{workload}: {name} emitted {n} times")),
        }
        match got.metrics.get(name) {
            Some((_, u)) if u == unit => {}
            Some((_, u)) => {
                problems.push(format!("{workload}: {name} has unit {u}, declared {unit}"))
            }
            None => {}
        }
    }
    for name in got.metrics.keys() {
        if !declared.iter().any(|(n, _)| n == name) {
            problems.push(format!("{workload}: {name} is emitted but not declared"));
        }
    }
    problems
}

/// Medians of every workload side by side.
fn print_summary(title: &str, names: &[(String, String)], results: &[(&str, RunResult)]) {
    println!("## {title}");
    print!("{:<48} {:>7}", "metric", "unit");
    for (w, _) in results {
        print!(" {w:>17}");
    }
    println!();
    for (name, unit) in names {
        print!("{name:<48} {unit:>7}");
        for (_, r) in results {
            match r.metrics.get(name) {
                Some((v, _)) => print!(" {v:>17.4}"),
                None => print!(" {:>17}", "-"),
            }
        }
        println!();
    }
    print!("{:<48} {:>7}", "failed/attempted", "");
    for (_, r) in results {
        print!(" {:>17}", format!("{}/{}", r.failed, r.attempted));
    }
    println!();
}

/// `all`: every workload, one process each.
pub fn cmd_all(args: &Args) -> Result<ExitCode, String> {
    let seed: u64 = args.parsed("--seed", 1)?;
    let smoke = args.flag("--smoke");
    let default_seconds = if smoke {
        SMOKE_SECONDS
    } else {
        schema::RUN_SECONDS as f64
    };
    let seconds: f64 = args.parsed("--seconds", default_seconds)?;
    let declared = read_benchmark_json()?;
    let mut problems = Vec::new();
    let ours: Vec<&str> = schema::workload_names().collect();
    let gated: Vec<&str> = schema::gated_names().collect();
    if declared.workloads != gated {
        problems.push(format!(
            "BENCHMARK.json workloads {:?} differ from the binary's gated ones {gated:?}",
            declared.workloads
        ));
    }
    // --smoke validates both modes; otherwise one mode per invocation.
    let modes: &[bool] = match (smoke, args.flag("--traced")) {
        (true, _) => &[false, true],
        (false, traced) => &[traced],
    };
    println!(
        "# all: seed={seed} seconds={seconds} nproc={} loadavg_1m={:.2}",
        std::thread::available_parallelism().map_or(0, usize::from),
        procfs::loadavg_1m()
    );
    for &traced in modes {
        let mut results = Vec::new();
        let names = if traced {
            &declared.per_layer
        } else {
            &declared.end_to_end
        };
        for w in &ours {
            let r = run_child(w, seed, seconds, traced)?;
            if !r.correct {
                problems.push(format!("{w}: a correctness gate failed"));
            }
            problems.extend(check_emitted(w, names, &r));
            results.push((*w, r));
        }
        let title = if traced {
            "per-layer metrics (traced run)"
        } else {
            "end-to-end metrics (tracing off)"
        };
        print_summary(title, names, &results);
    }
    if problems.is_empty() {
        println!(
            "# all: every workload ran, every gate held, every declared metric was emitted once"
        );
        Ok(ExitCode::SUCCESS)
    } else {
        for p in &problems {
            eprintln!("PROBLEM: {p}");
        }
        Ok(ExitCode::FAILURE)
    }
}

/// `aa`: run the gated workloads' end-to-end runs `--sets` times on this one
/// binary (seed `--seed + set`), print per (metric, workload) how far the
/// sets' values stray from their median, and write `benchmark/AA.md`.
pub fn cmd_aa(args: &Args) -> Result<ExitCode, String> {
    let sets: usize = args.parsed("--sets", 5)?;
    let seed: u64 = args.parsed("--seed", 1)?;
    let seconds: f64 = args.parsed("--seconds", schema::RUN_SECONDS as f64)?;
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    // values[workload][metric] = one value per set
    let mut values: BTreeMap<&str, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let mut loads = Vec::new();
    let mut all_correct = true;
    for set in 0..sets {
        loads.push(procfs::loadavg_1m());
        for w in schema::gated_names() {
            let r = run_child(w, seed + set as u64, seconds, false)?;
            all_correct &= r.correct && r.failed == 0;
            for (name, (v, _)) in r.metrics {
                values
                    .entry(w)
                    .or_default()
                    .entry(name)
                    .or_default()
                    .push(v);
            }
        }
    }
    loads.push(procfs::loadavg_1m());

    let mut md = String::from("# A/A: the same binary against itself\n\n");
    md.push_str(&format!(
        "{sets} sets of the gated workloads' end-to-end runs (`run.sh aa --sets {sets} --seed {seed} --seconds {seconds}`), \
         set *i* with seed {seed}+*i*; nproc = {nproc}; `loadavg_1m` before each set and after the last: {}.\n\n",
        loads.iter().map(|l| format!("{l:.2}")).collect::<Vec<_>>().join(", ")
    ));
    md.push_str(
        "`IQR/median` is the spread the driver holds each metric to: the distance between the \
         quartiles of the sets' values (Python's `statistics.quantiles(n=4)`) over their median. \
         `max dev` is the largest relative distance of one set's value from that median. The \
         driver wants every spread below a third of the metric's bound, so a bound is at least \
         3 x the largest `IQR/median` of that metric over the gated workloads (and at least 0.10, \
         at most the contract's 0.25); a metric whose spread alone exceeds 0.25 cannot be gated \
         and belongs in the per-layer list. The CPU-bound workloads' values are at reference \
         speed (README.md, *Steadiness*).\n\n",
    );
    md.push_str(
        "| metric | workload | median | max dev | IQR/median |\n|---|---|---:|---:|---:|\n",
    );
    let mut worst: BTreeMap<&str, f64> = BTreeMap::new();
    for (decl, _) in schema::END_TO_END {
        for (w, metrics) in &values {
            let v = &metrics[decl.name];
            let med = stats::median(v);
            let dev = v
                .iter()
                .map(|x| (x - med).abs() / med.abs().max(1e-12))
                .fold(0.0, f64::max);
            let iqr = stats::iqr_share(v);
            let worst_iqr = worst.entry(decl.name).or_default();
            *worst_iqr = worst_iqr.max(iqr);
            md.push_str(&format!(
                "| `{}` | {w} | {med:.4} {} | {dev:.3} | {iqr:.3} |\n",
                decl.name, decl.unit
            ));
        }
    }
    md.push_str(
        "\n| metric | largest IQR/median | bound needed: max(0.10, 3 x that) | bound in `BENCHMARK.json` |\n|---|---:|---:|---:|\n",
    );
    for (decl, declared) in schema::END_TO_END {
        let iqr = worst[decl.name];
        let need = if iqr > 0.25 {
            "none: cannot be gated".to_string()
        } else {
            format!("{:.2}", (3.0 * iqr).clamp(0.10, 0.25))
        };
        md.push_str(&format!(
            "| `{}` | {iqr:.3} | {need} | {declared} |\n",
            decl.name
        ));
    }
    print!("{md}");
    std::fs::write("benchmark/AA.md", &md).map_err(|e| format!("write benchmark/AA.md: {e}"))?;
    println!("# aa: wrote benchmark/AA.md");
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("PROBLEM: a run failed a correctness gate or had failed operations");
        ExitCode::FAILURE
    })
}
