//! The run every closed-loop workload shares: set up (several times, for a
//! steady `setup_s`), measure rounds (with a slice of reference work between
//! every two on the CPU-bound workloads, see `boxspeed`), check the outputs,
//! report. The end-to-end run has tracing, registry and `TimedTransport`
//! off; the traced run measures an untraced and a traced phase on fresh
//! environments, so the tracing overhead is a ratio of two runs and never
//! measured inside one.

use std::time::{Duration, Instant};

use samoa_core::Runtime;

use crate::boxspeed::Bracket;
use crate::load::{self, OpRecord, Round};
use crate::procfs::{self, ThreadSampler};
use crate::report::Report;
use crate::stats;

/// Length of a measured round of the end-to-end run, seconds; a metric's
/// value is the median over the rounds. Short, so that the reference slices
/// between the rounds follow the box's speed closely.
const ROUND_S: f64 = 0.25;
/// Fewest rounds of an end-to-end run, however short (`--smoke`).
const MIN_ROUNDS: usize = 4;
/// Share of a round's length the reference slice after it runs for.
const SLICE_SHARE: f64 = 0.2;
/// Most set-ups of an end-to-end run: a stack that builds in milliseconds
/// needs this many for a median that repeats.
const MAX_SETUPS: usize = 25;
/// Rounds of each phase of the traced run.
const PHASE_ROUNDS: usize = 12;
/// Warm-up operations before the first measured round, so thread stacks,
/// the allocator and the RTO estimators settle.
pub const WARMUP_OPS: usize = 100;

macro_rules! counters {
    ($($(#[$doc:meta])* $field:ident),* $(,)?) => {
        /// Everything the layers count, read from their public accessors
        /// before and after the measured rounds (reading costs the hot path
        /// nothing). Fields a workload has no layer for stay 0.
        #[derive(Debug, Default, Clone, Copy)]
        pub struct Counters {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl std::ops::Sub for Counters {
            type Output = Counters;
            fn sub(self, o: Counters) -> Counters {
                Counters { $($field: self.$field - o.$field,)* }
            }
        }

        impl std::ops::Add for Counters {
            type Output = Counters;
            fn add(self, o: Counters) -> Counters {
                Counters { $($field: self.$field + o.$field,)* }
            }
        }
    };
}

counters! {
    /// `RuntimeStats::computations_spawned`, summed over runtimes.
    comps,
    handler_calls,
    admission_wait_ns,
    /// Bound plus route early releases.
    early_releases,
    wakeups,
    /// `version::parks()`, process-wide.
    parks,
    /// `version::gate_spins()`, process-wide.
    gate_spins,
    /// Datagrams handed to the network backend.
    datagrams,
    net_dropped,
    net_retried,
    net_reconnects,
    relcomm_retransmits,
    /// Fragments the transport stack was asked to move.
    frags,
    xfer_retransmissions,
    xfer_dups,
    xfer_corrupt,
}

impl Counters {
    /// The core-layer counters of `runtimes` plus the process-wide parking
    /// seam counters.
    pub fn of_runtimes<'a>(runtimes: impl IntoIterator<Item = &'a Runtime>) -> Counters {
        let mut c = Counters {
            parks: samoa_core::version::parks(),
            gate_spins: samoa_core::version::gate_spins(),
            ..Counters::default()
        };
        for rt in runtimes {
            let s = rt.stats();
            c.comps += s.computations_spawned;
            c.handler_calls += s.handler_calls;
            c.admission_wait_ns += s.admission_wait.as_nanos() as u64;
            c.early_releases += s.bound_releases + s.route_releases;
            c.wakeups += s.version_wait_wakeups;
        }
        c
    }

    /// Report these counter deltas per completed operation.
    pub fn report(self, ops: usize, r: &mut Report) {
        let d = self;
        let per_op = |x: u64| x as f64 / ops.max(1) as f64;
        r.single("core.comps_per_op", per_op(d.comps), ops);
        r.single("core.handler_calls_per_op", per_op(d.handler_calls), ops);
        r.single(
            "core.admission_wait_us_per_op",
            per_op(d.admission_wait_ns) / 1e3,
            ops,
        );
        r.single("core.parks_per_op", per_op(d.parks), ops);
        r.single("core.gate_spins_per_op", per_op(d.gate_spins), ops);
        r.single("core.wakeups_per_op", per_op(d.wakeups), ops);
        r.single("core.early_releases_per_op", per_op(d.early_releases), ops);
        r.single("net.datagrams_per_op", per_op(d.datagrams), ops);
        r.single("net.dropped_per_op", per_op(d.net_dropped), ops);
        r.single("net.retried_per_op", per_op(d.net_retried), ops);
        r.single("net.reconnects", d.net_reconnects as f64, ops);
        r.single(
            "proto.relcomm.retransmits_per_op",
            per_op(d.relcomm_retransmits),
            ops,
        );
        if d.frags > 0 {
            let per_frag = |x: u64| x as f64 / d.frags as f64;
            let n = d.frags as usize;
            r.single("transport.datagrams_per_frag", per_frag(d.datagrams), n);
            r.single(
                "transport.retransmissions_per_frag",
                per_frag(d.xfer_retransmissions),
                n,
            );
            r.single(
                "transport.dup_suppressed_per_frag",
                per_frag(d.xfer_dups),
                n,
            );
            r.single(
                "transport.corrupt_dropped_per_frag",
                per_frag(d.xfer_corrupt),
                n,
            );
        }
    }
}

/// The verdict of the correctness gates; `Err` names the one that failed.
pub type Gate = Result<(), String>;

/// What a finished run hands back to `main`.
pub struct Outcome {
    pub report: Report,
    pub attempted: u64,
    pub failed: u64,
    pub correct: Gate,
}

/// A workload driven by closed-loop clients.
pub trait Workload {
    /// The system under test plus its clients' state.
    type Env;

    /// Does the processor set this workload's pace? Then it speeds up and
    /// slows down with the box, and its end-to-end metrics are reported at
    /// reference speed (`boxspeed`). A workload that waits on timers does
    /// not, and is reported as measured.
    fn cpu_bound(&self) -> bool;

    /// Build the system, connect, and run the warm-up operations. `traced`
    /// installs a trace sink, registry and `TimedTransport`.
    fn setup(&self, traced: bool) -> Self::Env;

    /// Drive the clients until `deadline`, drain their windows, and return
    /// every operation attempted.
    fn round(&self, env: &mut Self::Env, deadline: Instant) -> Vec<OpRecord>;

    /// Read the layers' counters.
    fn counters(&self, env: &Self::Env) -> Counters;

    /// The correctness gates: run after the last round, on everything the
    /// environment did since `setup`.
    fn verify(&self, env: &mut Self::Env) -> Gate;

    /// Per-layer metrics only this workload has (untraced phase).
    fn layer_report(&self, _env: &Self::Env, _rounds: &[Round], _r: &mut Report) {}

    /// Digest the traced phase: timings from the program's events and the
    /// benchmark's spans, and the trace file. Returns events recorded.
    fn traced_report(&self, _env: &mut Self::Env, _rounds: &[Round], _r: &mut Report) -> u64 {
        0
    }

    /// Direct probes of the layers on this workload's path, each a few
    /// hundred milliseconds.
    fn probes(&self, _budget: Duration, _r: &mut Report) {}
}

/// One set-up: how long it took, and the box's speed around it.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    pub seconds: f64,
    pub box_speed: f64,
}

/// Set the system up repeatedly — at least three times, and up to
/// `MAX_SETUPS` while that takes less than a tenth of the measuring time —
/// keeping the last environment. A CPU-bound workload's set-ups have a
/// reference slice between every two.
fn repeated_setup<W: Workload>(w: &W, seconds: f64) -> (W::Env, Vec<Setup>) {
    let mut bracket = Bracket::open(slice_len(w, seconds));
    let mut setups = Vec::new();
    let began = Instant::now();
    loop {
        let t = Instant::now();
        let env = w.setup(false);
        setups.push(Setup {
            seconds: t.elapsed().as_secs_f64(),
            box_speed: bracket.close_piece(),
        });
        let spent = began.elapsed().as_secs_f64();
        if setups.len() >= 3 && (setups.len() >= MAX_SETUPS || spent > seconds / 10.0) {
            return (env, setups);
        }
    }
}

/// Run the workload unmeasured for a tenth of the measuring time, a second
/// at most: the first second of a fresh process ran up to a third slower
/// than the rest on this box, whatever the operation count of the warm-up.
fn settle<W: Workload>(w: &W, env: &mut W::Env, seconds: f64) {
    w.round(
        env,
        Instant::now() + Duration::from_secs_f64((seconds / 10.0).min(1.0)),
    );
}

fn totals(rounds: &[Round]) -> (u64, u64) {
    let attempted: usize = rounds.iter().map(|r| r.ops.len()).sum();
    let failed: usize = rounds.iter().map(Round::failed).sum();
    (attempted as u64, failed as u64)
}

/// The end-to-end metrics, each the median over rounds: at reference speed
/// when `at_ref` is set (a CPU-bound workload), as measured otherwise.
pub fn report_end_to_end(rounds: &[Round], setups: &[Setup], at_ref: bool, r: &mut Report) {
    let per_round = |raw: fn(&Round) -> f64, reference: fn(&Round) -> f64| {
        load::per_round(rounds, if at_ref { reference } else { raw })
    };
    r.rounds(
        "op_mean_us",
        &per_round(Round::op_mean_us, Round::op_mean_us_at_ref),
    );
    r.rounds(
        "ops_per_s",
        &per_round(Round::ops_per_s, Round::ops_per_s_at_ref),
    );
    let setup_s: Vec<f64> = setups
        .iter()
        .map(|s| s.seconds * if at_ref { s.box_speed } else { 1.0 })
        .collect();
    r.rounds("setup_s", &setup_s);
}

/// The client layer: what the benchmark's own spans around each operation
/// say. Tail percentiles are reported, never gated.
pub fn report_client(rounds: &[Round], r: &mut Report) {
    let ok = || rounds.iter().flat_map(|r| &r.ops).filter(|o| o.ok);
    let n = ok().count();
    let p50 = |f: &dyn Fn(&OpRecord) -> u64| stats::p50_us(ok().map(f).collect());
    r.single(
        "client.submit_p50_us",
        p50(&|o| o.submitted_ns - o.issued_ns),
        n,
    );
    r.single(
        "client.wait_p50_us",
        p50(&|o| o.done_ns.saturating_sub(o.wait_from_ns)),
        n,
    );
    r.rounds(
        "client.op_p50_us",
        &load::per_round(rounds, Round::op_p50_us),
    );
    // The gated end-to-end pair as measured, beside the box's speed: the
    // end-to-end run reports them at reference speed.
    r.rounds(
        "client.op_mean_us",
        &load::per_round(rounds, Round::op_mean_us),
    );
    r.rounds(
        "client.ops_per_s",
        &load::per_round(rounds, Round::ops_per_s),
    );
    r.rounds("proc.box_speed", &load::per_round(rounds, |r| r.box_speed));
    r.rounds(
        "client.unfairness_ratio",
        &load::per_round(rounds, Round::unfairness),
    );
    r.rounds(
        "proc.cpu_us_per_op",
        &load::per_round(rounds, Round::cpu_us_per_op),
    );
    let pooled = load::pooled_latencies_ns(rounds);
    r.single(
        "client.op_p90_us",
        samoa_core::percentile_us(&pooled, 0.90),
        n,
    );
    r.single(
        "client.op_p99_us",
        samoa_core::percentile_us(&pooled, 0.99),
        n,
    );
    let (attempted, failed) = totals(rounds);
    r.single(
        "client.failed_ratio",
        failed as f64 / attempted.max(1) as f64,
        attempted as usize,
    );
    r.rounds(
        "client.outage_ms",
        &load::per_round(rounds, Round::longest_gap_ms),
    );
}

/// What tracing cost: the traced phase against the untraced one (two
/// phases on separate environments — never measured inside one run). The
/// ratio is taken at reference speed where the rounds carry the box's: the
/// phases run seconds apart, and the box does not hold still that long.
pub fn report_trace_cost(untraced: &[Round], traced: &[Round], events: u64, r: &mut Report) {
    let median_of =
        |rounds: &[Round], f: fn(&Round) -> f64| stats::median(&load::per_round(rounds, f));
    let base = median_of(untraced, Round::ops_per_s_at_ref);
    let with = median_of(traced, Round::ops_per_s_at_ref);
    let traced_ops: usize = traced.iter().map(Round::completed).sum();
    r.single(
        "trace.untraced_ops_per_s",
        median_of(untraced, Round::ops_per_s),
        untraced.len(),
    );
    r.single("trace.overhead_ratio", base / with.max(1e-9), traced.len());
    r.single(
        "trace.traced_op_p50_us",
        median_of(traced, Round::op_p50_us),
        traced.len(),
    );
    r.single(
        "trace.events_per_op",
        events as f64 / traced_ops.max(1) as f64,
        traced_ops,
    );
}

/// Process-wide numbers, reported beside every traced run.
pub fn report_proc(
    sampler: &ThreadSampler,
    load_start: f64,
    cpu_s: f64,
    sys_s: f64,
    r: &mut Report,
) {
    r.single("proc.peak_threads", sampler.peak() as f64, 1);
    r.single("proc.peak_rss_mib", procfs::peak_rss_mib(), 1);
    r.single("proc.sys_cpu_share", sys_s / cpu_s.max(1e-9), 1);
    r.single("proc.loadavg_1m_start", load_start, 1);
    r.single("proc.loadavg_1m_end", procfs::loadavg_1m(), 1);
}

/// Print what the human reader wants beside the table: the tail percentile
/// this sample can support, the thread peak, the load.
pub fn print_context(rounds: &[Round], sampler: &ThreadSampler, load_start: f64) {
    let pooled = load::pooled_latencies_ns(rounds);
    match stats::supported_tail(pooled.len()) {
        Some((p, label)) => println!(
            "# tail: op_{label}_us = {:.1} (n = {}; highest percentile with >= 10 samples beyond it)",
            samoa_core::percentile_us(&pooled, p),
            pooled.len()
        ),
        None => println!("# tail: n = {} supports no tail percentile", pooled.len()),
    }
    let series = |f: &dyn Fn(&Round) -> f64| -> String {
        let v: Vec<String> = rounds.iter().map(|r| format!("{:.0}", f(r))).collect();
        v.join(", ")
    };
    println!(
        "# as measured: op_mean_us = {:.1}, ops_per_s = {:.1}, box_speed = {:.3} (medians of {} rounds)",
        stats::median(&load::per_round(rounds, Round::op_mean_us)),
        stats::median(&load::per_round(rounds, Round::ops_per_s)),
        stats::median(&load::per_round(rounds, |r| r.box_speed)),
        rounds.len()
    );
    println!("# rounds: ops_per_s = [{}]", series(&Round::ops_per_s));
    // Only where reference slices ran: elsewhere every round reads 1.
    if rounds.iter().any(|r| r.box_speed != 1.0) {
        println!(
            "# rounds: box_speed % = [{}]",
            series(&|r: &Round| 100.0 * r.box_speed)
        );
    }
    println!("# rounds: op_p50_us = [{}]", series(&Round::op_p50_us));
    let per_client: Vec<String> = rounds
        .iter()
        .map(|r| format!("{:.0?}", r.client_p50s_us()))
        .collect();
    println!("# rounds: per-client p50_us = [{}]", per_client.join(", "));
    println!(
        "# rounds: cpu_us_per_op = [{}]",
        series(&Round::cpu_us_per_op)
    );
    println!(
        "# proc: peak_threads = {}, loadavg_1m = {:.2} -> {:.2}, nproc = {}",
        sampler.peak(),
        load_start,
        procfs::loadavg_1m(),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
}

/// How `seconds` of measuring are cut into rounds: their count and length.
fn round_plan(seconds: f64) -> (usize, Duration) {
    let rounds = ((seconds / ROUND_S).round() as usize).max(MIN_ROUNDS);
    (rounds, Duration::from_secs_f64(seconds / rounds as f64))
}

/// Length of the reference slice between two rounds or set-ups of an
/// end-to-end run: zero on a workload that is reported as measured.
fn slice_len<W: Workload>(w: &W, seconds: f64) -> Duration {
    if w.cpu_bound() {
        round_plan(seconds).1.mul_f64(SLICE_SHARE)
    } else {
        Duration::ZERO
    }
}

/// The end-to-end run: everything off, `seconds` of measured rounds with a
/// reference slice between every two (the slices are not part of `seconds`).
pub fn run_end_to_end<W: Workload>(w: &W, seconds: f64) -> Outcome {
    let sampler = ThreadSampler::start();
    let load_start = procfs::loadavg_1m();
    let (mut env, setups) = repeated_setup(w, seconds);
    settle(w, &mut env, seconds);
    let (n, round_len) = round_plan(seconds);
    let rounds = load::measure_rounds(n, round_len, slice_len(w, seconds), |dl| {
        w.round(&mut env, dl)
    });
    let correct = w.verify(&mut env);
    drop(env);
    let mut report = Report::default();
    report_end_to_end(&rounds, &setups, w.cpu_bound(), &mut report);
    print_context(&rounds, &sampler, load_start);
    let (attempted, failed) = totals(&rounds);
    Outcome {
        report,
        attempted,
        failed,
        correct,
    }
}

/// The traced run: an untraced phase for counters and the overhead base, a
/// traced phase on a fresh environment, then the direct probes.
pub fn run_traced<W: Workload>(w: &W, seconds: f64) -> Outcome {
    let sampler = ThreadSampler::start();
    let load_start = procfs::loadavg_1m();
    let cpu_start = procfs::self_stat();
    let mut report = Report::default();

    let mut env = w.setup(false);
    settle(w, &mut env, seconds / 2.0);
    let before = w.counters(&env);
    let len = Duration::from_secs_f64(seconds * 0.3 / PHASE_ROUNDS as f64);
    let slice = if w.cpu_bound() {
        len.mul_f64(SLICE_SHARE)
    } else {
        Duration::ZERO
    };
    let untraced = load::measure_rounds(PHASE_ROUNDS, len, slice, |dl| w.round(&mut env, dl));
    let ops: usize = untraced.iter().map(Round::completed).sum();
    (w.counters(&env) - before).report(ops, &mut report);
    let mut correct = w.verify(&mut env);
    report_client(&untraced, &mut report);
    w.layer_report(&env, &untraced, &mut report);
    drop(env);

    let mut env = w.setup(true);
    settle(w, &mut env, seconds / 2.0);
    let traced = load::measure_rounds(PHASE_ROUNDS, len, slice, |dl| w.round(&mut env, dl));
    correct = correct.and(w.verify(&mut env));
    let events = w.traced_report(&mut env, &traced, &mut report);
    drop(env);
    report_trace_cost(&untraced, &traced, events, &mut report);

    w.probes(Duration::from_secs_f64(seconds * 0.3), &mut report);

    let cpu_end = procfs::self_stat();
    report_proc(
        &sampler,
        load_start,
        cpu_end.cpu_s() - cpu_start.cpu_s(),
        cpu_end.sys_s() - cpu_start.sys_s(),
        &mut report,
    );
    let (a1, f1) = totals(&untraced);
    let (a2, f2) = totals(&traced);
    Outcome {
        report,
        attempted: a1 + a2,
        failed: f1 + f2,
        correct,
    }
}
