//! `kv-tcp3-failover`: time without service and safety under a coordinator
//! crash, on real sockets.
//!
//! Each trial builds a fresh 3-site TCP cluster with the failure detector
//! on. One thread submits puts to the two survivors-to-be on a fixed
//! schedule (an **open loop**: requests due while no coordinator exists are
//! still issued and are timed from when they were *due*), one thread
//! collects completions, and the main thread crashes site 0 — the round-0
//! consensus coordinator — `CRASH_AT` into the schedule and watches the
//! survivors' views.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use samoa_net::SiteId;
use samoa_proto::{KvPending, KvReply, NodeConfig, StackPolicy};

use crate::harness::{self, Counters, Gate, Outcome, Setup, WARMUP_OPS};
use crate::kv::{self, Backend, KvClient, KvCluster};
use crate::load::{self, OpRecord, Round};
use crate::probes;
use crate::procfs::{self, ThreadSampler};
use crate::report::Report;
use crate::stats;

/// Submission rate of the open loop.
const RATE_PER_S: u32 = 100;
const CRASH_AT: Duration = Duration::from_millis(500);
const TRIAL_LEN: Duration = Duration::from_millis(1500);
const FD_TIMEOUT: Duration = Duration::from_millis(300);
const OP_TIMEOUT: Duration = Duration::from_secs(10);
/// Wall time budgeted per trial (set-up, schedule, convergence, tear down)
/// when deriving the trial count from `--seconds`.
const TRIAL_BUDGET_S: f64 = 2.0;
/// The submitting site rides in the top byte of an open-loop record's tag.
const SITE_SHIFT: u32 = 56;

pub struct Failover {
    pub seed: u64,
}

/// What one trial measured.
struct Trial {
    round: Round,
    setup_s: f64,
    /// Crash → every survivor's view excludes site 0.
    exclusion_ms: f64,
    counters: Counters,
    /// Kept only for a traced trial, whose sinks are read afterwards; an
    /// untraced trial's cluster is torn down before the next one starts.
    cluster: Option<KvCluster>,
    correct: Gate,
}

/// Site and request id of an open-loop record.
fn origin(o: &OpRecord) -> (u16, u64) {
    (
        (o.tag >> SITE_SHIFT) as u16,
        o.tag & ((1 << SITE_SHIFT) - 1),
    )
}

impl Failover {
    fn trial(&self, index: usize, traced: bool) -> Trial {
        let setup_start = Instant::now();
        let node_cfg = NodeConfig {
            enable_fd: true,
            fd_timeout: FD_TIMEOUT,
            ..NodeConfig::with_policy(StackPolicy::Basic)
        };
        let seed = self.seed.wrapping_add(index as u64);
        let mut cluster = KvCluster::build(Backend::Tcp, 3, seed, node_cfg, traced);
        let epoch = cluster.epoch;
        // Warm-up on the two sites that will survive.
        let mut warm: Vec<KvClient> = [1, 2]
            .iter()
            .map(|&s| KvClient::new(Arc::clone(cluster.node(s)), s - 1, seed))
            .collect();
        while warm.iter().map(|c| c.submitted).sum::<usize>() < WARMUP_OPS / 2 {
            let until = Instant::now() + Duration::from_millis(20);
            kv::clients_round(&mut warm, epoch, until, 1);
        }
        let setup_s = setup_start.elapsed().as_secs_f64();

        let survivors = [Arc::clone(cluster.node(1)), Arc::clone(cluster.node(2))];
        let count = (TRIAL_LEN.as_secs_f64() * f64::from(RATE_PER_S)) as usize;
        let before = cluster.counters();
        let cpu_before = procfs::self_stat();
        let t0 = Instant::now() + Duration::from_millis(5);
        let acked = Mutex::new(Vec::<(u16, u64, KvReply)>::new());
        let mut exclusion_ms = f64::NAN;
        let ops = std::thread::scope(|scope| {
            let generator = scope.spawn(|| {
                load::open_loop(
                    epoch,
                    t0,
                    Duration::from_secs(1) / RATE_PER_S,
                    count,
                    |i| {
                        let node = &survivors[i % 2];
                        let p = node.kv_put(format!("key-{}", i % 32), format!("t{index}-o{i}"));
                        let tag = (u64::from(node.site.0) << SITE_SHIFT) | p.req();
                        (0, tag, (node.site.0, p))
                    },
                    |(site, p): (u16, KvPending)| {
                        let req = p.req();
                        p.wait(OP_TIMEOUT)
                            .map(|reply| acked.lock().push((site, req, reply)))
                            .is_some()
                    },
                )
            });
            // Main thread: inject the fault, then watch the views.
            std::thread::sleep((t0 + CRASH_AT).saturating_duration_since(Instant::now()));
            let crash_at = Instant::now();
            cluster.crash(0);
            while crash_at.elapsed() < OP_TIMEOUT {
                if cluster
                    .live()
                    .all(|n| !n.current_view().contains(SiteId(0)))
                {
                    exclusion_ms = crash_at.elapsed().as_secs_f64() * 1e3;
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            generator.join().expect("generator thread")
        });
        let round = Round::new(t0.elapsed(), cpu_before, procfs::self_stat(), ops);
        let counters = cluster.counters() - before;

        // Gates: the survivors applied everything submitted to them, agree,
        // and hold every acknowledged write with the reply it was given.
        let submitted = warm.iter().map(|c| c.submitted).sum::<usize>()
            + round.ops.iter().filter(|o| o.kind != load::REFUSED).count();
        let acked = acked.into_inner();
        let correct = if exclusion_ms.is_nan() {
            Err("survivors never excluded the crashed coordinator".to_string())
        } else {
            kv::verify_kv(
                &cluster,
                submitted,
                kv::acked_of(&warm).chain(acked.iter().map(|(s, r, reply)| (*s, *r, reply))),
            )
        };
        Trial {
            round,
            setup_s,
            exclusion_ms,
            counters,
            cluster: traced.then_some(cluster),
            correct,
        }
    }
}

/// Trials that fit `seconds`, made odd so the median is a trial and not the
/// mean of two (nine at the benchmark's twenty seconds).
fn trial_count(seconds: f64) -> usize {
    (((seconds / TRIAL_BUDGET_S) as usize).max(1) - 1) | 1
}

fn rounds_of(trials: &[Trial]) -> Vec<Round> {
    trials.iter().map(|t| t.round.clone()).collect()
}

fn finish(report: Report, trials: &[Trial]) -> Outcome {
    let attempted: usize = trials.iter().map(|t| t.round.ops.len()).sum();
    let failed: usize = trials.iter().map(|t| t.round.failed()).sum();
    Outcome {
        report,
        attempted: attempted as u64,
        failed: failed as u64,
        correct: trials.iter().try_for_each(|t| t.correct.clone()),
    }
}

/// End-to-end run: `trial_count` trials, every metric the median over them.
pub fn run_end_to_end(w: &Failover, seconds: f64) -> Outcome {
    let sampler = ThreadSampler::start();
    let load_start = procfs::loadavg_1m();
    let trials: Vec<Trial> = (0..trial_count(seconds))
        .map(|i| w.trial(i, false))
        .collect();
    let rounds = rounds_of(&trials);
    // Paced by the submission schedule and the failure detector's timeout,
    // not by the processor: reported as measured.
    let setups: Vec<Setup> = trials
        .iter()
        .map(|t| Setup {
            seconds: t.setup_s,
            box_speed: 1.0,
        })
        .collect();
    let mut report = Report::default();
    harness::report_end_to_end(&rounds, &setups, false, &mut report);
    harness::print_context(&rounds, &sampler, load_start);
    println!(
        "# failover: outage_ms = {:.1}, fd.exclusion_ms = {:.1} (medians of {} trials)",
        stats::median(&load::per_round(&rounds, Round::longest_gap_ms)),
        stats::median(&trials.iter().map(|t| t.exclusion_ms).collect::<Vec<_>>()),
        trials.len()
    );
    finish(report, &trials)
}

/// Traced run: untraced trials for the counters and the client layer, one
/// traced trial for the program's view, then the probes.
pub fn run_traced(w: &Failover, seconds: f64) -> Outcome {
    let sampler = ThreadSampler::start();
    let load_start = procfs::loadavg_1m();
    let cpu_start = procfs::self_stat();
    let mut report = Report::default();

    let n = trial_count(seconds * 0.7);
    let mut trials: Vec<Trial> = (0..n).map(|i| w.trial(i, false)).collect();
    let rounds = rounds_of(&trials);
    let ops: usize = rounds.iter().map(Round::completed).sum();
    trials
        .iter()
        .map(|t| t.counters)
        .fold(Counters::default(), |a, c| a + c)
        .report(ops, &mut report);
    harness::report_client(&rounds, &mut report);
    kv::report_op_kinds(&rounds, &mut report);

    let traced = w.trial(n, true);
    let events = kv::traced_kv_report(
        "kv-tcp3-failover",
        traced
            .cluster
            .as_ref()
            .expect("traced trial keeps its cluster"),
        std::slice::from_ref(&traced.round),
        &mut report,
        origin,
    );
    harness::report_trace_cost(
        &rounds,
        std::slice::from_ref(&traced.round),
        events,
        &mut report,
    );
    trials.push(traced);

    let exclusion: Vec<f64> = trials.iter().map(|t| t.exclusion_ms).collect();
    report.rounds("proto.fd.exclusion_ms", &exclusion);
    let lateness: Vec<u64> = trials
        .iter()
        .flat_map(|t| &t.round.ops)
        .map(|o| o.issued_ns.saturating_sub(o.start_ns))
        .collect();
    let n_late = lateness.len();
    report.single(
        "client.gen_lateness_p99_us",
        samoa_core::percentile_us(&stats::sorted(lateness), 0.99),
        n_late,
    );

    probes::proto_codecs(Duration::from_secs_f64(seconds * 0.05), &mut report);
    probes::net_tcp(Duration::from_secs_f64(seconds * 0.05), &mut report);
    let cpu_end = procfs::self_stat();
    harness::report_proc(
        &sampler,
        load_start,
        cpu_end.cpu_s() - cpu_start.cpu_s(),
        cpu_end.sys_s() - cpu_start.sys_s(),
        &mut report,
    );
    finish(report, &trials)
}
