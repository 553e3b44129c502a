//! The runtime-only workloads: `samoa-core` with no network and no protocol
//! stack on top, used two opposite ways.
//!
//! * `rt-spawn-null` — null handlers, disjoint declarations: what a
//!   computation costs from `spawn` to `join` when nothing conflicts.
//! * `rt-pipeline-io` — four sleeping stages under `isolated route`: spawn
//!   cost is negligible, admission waits, the park seam and Rule-4 early
//!   release do all the work.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use samoa_core::prelude::*;
use samoa_core::{RoutePattern, TraceEvent};

use crate::harness::{Counters, Gate, Workload, WARMUP_OPS};
use crate::lifecycle::{comp_phases, handler_spans, report_comp_phases};
use crate::load::{self, OpRecord, Round, CLIENTS};
use crate::probes;
use crate::report::Report;
use crate::spans::{op_id, write_trace_file, Span};

/// Microprotocols of the flat stack.
const FLAT_PROTOCOLS: usize = 8;
/// Stages of the pipeline and what each one "does".
const STAGES: usize = 4;
const STAGE_SLEEP: Duration = Duration::from_micros(400);
/// Outstanding computations per injector on the pipeline.
const PIPELINE_WINDOW: usize = 4;
/// Most computations whose spans go into the trace file.
const TRACE_FILE_OPS: usize = 2000;

/// A stack of microprotocols with one counting handler each, plus the
/// per-protocol visit counts the generated plan expects.
pub struct Stack {
    pub rt: Runtime,
    pub protocols: Vec<ProtocolId>,
    pub events: Vec<EventType>,
    handlers: Vec<HandlerId>,
    counters: Vec<ProtocolState<u64>>,
    sink: Option<Arc<TraceBuffer>>,
    epoch: Instant,
}

/// `n` independent microprotocols; handler `i` only counts its visits.
pub fn flat_stack(n: usize, traced: bool) -> Stack {
    build_stack(n, traced, |_, _| None, Duration::ZERO)
}

/// `n` stages; stage `i` sleeps, counts, and asynchronously triggers stage
/// `i + 1` (asynchronous hand-off is what lets `isolated route` release a
/// finished stage early).
pub fn pipeline_stack(n: usize, work: Duration, traced: bool) -> Stack {
    build_stack(n, traced, |events, i| events.get(i + 1).copied(), work)
}

fn build_stack(
    n: usize,
    traced: bool,
    next: impl Fn(&[EventType], usize) -> Option<EventType>,
    work: Duration,
) -> Stack {
    let mut b = StackBuilder::new();
    let protocols: Vec<ProtocolId> = (0..n).map(|i| b.protocol(&format!("P{i}"))).collect();
    let events: Vec<EventType> = (0..n).map(|i| b.event(&format!("E{i}"))).collect();
    let counters: Vec<ProtocolState<u64>> = protocols
        .iter()
        .map(|&p| ProtocolState::new(p, 0u64))
        .collect();
    let handlers = (0..n)
        .map(|i| {
            let c = counters[i].clone();
            let next = next(&events, i);
            b.bind(events[i], protocols[i], &format!("h{i}"), move |ctx, ev| {
                if !work.is_zero() {
                    std::thread::sleep(work);
                }
                c.with(ctx, |v| *v += 1);
                if let Some(next) = next {
                    ctx.async_trigger(next, ev.clone())?;
                }
                Ok(())
            })
        })
        .collect();
    let sink = traced.then(TraceBuffer::new);
    let rt = match &sink {
        Some(s) => Runtime::with_trace(
            b.build(),
            RuntimeConfig::default(),
            Arc::clone(s) as Arc<dyn TraceSink>,
        ),
        None => Runtime::new(b.build()),
    };
    Stack {
        rt,
        protocols,
        events,
        handlers,
        counters,
        sink,
        epoch: Instant::now(),
    }
}

impl Stack {
    /// The chain routing pattern, stage 0 as root.
    pub fn chain_pattern(&self) -> RoutePattern {
        let mut pat = RoutePattern::new().root(self.handlers[0]);
        for w in self.handlers.windows(2) {
            pat = pat.edge(w[0], w[1]);
        }
        pat
    }

    fn visits(&self) -> Vec<u64> {
        self.counters.iter().map(ProtocolState::snapshot).collect()
    }

    /// Digest a traced phase: the per-computation phase budget from the
    /// lifecycle events, and the trace file (the injectors' spawn→join
    /// spans around the runtime's handler executions).
    fn traced_report(&self, workload: &str, rounds: &[Round], r: &mut Report) -> u64 {
        let events: Vec<TraceEvent> = self.sink.as_ref().expect("traced stack").drain();
        report_comp_phases(comp_phases(&events), r);
        r.single("trace.dropped_events", 0.0, 1);
        // The runtime was built right before `epoch` was taken, so its event
        // clock and the injectors' clock differ by microseconds at most. The
        // sink also holds the warm-up: count and draw the measured window.
        let measured = || rounds.iter().flat_map(|r| &r.ops);
        let from_ns = measured().map(|o| o.start_ns).min().unwrap_or(0);
        let to_ns = measured().map(|o| o.done_ns).max().unwrap_or(0);
        let recorded = events
            .iter()
            .filter(|e| (from_ns..=to_ns).contains(&e.t_ns))
            .count()
            + measured().count();
        let mut spans: Vec<Span> = measured()
            .take(TRACE_FILE_OPS)
            .map(|o| Span {
                name: "client.op",
                parent: None,
                op: op_id(0, o.tag),
                pid: 0,
                tid: 10 + u32::from(o.client),
                start_ns: o.start_ns,
                end_ns: o.done_ns,
            })
            .collect();
        let until_ns = spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
        spans.extend(
            handler_spans(&events, 0, 0).filter(|s| s.start_ns >= from_ns && s.end_ns <= until_ns),
        );
        write_trace_file(workload, &spans, &[]);
        recorded as u64
    }
}

/// One injector thread's generator state.
struct Injector {
    id: u8,
    rng: StdRng,
    /// Visits per protocol its computations were told to make.
    planned: Vec<u64>,
    errors: u64,
}

fn injectors(n: usize, seed: u64, protocols: usize) -> Vec<Injector> {
    assert!(n <= CLIENTS);
    (0..n)
        .map(|i| Injector {
            id: i as u8,
            rng: StdRng::seed_from_u64(seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            planned: vec![0; protocols],
            errors: 0,
        })
        .collect()
}

/// Run every injector for one round.
fn injectors_round(
    injectors: &mut [Injector],
    run: impl Fn(&mut Injector) -> Vec<OpRecord> + Sync,
) -> Vec<OpRecord> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = injectors
            .iter_mut()
            .map(|inj| {
                let run = &run;
                scope.spawn(move || run(inj))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("injector thread"))
            .collect()
    })
}

/// The `rt-*` correctness gates: no computation returned `Err`, and every
/// protocol was visited exactly as often as the generated plan says.
fn verify_visits(stack: &Stack, injectors: &[Injector]) -> Gate {
    stack.rt.quiesce();
    let errors: u64 = injectors.iter().map(|i| i.errors).sum();
    if errors > 0 {
        return Err(format!("{errors} computations returned Err"));
    }
    let planned: Vec<u64> = (0..stack.protocols.len())
        .map(|p| injectors.iter().map(|i| i.planned[p]).sum())
        .collect();
    let visits = stack.visits();
    if visits != planned {
        return Err(format!(
            "per-protocol visits {visits:?} differ from the plan {planned:?}"
        ));
    }
    Ok(())
}

pub struct RtEnv {
    stack: Stack,
    injectors: Vec<Injector>,
}

/// `rt-spawn-null`: one injector loops `spawn(..).join()` on computations
/// that declare (`Decl::Basic`) and visit two of the eight microprotocols, so
/// no computation ever waits for another. (One injector, not two: the run is
/// pinned to one CPU, where a second injector adds no load — the rate is the
/// same — only a second scheduling pattern for the kernel to flip between.)
pub struct SpawnNull {
    pub seed: u64,
}

impl SpawnNull {
    fn run_injector(stack: &Stack, inj: &mut Injector, deadline: Instant) -> Vec<OpRecord> {
        let Injector {
            id,
            rng,
            planned,
            errors,
        } = inj;
        let mut n = 0u64;
        load::closed_loop(
            *id,
            stack.epoch,
            deadline,
            1,
            || {
                let a = rng.gen_range(0..FLAT_PROTOCOLS);
                let b = (a + rng.gen_range(1..FLAT_PROTOCOLS)) % FLAT_PROTOCOLS;
                planned[a] += 1;
                planned[b] += 1;
                n += 1;
                let (ea, eb) = (stack.events[a], stack.events[b]);
                let h = stack.rt.spawn(
                    Decl::Basic(&[stack.protocols[a], stack.protocols[b]]),
                    move |ctx| {
                        ctx.trigger(ea, EventData::empty())?;
                        ctx.trigger(eb, EventData::empty())
                    },
                );
                (0, (u64::from(*id) << 40) | n, h)
            },
            |h: CompHandle| {
                let ok = h.join().is_ok();
                *errors += u64::from(!ok);
                ok
            },
        )
    }
}

impl Workload for SpawnNull {
    type Env = RtEnv;

    fn cpu_bound(&self) -> bool {
        true
    }

    fn setup(&self, traced: bool) -> RtEnv {
        let mut env = RtEnv {
            stack: flat_stack(FLAT_PROTOCOLS, traced),
            injectors: injectors(1, self.seed, FLAT_PROTOCOLS),
        };
        warm_up(&mut env, |env, dl| self.round(env, dl));
        env
    }

    fn round(&self, env: &mut RtEnv, deadline: Instant) -> Vec<OpRecord> {
        let stack = &env.stack;
        injectors_round(&mut env.injectors, |inj| {
            SpawnNull::run_injector(stack, inj, deadline)
        })
    }

    fn counters(&self, env: &RtEnv) -> Counters {
        Counters::of_runtimes([&env.stack.rt])
    }

    fn verify(&self, env: &mut RtEnv) -> Gate {
        verify_visits(&env.stack, &env.injectors)
    }

    fn traced_report(&self, env: &mut RtEnv, rounds: &[Round], r: &mut Report) -> u64 {
        env.stack.traced_report("rt-spawn-null", rounds, r)
    }

    fn probes(&self, budget: Duration, r: &mut Report) {
        probes::core(budget, r);
    }
}

/// At least `WARMUP_OPS` computations through `round`, not measured.
fn warm_up(env: &mut RtEnv, round: impl Fn(&mut RtEnv, Instant) -> Vec<OpRecord>) {
    let mut done = 0;
    while done < WARMUP_OPS {
        done += round(env, Instant::now() + Duration::from_millis(5)).len();
    }
}

/// `rt-pipeline-io`: each injector keeps four computations outstanding,
/// every one walking all four sleeping stages under `Decl::Route`.
pub struct PipelineIo {
    pub seed: u64,
}

/// Drive `stack` as a pipeline under `decl_of` until `deadline`.
fn run_pipeline_injector(
    stack: &Stack,
    inj: &mut Injector,
    deadline: Instant,
    pattern: Option<&RoutePattern>,
) -> Vec<OpRecord> {
    let Injector {
        id,
        planned,
        errors,
        ..
    } = inj;
    let entry = stack.events[0];
    let mut n = 0u64;
    load::closed_loop(
        *id,
        stack.epoch,
        deadline,
        PIPELINE_WINDOW,
        || {
            planned.iter_mut().for_each(|p| *p += 1);
            n += 1;
            let body = move |ctx: &Ctx| ctx.trigger(entry, EventData::empty());
            let h = match pattern {
                Some(p) => stack.rt.spawn(Decl::Route(p), body),
                None => stack.rt.spawn(Decl::Basic(&stack.protocols), body),
            };
            (0, (u64::from(*id) << 40) | n, h)
        },
        |h: CompHandle| {
            let ok = h.join().is_ok();
            *errors += u64::from(!ok);
            ok
        },
    )
}

impl PipelineIo {
    fn round_with(env: &mut RtEnv, deadline: Instant, route: bool) -> Vec<OpRecord> {
        let stack = &env.stack;
        let pattern = route.then(|| stack.chain_pattern());
        injectors_round(&mut env.injectors, |inj| {
            run_pipeline_injector(stack, inj, deadline, pattern.as_ref())
        })
    }

    /// Throughput of the same pipeline under `Decl::Basic` (every
    /// computation holds all four stages until it completes), for
    /// `core.pipeline.speedup_vs_basic`.
    fn basic_ops_per_s(&self, budget: Duration) -> f64 {
        let mut env = RtEnv {
            stack: pipeline_stack(STAGES, STAGE_SLEEP, false),
            injectors: injectors(CLIENTS, self.seed, STAGES),
        };
        let rounds = load::measure_rounds(1, budget, Duration::ZERO, |dl| {
            PipelineIo::round_with(&mut env, dl, false)
        });
        rounds[0].ops_per_s()
    }
}

impl Workload for PipelineIo {
    type Env = RtEnv;

    /// Sixteen hundred microseconds of sleep per computation set the pace.
    fn cpu_bound(&self) -> bool {
        false
    }

    fn setup(&self, traced: bool) -> RtEnv {
        let mut env = RtEnv {
            stack: pipeline_stack(STAGES, STAGE_SLEEP, traced),
            injectors: injectors(CLIENTS, self.seed, STAGES),
        };
        warm_up(&mut env, |env, dl| self.round(env, dl));
        env
    }

    fn round(&self, env: &mut RtEnv, deadline: Instant) -> Vec<OpRecord> {
        PipelineIo::round_with(env, deadline, true)
    }

    fn counters(&self, env: &RtEnv) -> Counters {
        Counters::of_runtimes([&env.stack.rt])
    }

    fn verify(&self, env: &mut RtEnv) -> Gate {
        verify_visits(&env.stack, &env.injectors)
    }

    fn layer_report(&self, _env: &RtEnv, rounds: &[Round], r: &mut Report) {
        let route = crate::stats::median(&load::per_round(rounds, Round::ops_per_s));
        let basic = self.basic_ops_per_s(Duration::from_millis(400));
        r.single("core.pipeline.speedup_vs_basic", route / basic.max(1e-9), 1);
    }

    fn traced_report(&self, env: &mut RtEnv, rounds: &[Round], r: &mut Report) -> u64 {
        env.stack.traced_report("rt-pipeline-io", rounds, r)
    }

    fn probes(&self, budget: Duration, r: &mut Report) {
        probes::core(budget, r);
    }
}
