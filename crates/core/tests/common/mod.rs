//! Shared helpers for the runtime semantics tests.
//!
//! Not every test binary uses every helper.
#![allow(dead_code)]

use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use samoa_core::prelude::*;
use samoa_core::CompId;

/// A stack of `n` independent microprotocols. Protocol `i` has one handler
/// bound to event `i`; the handler performs a deliberately racy
/// read-sleep-write on its protocol's visit log: it reads the log length in
/// one state access, sleeps for the number of milliseconds given in the
/// event payload, then appends `(comp_id, old_len)` in a second state
/// access. Under an isolating policy `old_len` always equals the log's
/// length at append time; under `Unsync` two overlapping computations can
/// both read the same `old_len` — a lost update.
pub struct ConflictStack {
    pub rt: Runtime,
    pub protocols: Vec<ProtocolId>,
    pub events: Vec<EventType>,
    /// Per protocol: the visit log `(comp, observed_len)`.
    pub logs: Vec<ProtocolState<Vec<(u64, usize)>>>,
}

pub fn conflict_stack(n: usize) -> ConflictStack {
    conflict_stack_with(n, RuntimeConfig::recording())
}

/// [`conflict_stack`] under an explicit runtime configuration.
pub fn conflict_stack_with(n: usize, config: RuntimeConfig) -> ConflictStack {
    let mut b = StackBuilder::new();
    let mut protocols = Vec::new();
    let mut events = Vec::new();
    let mut logs = Vec::new();
    for i in 0..n {
        let p = b.protocol(&format!("P{i}"));
        let e = b.event(&format!("E{i}"));
        let log = ProtocolState::new(p, Vec::<(u64, usize)>::new());
        {
            let log = log.clone();
            b.bind(e, p, &format!("h{i}"), move |ctx, ev| {
                let sleep_ms: u64 = *ev.expect::<u64>(e)?;
                let old_len = log.with(ctx, |l| l.len());
                if sleep_ms > 0 {
                    std::thread::sleep(Duration::from_millis(sleep_ms));
                }
                log.with(ctx, |l| l.push((ctx.comp_id(), old_len)));
                Ok(())
            });
        }
        protocols.push(p);
        events.push(e);
        logs.push(log);
    }
    let rt = Runtime::with_config(b.build(), config);
    ConflictStack {
        rt,
        protocols,
        events,
        logs,
    }
}

impl ConflictStack {
    /// Did every append observe a consistent length (no lost updates)?
    pub fn no_lost_updates(&self) -> bool {
        self.logs
            .iter()
            .all(|log| log.read(|l| l.iter().enumerate().all(|(i, &(_, seen))| seen == i)))
    }

    /// Visit order of computations on protocol `i`.
    pub fn visit_order(&self, i: usize) -> Vec<u64> {
        self.logs[i].read(|l| l.iter().map(|&(c, _)| c).collect())
    }
}

/// Join a handle, panicking (with a clear message) if it takes longer than
/// `timeout` — turns an accidental deadlock into a test failure instead of a
/// hung test binary.
pub fn join_within(handle: CompHandle, timeout: Duration) -> Result<()> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(handle.join());
    });
    rx.recv_timeout(timeout)
        .unwrap_or_else(|_| panic!("computation did not complete within {timeout:?}"))
}

/// A one-way gate between threads: opened once, waited for with a
/// deadline. A waiter blocks on a condition variable, off the CPU, until
/// the gate opens.
#[derive(Debug, Default)]
pub struct Latch {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Latch {
    /// Open the gate and wake every waiter.
    pub fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }

    /// Whether the gate is open.
    pub fn is_open(&self) -> bool {
        *self.open.lock().unwrap()
    }

    /// Block until the gate is open or `timeout` elapses; returns whether
    /// it opened.
    pub fn wait(&self, timeout: Duration) -> bool {
        let open = self.open.lock().unwrap();
        let (open, _) = self
            .cv
            .wait_timeout_while(open, timeout, |open| !*open)
            .unwrap();
        *open
    }
}

/// Yield until `waiter` is listed in `rt.waiters()` — parked in admission,
/// past the probe — or `timeout` elapses; returns whether it was listed.
/// Only a traced runtime lists anyone.
pub fn wait_parked(rt: &Runtime, waiter: CompId, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while !rt.waiters().edges.iter().any(|e| e.waiter == waiter) {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

/// A fresh shared latch, closed.
pub fn latch() -> Arc<Latch> {
    Arc::new(Latch::default())
}

/// A chain of no-op stages, one microprotocol each: stage `i`'s handler
/// bumps its counter and *asynchronously* triggers stage `i + 1`, so a
/// finished stage is releasable under `VCAbound`/`VCAroute` (Rule 4).
pub struct ChainStack {
    pub rt: Runtime,
    pub protocols: Vec<ProtocolId>,
    pub handlers: Vec<HandlerId>,
    /// The entry event (stage 0).
    pub entry: EventType,
}

/// Build a chain of `stages` stages, traced into `sink` if there is one.
pub fn chain_stack(stages: usize, sink: Option<Arc<dyn TraceSink>>) -> ChainStack {
    let mut b = StackBuilder::new();
    let protocols: Vec<ProtocolId> = (0..stages).map(|i| b.protocol(&format!("S{i}"))).collect();
    let events: Vec<EventType> = (0..stages).map(|i| b.event(&format!("Stage{i}"))).collect();
    let mut handlers = Vec::new();
    for i in 0..stages {
        let visits = ProtocolState::new(protocols[i], 0u64);
        let next = events.get(i + 1).copied();
        handlers.push(b.bind(
            events[i],
            protocols[i],
            &format!("stage{i}"),
            move |ctx, ev| {
                visits.with(ctx, |v| *v += 1);
                if let Some(next) = next {
                    ctx.async_trigger(next, ev.clone())?;
                }
                Ok(())
            },
        ));
    }
    let stack = b.build();
    ChainStack {
        rt: match sink {
            Some(s) => Runtime::with_trace(stack, RuntimeConfig::default(), s),
            None => Runtime::new(stack),
        },
        protocols,
        handlers,
        entry: events[0],
    }
}

impl ChainStack {
    /// The chain routing pattern (stage 0 as root).
    pub fn route_pattern(&self) -> RoutePattern {
        let mut pat = RoutePattern::new().root(self.handlers[0]);
        for w in self.handlers.windows(2) {
            pat = pat.edge(w[0], w[1]);
        }
        pat
    }
}
