//! The ingress rule (`node.rs` module docs, "Ingress"): which thread runs
//! an external event's computation.
//!
//! Under `Serial`, `Basic` and `TwoPhase` it is the thread that brought the
//! event — the client calling `kv_put`, whoever called the transport's
//! delivery callback, the timer thread — and the entry point returns with
//! the computation complete. Under `Unsync`, `Bound` and `Route`, and under
//! any policy once a scheduling hook is installed, it is a `samoa-worker`.
//!
//! Thread identity is read where a handler runs: the trace sink's `event`
//! is called on the emitting thread, so a sink that notes
//! `std::thread::current()` at every `HandlerEnter` is a handler recording
//! its thread. Nothing here sleeps to let something happen; the tests
//! either read state the entry point guarantees on return or block on the
//! sink's condition variable.
//!
//! The executor's worker cache is process-wide and the worker count is one
//! of the things asserted, so the tests of this binary run one at a time
//! (`SERIAL`) whatever `RUST_TEST_THREADS` says.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use samoa_core::sched::NoopHook;
use samoa_core::{Registry, SchedHook, TraceEvent, TraceKind, TraceSink};
use samoa_net::{NetConfig, ProtoClock, SimNet};
use samoa_proto::{Cluster, Node, NodeConfig, Observe, StackPolicy, TcpCluster};

const INLINE: [StackPolicy; 3] = [
    StackPolicy::Serial,
    StackPolicy::Basic,
    StackPolicy::TwoPhase,
];
const OVERLAPPING: [StackPolicy; 3] = [StackPolicy::Unsync, StackPolicy::Bound, StackPolicy::Route];

const PATIENCE: Duration = Duration::from_secs(60);

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed test must not take the rest of the file with it.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The threads handlers have run on since the last [`Threads::take`].
#[derive(Default)]
struct Threads {
    seen: Mutex<HashMap<ThreadId, String>>,
    cv: Condvar,
}

impl TraceSink for Threads {
    fn event(&self, ev: TraceEvent) {
        if let TraceKind::HandlerEnter { .. } = ev.kind {
            let t = thread::current();
            let name = t.name().unwrap_or("").to_string();
            self.seen.lock().unwrap().insert(t.id(), name);
            self.cv.notify_all();
        }
    }
}

impl Threads {
    fn take(&self) -> HashMap<ThreadId, String> {
        std::mem::take(&mut *self.seen.lock().unwrap())
    }

    /// Block until a handler has run on a thread called `name`.
    fn wait_for(&self, name: &str) {
        let seen = self.seen.lock().unwrap();
        let (_seen, timeout) = self
            .cv
            .wait_timeout_while(seen, PATIENCE, |s| !s.values().any(|n| n == name))
            .unwrap();
        assert!(!timeout.timed_out(), "no handler ever ran on {name:?}");
    }
}

fn observed(sink: &Arc<Threads>) -> Observe {
    Observe::traced(Arc::clone(sink) as Arc<dyn TraceSink>)
}

/// A two-site cluster on a manual network and a manual clock, so no timer
/// threads: every computation is one this test's own calls bring.
fn manual_pair(
    policy: StackPolicy,
    hook: Option<Arc<dyn SchedHook>>,
    sink: &Arc<Threads>,
) -> Cluster {
    let cfg = NodeConfig {
        policy,
        clock: ProtoClock::manual(),
        ..NodeConfig::default()
    };
    let net = SimNet::new_manual(2, NetConfig::fast(1));
    Cluster::new_observed_on(net, cfg, hook, observed(sink))
}

/// Has every computation this node was ever given completed?
fn idle(node: &Node) -> bool {
    let s = node.runtime().stats();
    s.computations_completed == s.computations_spawned
}

/// Threads called `name` alive in this process.
fn threads(name: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == name)
        .count()
}

/// `samoa-worker` threads alive in this process.
fn workers() -> usize {
    threads("samoa-worker")
}

#[test]
fn an_inline_policy_runs_the_computation_on_the_thread_that_brought_it() {
    let _serial = serial();
    for policy in INLINE {
        let sink = Arc::new(Threads::default());
        let c = manual_pair(policy, None, &sink);
        let me = thread::current().id();

        // A client request: the caller's thread, complete on return.
        let pending = c.node(0).kv_put("k", "v");
        assert_eq!(
            sink.take().into_keys().collect::<Vec<_>>(),
            [me],
            "{policy}: kv_put"
        );
        assert_eq!(c.node(0).runtime().stats().computations_spawned, 1);
        assert!(idle(c.node(0)), "{policy}: kv_put returned mid-computation");
        assert!(c.net().pending() > 0, "{policy}: the request was not cast");

        // A datagram: the thread that calls the transport's callback — on a
        // manual network whoever pumps — and `pump_one` returns with the
        // computation complete. No quiesce anywhere in this test.
        let net = c.net();
        let pumper = thread::Builder::new()
            .name("pumper".into())
            .spawn(move || {
                assert!(net.pump_one());
                thread::current().id()
            })
            .expect("spawn pumper");
        let pumper = pumper.join().expect("pumper");
        assert_eq!(
            sink.take().into_keys().collect::<Vec<_>>(),
            [pumper],
            "{policy}: datagram"
        );
        assert!(
            c.nodes().iter().all(|n| idle(n)),
            "{policy}: pump_one returned mid-computation"
        );

        // A tick: whoever injects it. On a manual clock that is all there
        // is (`Alarm::on`); the timer thread's turn is below.
        assert_eq!(threads("node-0-timer"), 0, "{policy}: a manual timer");
        c.node(1).inject_retransmit_tick();
        assert_eq!(
            sink.take().into_keys().collect::<Vec<_>>(),
            [me],
            "{policy}: tick"
        );
        assert!(idle(c.node(1)), "{policy}: the tick returned early");

        // The commit itself, pumped from here: still nobody else's thread.
        while c.net().pump_one() {}
        assert!(pending.wait(Duration::ZERO).is_some(), "{policy}: no reply");
        assert_eq!(
            sink.take().into_keys().collect::<Vec<_>>(),
            [me],
            "{policy}: commit"
        );
        assert!(c.nodes().iter().all(|n| n.external_errors() == 0));
    }
}

#[test]
fn the_timer_and_the_delivery_thread_are_entry_threads_too() {
    let _serial = serial();
    for policy in INLINE {
        let sink = Arc::new(Threads::default());
        let net = SimNet::new(2, NetConfig::fast(2));
        let cfg = NodeConfig::with_policy(policy);
        let c = Cluster::new_observed_on(net, cfg, None, observed(&sink));
        c.node(0).rbcast("ping");
        sink.wait_for("simnet-delivery");
        // Site 1 has nothing to send back that its ack could ride on: its
        // timer sends the ack once it has waited long enough.
        sink.wait_for("node-1-timer");
        assert_eq!(threads("node-1-timer"), 1, "{policy}: one timer per node");
        c.settle();
        let me = thread::current();
        let entry = [
            me.name().expect("test thread is named"),
            "simnet-delivery",
            "node-0-timer",
            "node-1-timer",
        ];
        for name in sink.take().into_values() {
            assert!(
                entry.contains(&name.as_str()),
                "{policy}: a handler ran on {name:?}"
            );
        }
        assert!(c.nodes().iter().all(|n| n.external_errors() == 0));
    }
}

#[test]
fn an_overlapping_policy_or_a_hook_hands_the_computation_to_a_worker() {
    let _serial = serial();
    let hooked = || Some(Arc::new(NoopHook) as Arc<dyn SchedHook>);
    let cases = (OVERLAPPING.into_iter().map(|p| (p, None)))
        .chain(INLINE.into_iter().map(|p| (p, hooked())))
        .chain([(StackPolicy::Route, hooked())]);
    for (policy, hook) in cases {
        let what = format!("{policy}, hooked: {}", hook.is_some());
        let sink = Arc::new(Threads::default());
        let c = manual_pair(policy, hook, &sink);
        c.node(0).rbcast("ping");
        c.node(0).inject_retransmit_tick();
        c.settle();
        assert_eq!(c.node(1).rb_delivered().len(), 1, "{what}");
        let seen = sink.take();
        assert!(!seen.is_empty(), "{what}: no handler ran");
        for (id, name) in seen {
            assert_eq!(name, "samoa-worker", "{what}");
            assert_ne!(id, thread::current().id(), "{what}");
        }
        assert!(c.nodes().iter().all(|n| n.external_errors() == 0), "{what}");
    }
}

/// Four closed-loop clients x 200 puts against three sites while the
/// timers tick and the network delivers: every entry thread there is, all
/// bringing computations at once. `converge` blocks until the backend has
/// nothing left to deliver.
fn hammer(what: &str, nodes: &[Arc<Node>], sink: &Threads, converge: impl Fn()) {
    const CLIENTS: usize = 4;
    const PUTS: usize = 200;
    let before = workers();
    let peak = AtomicUsize::new(0);
    thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let node = &nodes[i % nodes.len()];
                thread::Builder::new()
                    .name(format!("client-{i}"))
                    .spawn_scoped(s, move || {
                        for k in 0..PUTS {
                            let put = node.kv_put(format!("k{}", k % 16), format!("c{i}-{k}"));
                            assert!(put.wait(PATIENCE).is_some(), "client {i} put {k}");
                        }
                    })
                    .expect("spawn client")
            })
            .collect();
        while clients.iter().any(|c| !c.is_finished()) {
            peak.fetch_max(workers(), Ordering::Relaxed);
            thread::yield_now();
        }
    });
    converge();

    let log = nodes[0].kv_log();
    assert_eq!(log.len(), CLIENTS * PUTS, "{what}: site 0 applied");
    for n in nodes {
        assert_eq!(n.kv_log(), log, "{what}: {} ordered differently", n.site);
        assert_eq!(n.kv_digest(), nodes[0].kv_digest(), "{what}: {}", n.site);
        assert_eq!(n.external_errors(), 0, "{what}: {}", n.site);
    }
    // Not one thread beyond the entry threads: no worker was created (idle
    // ones left by an earlier test can only have gone away), and no handler
    // ran anywhere else.
    assert!(
        peak.load(Ordering::Relaxed) <= before,
        "{what}: {} workers, {before} before the load",
        peak.load(Ordering::Relaxed)
    );
    for name in sink.take().into_values() {
        let entry = ["client-", "simnet-delivery", "node-", "tcp-s"];
        assert!(
            entry.iter().any(|p| name.starts_with(p)),
            "{what}: a handler ran on {name:?}"
        );
    }
}

#[test]
fn every_entry_thread_at_once_converges_on_simnet_without_a_worker() {
    let _serial = serial();
    for policy in INLINE {
        let sink = Arc::new(Threads::default());
        let net = SimNet::new(3, NetConfig::fast(3));
        let cfg = NodeConfig::with_policy(policy);
        let c = Cluster::new_observed_on(net, cfg, None, observed(&sink));
        hammer(&format!("sim, {policy}"), c.nodes(), &sink, || c.settle());
    }
}

#[test]
fn every_entry_thread_at_once_converges_over_tcp_without_a_worker() {
    let _serial = serial();
    for policy in INLINE {
        let sink = Arc::new(Threads::default());
        let cfg = NodeConfig::with_policy(policy);
        let tcp = TcpCluster::new_observed(3, cfg, observed(&sink)).expect("localhost mesh");
        let nodes: Vec<Arc<Node>> = (0..3).map(|i| Arc::clone(tcp.node(i))).collect();
        // Real sockets have no quiescence oracle: the clients waited for
        // their own sites, the others are polled.
        let converge = || {
            let deadline = Instant::now() + PATIENCE;
            while nodes.iter().any(|n| n.kv_applied() < 800) && Instant::now() < deadline {
                thread::sleep(Duration::from_millis(1));
            }
        };
        hammer(&format!("tcp, {policy}"), &nodes, &sink, converge);
    }
}

/// Notes, at every exit of the Kv handler and on the thread that ran it,
/// how many replies this site had handed to its clients by then
/// (`KvWaiters::complete_all` is what fills `site0.kv.apply_latency_us`).
struct ReplyProbe {
    kv_handler: OnceLock<samoa_core::HandlerId>,
    registry: Arc<Registry>,
    at_exit: Mutex<Vec<(u64, String)>>,
}

impl ReplyProbe {
    fn replies(&self) -> u64 {
        let snap = self.registry.snapshot();
        snap.histograms["site0.kv.apply_latency_us"].count
    }
}

impl TraceSink for ReplyProbe {
    fn event(&self, ev: TraceEvent) {
        if let TraceKind::HandlerExit { handler, .. } = ev.kind {
            if self.kv_handler.get() == Some(&handler) {
                let name = thread::current().name().unwrap_or("").to_string();
                self.at_exit.lock().unwrap().push((self.replies(), name));
            }
        }
    }
}

#[test]
fn a_reply_leaves_after_rule_3_so_whoever_it_wakes_finds_nothing_held() {
    let _serial = serial();
    // One site commits on its own, in the computation `kv_put` brings: run
    // by the caller under `Basic`, by a worker — which then has to wake the
    // caller out of `KvPending::wait` — under `Route`.
    for (policy, worker) in [
        (StackPolicy::Basic, None),
        (StackPolicy::Route, Some("samoa-worker")),
    ] {
        let probe = Arc::new(ReplyProbe {
            kv_handler: OnceLock::new(),
            registry: Arc::new(Registry::new()),
            at_exit: Mutex::default(),
        });
        let cfg = NodeConfig {
            policy,
            clock: ProtoClock::manual(),
            ..NodeConfig::default()
        };
        let observe = Observe {
            sink: Some(Arc::clone(&probe) as Arc<dyn TraceSink>),
            registry: Some(Arc::clone(&probe.registry)),
            epoch: None,
        };
        let net = SimNet::new_manual(1, NetConfig::fast(1));
        let c = Cluster::new_observed_on(net, cfg, None, observe);
        let rt = c.node(0).runtime();
        let kv = rt.stack().handler_by_name("kv.on_adeliver");
        probe.kv_handler.set(kv.expect("the Kv handler")).unwrap();

        let reply = c.node(0).kv_put("k", "v").wait(PATIENCE);
        // Taken by the thread `wait` let go, before anything else runs.
        let snapshot = rt.debug_snapshot();
        assert!(reply.is_some(), "{policy}: no reply");
        for line in snapshot.lines().skip(1) {
            assert!(
                line.ends_with(" pending=0"),
                "{policy}: woken into\n{snapshot}"
            );
        }
        // And not by luck: when the handler that applied the command
        // returned, on the thread that ran the computation, no reply had
        // left yet; exactly one has now.
        let me = thread::current();
        let ran_on = worker.or(me.name()).expect("test threads are named");
        assert_eq!(
            *probe.at_exit.lock().unwrap(),
            [(0, ran_on.to_string())],
            "{policy}: replies out at the Kv handler's exit, and its thread"
        );
        assert_eq!(probe.replies(), 1, "{policy}");
        assert_eq!(c.node(0).external_errors(), 0, "{policy}");
    }
}
