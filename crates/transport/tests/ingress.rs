//! Which thread runs an endpoint's computations (`Runtime::external`): under
//! `Serial` and `Basic` the one that brought the event, to completion;
//! under `Unsync` a `samoa-worker`.
//!
//! An endpoint takes no trace sink, so the thread is read from outside: an
//! entry point that returns with every computation complete and without a
//! `samoa-worker` having existed ran it itself. The worker cache is
//! process-wide, so the tests of this binary run one at a time (`SERIAL`).

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use samoa_core::Policy;
use samoa_net::{NetConfig, ProtoClock, SimNet, SiteId};
use samoa_transport::{Endpoint, Frame, TransportConfig, TransportNet};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
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

fn config(policy: Policy) -> TransportConfig {
    TransportConfig {
        policy,
        clock: ProtoClock::manual(),
        ..TransportConfig::default()
    }
}

fn idle(e: &Endpoint) -> bool {
    let s = e.runtime().stats();
    s.computations_completed == s.computations_spawned
}

/// The clock alone decides whether an endpoint's timer runs (`Alarm::on`):
/// on a manual clock no `tnode-N-timer` thread starts — `inject_tick` is
/// the timer — and on the wall clock one does, named once it has started.
#[test]
fn an_endpoint_starts_its_timer_thread_on_the_wall_clock_only() {
    let _serial = serial();
    let manual = TransportNet::new(2, NetConfig::fast(1), config(Policy::Basic));
    assert_eq!(threads("tnode-0-timer"), 0, "a timer on a manual clock");
    drop(manual);

    let wall = TransportNet::new(2, NetConfig::fast(1), TransportConfig::default());
    let deadline = Instant::now() + Duration::from_secs(60);
    while threads("tnode-0-timer") == 0 {
        assert!(Instant::now() < deadline, "no timer on the wall clock");
        std::thread::yield_now();
    }
    assert_eq!(threads("tnode-0-timer"), 1);
    drop(wall);
}

#[test]
fn ten_thousand_datagrams_back_to_back_cost_no_thread() {
    let _serial = serial();
    let net = TransportNet::new(2, NetConfig::fast(1), config(Policy::Basic));
    // A data frame whose checksum fails: the whole declaration, one handler,
    // one counter to read the end of the burst from.
    let mut frame = Frame::Data {
        msg_id: 1,
        frag_idx: 0,
        frag_total: 1,
        seq: 0,
        payload: vec![7u8; 32].into(),
    }
    .encode()
    .to_vec();
    *frame.last_mut().expect("non-empty") ^= 1;
    let frame = bytes::Bytes::from(frame);

    let before = workers();
    let mut peak = before;
    for i in 0..10_000 {
        net.net().send(SiteId(1), SiteId(0), frame.clone());
        if i % 64 == 0 {
            peak = peak.max(workers());
        }
    }
    // The delivery thread returns from each callback with the computation
    // complete, so a drained network is a drained endpoint.
    net.net().quiesce();
    peak = peak.max(workers());
    assert_eq!(net.endpoint(0).corrupt_dropped(), 10_000);
    assert!(idle(net.endpoint(0)));
    assert!(peak <= before, "{peak} workers, {before} before the burst");
    assert_eq!(net.endpoint(0).external_errors(), 0);
}

#[test]
fn send_and_pump_return_with_the_computation_complete() {
    let _serial = serial();
    for policy in [Policy::Serial, Policy::Basic] {
        let net = SimNet::new_manual(2, NetConfig::fast(2));
        let a = Endpoint::new(net.handle(), SiteId(0), config(policy));
        let b = Endpoint::new(net.handle(), SiteId(1), config(policy));
        let before = workers();
        a.send(SiteId(1), "hello");
        assert!(idle(&a), "{policy:?}: send returned mid-computation");
        assert!(net.pending() > 0, "{policy:?}: nothing was sent");
        while net.pump_one() {
            assert!(idle(&a) && idle(&b), "{policy:?}: pump_one returned early");
        }
        assert_eq!(b.delivered().len(), 1, "{policy:?}");
        assert!(workers() <= before, "{policy:?}: a worker ran it");
        assert_eq!(a.external_errors() + b.external_errors(), 0);
    }
}

#[test]
fn unsync_hands_the_computation_to_a_worker() {
    let _serial = serial();
    let net = SimNet::new_manual(2, NetConfig::fast(3));
    let a = Endpoint::new(net.handle(), SiteId(0), config(Policy::Unsync));
    a.send(SiteId(1), "hello");
    a.runtime().quiesce();
    assert!(net.pending() > 0);
    // The thread that ran it is parked in the executor's cache (for 250 ms).
    assert!(workers() >= 1, "no samoa-worker after a detached spawn");
}
