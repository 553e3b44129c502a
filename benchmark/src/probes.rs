//! Direct probes: one layer at a time, with nothing stacked on top, through
//! its public API. Each runs for a fixed slice of the traced run and
//! reports a per-layer metric; none feeds an end-to-end number.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;
use samoa_core::prelude::*;
use samoa_net::{NetConfig, SimNet, SiteId, TcpMesh, Transport};
use samoa_proto::{
    AbMsg, AbPayload, CastData, CastMsg, KvCmd, KvState, MsgUid, NodeConfig, Payload, StackPolicy,
    TraceCtx, Wire,
};
use samoa_transport::Frame;

use crate::kv::{Backend, KvClient, KvCluster};
use crate::report::Report;
use crate::rt::flat_stack;
use crate::stats;

/// Payload size of the bare-network probes.
const NET_PAYLOAD: usize = 128;
/// Most datagrams the throughput probe keeps in flight (well under
/// `TcpConfig::queue_capacity`, so nothing is dropped).
const NET_IN_FLIGHT: u64 = 512;

/// Mean nanoseconds per call of `f`, batches of `batch` until `budget` is
/// spent.
fn ns_per_call(budget: Duration, batch: usize, mut f: impl FnMut()) -> (f64, usize) {
    let start = Instant::now();
    let mut calls = 0usize;
    while start.elapsed() < budget {
        for _ in 0..batch {
            f();
        }
        calls += batch;
    }
    (start.elapsed().as_nanos() as f64 / calls as f64, calls)
}

/// `proto.wire.{encode,decode}_ns` on the frame a KV put travels in, and
/// `proto.kv.apply_ns` on the state machine alone.
pub fn proto_codecs(budget: Duration, r: &mut Report) {
    let cmd = KvCmd::Put {
        req: 7,
        key: Bytes::from_static(b"key-17"),
        value: Bytes::from_static(b"c1-o4242"),
    };
    let uid = MsgUid {
        origin: SiteId(1),
        seq: 4242,
    };
    let wire = Wire::Data {
        seq: 99,
        ctx: Some(TraceCtx {
            origin: SiteId(1),
            op: 4242,
            hop: 0,
        }),
        payload: Payload::Cast(CastMsg {
            uid,
            data: CastData::AbRequest(AbMsg {
                uid,
                payload: AbPayload::User(cmd.encode()),
            }),
        }),
    };
    let each = budget / 3;
    let (ns, n) = ns_per_call(each, 1000, || {
        black_box(black_box(&wire).encode());
    });
    r.single("proto.wire.encode_ns", ns, n);
    let encoded = wire.encode();
    let (ns, n) = ns_per_call(each, 1000, || {
        black_box(Wire::decode(black_box(encoded.clone())).expect("valid frame"));
    });
    r.single("proto.wire.decode_ns", ns, n);

    let keys: Vec<Bytes> = (0..32).map(|k| Bytes::from(format!("key-{k}"))).collect();
    let mut state = KvState::default();
    let mut i = 0u64;
    let (ns, n) = ns_per_call(each, 1000, || {
        let key = keys[(i % 32) as usize].clone();
        let cmd = if i.is_multiple_of(2) {
            KvCmd::Put {
                req: i,
                key,
                value: Bytes::from_static(b"value"),
            }
        } else {
            KvCmd::Get { req: i, key }
        };
        black_box(state.apply(
            MsgUid {
                origin: SiteId(0),
                seq: i,
            },
            cmd,
        ));
        i += 1;
    });
    r.single("proto.kv.apply_ns", ns, n);
}

/// `transport.frame.{encode,decode}_ns` on one MTU-sized data fragment.
pub fn transport_codecs(budget: Duration, r: &mut Report) {
    let frame = Frame::Data {
        msg_id: 3,
        frag_idx: 17,
        frag_total: 64,
        seq: 1234,
        payload: Bytes::from(vec![0xA5u8; 256]),
    };
    let (ns, n) = ns_per_call(budget / 2, 1000, || {
        black_box(black_box(&frame).encode());
    });
    r.single("transport.frame.encode_ns", ns, n);
    let encoded = frame.encode();
    let (ns, n) = ns_per_call(budget / 2, 1000, || {
        black_box(Frame::decode(black_box(encoded.clone())).expect("valid frame"));
    });
    r.single("transport.frame.decode_ns", ns, n);
}

/// One-way delay and sustained message rate of a bare two-site transport:
/// site 0 sends `NET_PAYLOAD`-byte datagrams stamped with their send time,
/// site 1's callback reads the clock.
fn net_probe(
    t0: Arc<dyn Transport>,
    t1: Arc<dyn Transport>,
    budget: Duration,
) -> (f64, usize, f64) {
    let epoch = Instant::now();
    let delivered = Arc::new(AtomicU64::new(0));
    let (tx, rx) = mpsc::channel::<u64>();
    {
        let delivered = Arc::clone(&delivered);
        let tx = Mutex::new(tx);
        t1.register(
            SiteId(1),
            Arc::new(move |dg| {
                let now = epoch.elapsed().as_nanos() as u64;
                let sent = u64::from_le_bytes(dg.payload[..8].try_into().expect("8-byte stamp"));
                delivered.fetch_add(1, Ordering::SeqCst);
                // The receiver side going away just ends the probe.
                let _ = tx.lock().send(now.saturating_sub(sent));
            }),
        );
    }
    let stamped = || {
        let mut body = vec![0u8; NET_PAYLOAD];
        body[..8].copy_from_slice(&(epoch.elapsed().as_nanos() as u64).to_le_bytes());
        Bytes::from(body)
    };
    // Ping: one datagram at a time.
    let mut oneway = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget / 2 {
        t0.send(SiteId(0), SiteId(1), stamped());
        match rx.recv_timeout(Duration::from_secs(2)) {
            Ok(ns) => oneway.push(ns),
            Err(_) => break,
        }
    }
    // Blast: as fast as a bounded number in flight allows.
    let base = delivered.load(Ordering::SeqCst);
    let start = Instant::now();
    let mut sent = 0u64;
    while start.elapsed() < budget / 2 {
        if sent - (delivered.load(Ordering::SeqCst) - base) < NET_IN_FLIGHT {
            t0.send(SiteId(0), SiteId(1), stamped());
            sent += 1;
        } else {
            std::thread::yield_now();
        }
    }
    let drain_end = Instant::now() + Duration::from_secs(2);
    while delivered.load(Ordering::SeqCst) - base < sent && Instant::now() < drain_end {
        std::thread::yield_now();
    }
    let got = delivered.load(Ordering::SeqCst) - base;
    let rate = got as f64 / start.elapsed().as_secs_f64();
    let n = oneway.len();
    (stats::p50_us(oneway), n, rate)
}

/// `net.sim.*`: SimNet with the delay the KV workloads inject (0–20 µs).
pub fn net_sim(seed: u64, budget: Duration, r: &mut Report) {
    let mut net = SimNet::new(2, NetConfig::fast(seed));
    let t: Arc<dyn Transport> = Arc::new(net.handle());
    let (p50, n, rate) = net_probe(Arc::clone(&t), t, budget);
    net.shutdown();
    r.single("net.sim.oneway_p50_us", p50, n);
    r.single("net.sim.msgs_per_s", rate, n);
}

/// `net.tcp.*`: two `TcpNet` endpoints on localhost.
pub fn net_tcp(budget: Duration, r: &mut Report) {
    let mesh = TcpMesh::new(2).expect("bind localhost TCP mesh");
    let t0 = Arc::clone(mesh.net(0)) as Arc<dyn Transport>;
    let t1 = Arc::clone(mesh.net(1)) as Arc<dyn Transport>;
    let (p50, n, rate) = net_probe(t0, t1, budget);
    mesh.shutdown();
    r.single("net.tcp.oneway_p50_us", p50, n);
    r.single("net.tcp.msgs_per_s", rate, n);
}

/// `proto.single_site_op_p50_us`: the same stack with a one-member view —
/// no peer to wait for, so this is the single-node baseline of a commit.
pub fn single_site_op(seed: u64, budget: Duration, r: &mut Report) {
    let cluster = KvCluster::build(
        Backend::Sim,
        1,
        seed,
        NodeConfig::with_policy(StackPolicy::Basic),
        false,
    );
    let mut client = KvClient::new(Arc::clone(cluster.node(0)), 0, seed);
    let ops = client.run(cluster.epoch, Instant::now() + budget, 1);
    let lat: Vec<u64> = ops
        .iter()
        .filter(|o| o.ok)
        .map(|o| o.latency_ns())
        .collect();
    let n = lat.len();
    r.single("proto.single_site_op_p50_us", stats::p50_us(lat), n);
}

/// The core probes: `core.spawn_join_p50_us`, `core.admit_ns.*` and
/// `core.handoff_p50_us`.
pub fn core(budget: Duration, r: &mut Report) {
    let each = budget / 4;
    spawn_join(each, r);
    admit_ns(each, "core.admit_ns.vca-basic", true, r);
    admit_ns(each, "core.admit_ns.unsync", false, r);
    handoff(each, r);
}

/// One thread, null handlers, `Decl::Basic` on two protocols: `spawn` to
/// `join`, uncontended.
fn spawn_join(budget: Duration, r: &mut Report) {
    let stack = flat_stack(2, false);
    let decl = [stack.protocols[0], stack.protocols[1]];
    let (e0, e1) = (stack.events[0], stack.events[1]);
    let mut lat = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget {
        let t = Instant::now();
        stack
            .rt
            .spawn(Decl::Basic(&decl), move |ctx| {
                ctx.trigger(e0, EventData::empty())?;
                ctx.trigger(e1, EventData::empty())
            })
            .join()
            .expect("null computation");
        lat.push(t.elapsed().as_nanos() as u64);
    }
    let n = lat.len();
    r.single("core.spawn_join_p50_us", stats::p50_us(lat), n);
}

/// Nanoseconds per uncontended `ctx.trigger` (Rule-2 admission + dispatch
/// of a null handler) inside one computation, isolated or not.
fn admit_ns(budget: Duration, name: &'static str, isolated: bool, r: &mut Report) {
    const TRIGGERS: usize = 1024;
    let stack = flat_stack(4, false);
    let events = stack.events.clone();
    let spent = Arc::new(AtomicU64::new(0));
    let mut admissions = 0usize;
    let start = Instant::now();
    while start.elapsed() < budget {
        let (events, spent) = (events.clone(), Arc::clone(&spent));
        let body = move |ctx: &Ctx| {
            let t = Instant::now();
            for i in 0..TRIGGERS {
                ctx.trigger(events[i % events.len()], EventData::empty())?;
            }
            spent.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            Ok(())
        };
        let decl = if isolated {
            Decl::Basic(&stack.protocols)
        } else {
            Decl::Unsync
        };
        stack.rt.spawn(decl, body).join().expect("null computation");
        admissions += TRIGGERS;
    }
    r.single(
        name,
        spent.load(Ordering::Relaxed) as f64 / admissions as f64,
        admissions,
    );
}

/// From the exit of A's handler to the entry of B's, B parked on the same
/// microprotocol: Rule-3 release, wake-up, re-check, dispatch.
fn handoff(budget: Duration, r: &mut Report) {
    const HOLD: Duration = Duration::from_millis(2);
    let mut b = StackBuilder::new();
    let p = b.protocol("P");
    let e = b.event("E");
    let epoch = Instant::now();
    // (exit of the holder's handler, entry of the waiter's handler)
    let marks: Arc<Mutex<(u64, u64)>> = Arc::default();
    {
        let marks = Arc::clone(&marks);
        b.bind(e, p, "h", move |_ctx, data| {
            let entered = epoch.elapsed().as_nanos() as u64;
            if *data.expect::<bool>(e)? {
                std::thread::sleep(HOLD);
                marks.lock().0 = epoch.elapsed().as_nanos() as u64;
            } else {
                marks.lock().1 = entered;
            }
            Ok(())
        });
    }
    let rt = Runtime::new(b.build());
    let mut lat = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget {
        let holder = rt.spawn(Decl::Basic(&[p]), move |ctx| ctx.trigger(e, true));
        let waiter = rt.spawn(Decl::Basic(&[p]), move |ctx| ctx.trigger(e, false));
        holder.join().expect("holder");
        waiter.join().expect("waiter");
        let (exit, entry) = *marks.lock();
        lat.push(entry.saturating_sub(exit));
    }
    let n = lat.len();
    r.single("core.handoff_p50_us", stats::p50_us(lat), n);
}
