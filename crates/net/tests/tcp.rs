//! Integration tests for the real-socket backend: delivery, per-pair FIFO,
//! parity with `SimNet` semantics, backpressure drops, reconnect.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;
use samoa_net::{SiteId, TcpMesh, TcpNet, Transport};

fn wait_until(deadline_ms: u64, mut pred: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_millis(deadline_ms);
    while Instant::now() < deadline {
        if pred() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    pred()
}

/// An address with no listener that stays that way while the guard lives:
/// the local end of an established connection. The port is bound, so no
/// test running beside this one is handed it by `bind(:0)`, and nothing
/// listens on it. (A listener that is bound and dropped frees its port for
/// the next `bind(:0)` anywhere in the process.)
struct Refusing {
    addr: std::net::SocketAddr,
    _held: (std::net::TcpListener, std::net::TcpStream),
}

fn refusing_addr() -> Refusing {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    Refusing {
        addr: client.local_addr().unwrap(),
        _held: (listener, client),
    }
}

fn collect(net: &Arc<TcpNet>, site: SiteId) -> Arc<Mutex<Vec<(SiteId, Bytes)>>> {
    let got: Arc<Mutex<Vec<(SiteId, Bytes)>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&got);
    net.register(
        site,
        Arc::new(move |dg| sink.lock().push((dg.from, dg.payload))),
    );
    got
}

#[test]
fn frames_deliver_across_real_sockets() {
    let mesh = TcpMesh::new(3).unwrap();
    let got = collect(mesh.net(2), SiteId(2));
    mesh.net(0)
        .send(SiteId(0), SiteId(2), Bytes::from_static(b"hello"));
    mesh.net(1)
        .send(SiteId(1), SiteId(2), Bytes::from_static(b"world"));
    assert!(wait_until(5000, || got.lock().len() == 2));
    let mut froms: Vec<u16> = got.lock().iter().map(|(f, _)| f.0).collect();
    froms.sort_unstable();
    assert_eq!(froms, vec![0, 1]);
    assert_eq!(mesh.net(2).stats().frames_delivered, 2);
}

#[test]
fn per_pair_fifo_order_is_preserved() {
    let mesh = TcpMesh::new(2).unwrap();
    let got = collect(mesh.net(1), SiteId(1));
    for i in 0..200u8 {
        mesh.net(0)
            .send(SiteId(0), SiteId(1), Bytes::copy_from_slice(&[i]));
    }
    assert!(wait_until(5000, || got.lock().len() == 200));
    let seen: Vec<u8> = got.lock().iter().map(|(_, p)| p[0]).collect();
    let want: Vec<u8> = (0..200).collect();
    assert_eq!(seen, want, "TCP must preserve per-pair FIFO");
}

#[test]
fn send_all_reaches_every_other_site() {
    let mesh = TcpMesh::new(3).unwrap();
    let g1 = collect(mesh.net(1), SiteId(1));
    let g2 = collect(mesh.net(2), SiteId(2));
    mesh.net(0).send_all(SiteId(0), Bytes::from_static(b"x"));
    assert!(wait_until(5000, || g1.lock().len() == 1 && g2.lock().len() == 1));
    // send_all excludes the sender itself.
    assert_eq!(mesh.net(0).stats().frames_delivered, 0);
}

/// One reader thread per inbound connection, one callback at a time: a host
/// may run a whole computation in it, and readers that met there would wait
/// on each other by yielding (module docs of `tcp.rs`).
#[test]
fn readers_of_one_endpoint_take_turns_in_the_callback() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    const FRAMES: usize = 500;
    let mesh = TcpMesh::new(3).unwrap();
    let inside = Arc::new(AtomicUsize::new(0));
    let most = Arc::new(AtomicUsize::new(0));
    let done = Arc::new(AtomicUsize::new(0));
    let (i, m, d) = (Arc::clone(&inside), Arc::clone(&most), Arc::clone(&done));
    mesh.net(2).register(
        SiteId(2),
        Arc::new(move |_| {
            m.fetch_max(i.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
            // Stay long enough for the other connection's reader to arrive.
            for _ in 0..8 {
                std::thread::yield_now();
            }
            i.fetch_sub(1, Ordering::SeqCst);
            d.fetch_add(1, Ordering::SeqCst);
        }),
    );
    for _ in 0..FRAMES {
        for from in [0, 1] {
            mesh.net(from)
                .send(SiteId(from as u16), SiteId(2), Bytes::from_static(b"x"));
        }
    }
    assert!(wait_until(20_000, || done.load(Ordering::SeqCst) == 2 * FRAMES));
    assert_eq!(
        most.load(Ordering::SeqCst),
        1,
        "two readers in the callback"
    );
}

#[test]
fn self_send_loops_back_through_the_socket() {
    let mesh = TcpMesh::new(2).unwrap();
    let got = collect(mesh.net(0), SiteId(0));
    mesh.net(0)
        .send(SiteId(0), SiteId(0), Bytes::from_static(b"me"));
    assert!(wait_until(5000, || got.lock().len() == 1));
    assert_eq!(got.lock()[0].0, SiteId(0));
}

#[test]
fn unregistered_receiver_counts_dropped_no_receiver() {
    let mesh = TcpMesh::new(2).unwrap();
    // No callback registered on site 1.
    mesh.net(0)
        .send(SiteId(0), SiteId(1), Bytes::from_static(b"lost"));
    assert!(wait_until(5000, || {
        mesh.net(1).stats().dropped_no_receiver == 1
    }));
    assert_eq!(mesh.net(1).stats().frames_delivered, 0);
}

#[test]
#[should_panic(expected = "cannot host a callback")]
fn register_for_remote_site_panics() {
    let mesh = TcpMesh::new(2).unwrap();
    mesh.net(0).register(SiteId(1), Arc::new(|_| {}));
}

#[test]
fn full_queue_drops_oldest_and_counts() {
    // Point site 0 at an address with no listener: frames pile up in the
    // bounded queue while the writer retries connecting.
    let dead = refusing_addr();
    // Our own listener can be on any free port — nobody sends to site 0.
    let addrs = vec!["127.0.0.1:0".parse().unwrap(), dead.addr];
    let net = TcpNet::bind(SiteId(0), addrs).unwrap();
    // `tcp.rs`' per-peer `QUEUE_CAPACITY`.
    const CAPACITY: u64 = 4096;
    for i in 0..CAPACITY + 64 {
        net.send(SiteId(0), SiteId(1), Bytes::copy_from_slice(&[i as u8]));
    }
    // 64 frames more than the queue holds: everything is dropped but the
    // 4096 queued and the one the writer holds while it connects — if it
    // took that one before the queue filled, it freed a place and one frame
    // fewer was dropped. Which of the two is up to the scheduler.
    assert!(wait_until(5000, || net.stats().dropped_backpressure >= 63));
    assert!(net.stats().dropped_backpressure <= 64);
    assert!(
        wait_until(5000, || net.stats().reconnects > 0),
        "writer must be retrying connects"
    );
    net.shutdown();
}

#[test]
fn crashed_peer_reconnects_after_rebind() {
    let mesh = TcpMesh::new(2).unwrap();
    let got = collect(mesh.net(1), SiteId(1));
    mesh.net(0)
        .send(SiteId(0), SiteId(1), Bytes::from_static(b"a"));
    assert!(wait_until(5000, || got.lock().len() == 1));

    // Crash site 1 and keep sending: frames are retried/dropped, not
    // delivered anywhere.
    let addrs = mesh.addrs().to_vec();
    mesh.crash(1);
    for _ in 0..4 {
        mesh.net(0)
            .send(SiteId(0), SiteId(1), Bytes::from_static(b"b"));
        std::thread::sleep(Duration::from_millis(10));
    }

    // Restart site 1 on the same address; new frames must get through.
    let revived = loop {
        match TcpNet::bind(SiteId(1), addrs.clone()) {
            Ok(n) => break Arc::new(n),
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    let got2 = collect(&revived, SiteId(1));
    let delivered = wait_until(5000, || {
        mesh.net(0)
            .send(SiteId(0), SiteId(1), Bytes::from_static(b"c"));
        std::thread::sleep(Duration::from_millis(10));
        got2.lock().iter().any(|(_, p)| p.as_ref() == b"c")
    });
    assert!(delivered, "frames must flow again after the peer rebinds");
    let s = mesh.net(0).stats();
    assert!(
        s.retried + s.reconnects > 0,
        "the fault window must be visible in stats: {s:?}"
    );
}

#[test]
fn shutdown_is_idempotent_and_counts_queued_frames() {
    let dead = refusing_addr();
    let addrs = vec!["127.0.0.1:0".parse().unwrap(), dead.addr];
    let net = TcpNet::bind(SiteId(0), addrs).unwrap();
    for _ in 0..4 {
        net.send(SiteId(0), SiteId(1), Bytes::from_static(b"q"));
    }
    net.shutdown();
    net.shutdown();
    let s = net.stats();
    assert_eq!(s.frames_sent, 4);
    assert!(
        s.dropped_shutdown > 0,
        "queued frames count as shutdown drops"
    );
    // Sends after shutdown are dropped, not queued.
    net.send(SiteId(0), SiteId(1), Bytes::from_static(b"late"));
    assert_eq!(net.stats().frames_sent, 4);
}

#[test]
fn transport_object_is_backend_agnostic() {
    let mesh = TcpMesh::new(2).unwrap();
    let t: Arc<dyn Transport> = Arc::clone(mesh.net(1)) as Arc<dyn Transport>;
    assert_eq!(t.site_count(), 2);
    assert_eq!(t.sites(), vec![SiteId(0), SiteId(1)]);
    let got: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
    {
        let got = Arc::clone(&got);
        t.register(
            SiteId(1),
            Arc::new(move |dg| got.lock().push(dg.payload[0])),
        );
    }
    let s: Arc<dyn Transport> = Arc::clone(mesh.net(0)) as Arc<dyn Transport>;
    s.send(SiteId(0), SiteId(1), Bytes::copy_from_slice(&[42]));
    assert!(wait_until(5000, || got.lock().as_slice() == [42]));
}
