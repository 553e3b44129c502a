//! `TimedTransport`: a benchmark-side decorator over any [`Transport`] that
//! times what the net layer does for the stack above it — the send call,
//! the transit from send to delivery-callback entry, and the time spent
//! inside the callback (decode + `spawn_external` in `samoa-proto`). Used in
//! the traced run only; the end-to-end run talks to the bare backend.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use parking_lot::Mutex;
use samoa_net::sim::DeliveryFn;
use samoa_net::{SiteId, Transport};
use samoa_proto::Wire;

use crate::spans::{op_id, Span, SpanLog, NO_OP};

/// What the decorators of one cluster recorded, shared by all its sites.
pub struct NetTimes {
    epoch: Instant,
    spans: Arc<SpanLog>,
    inner: Mutex<NetTimesInner>,
}

#[derive(Default)]
struct NetTimesInner {
    /// Send-return time of frames in flight, keyed by (from, to, payload
    /// hash): RelComm sequence numbers make data and ack payloads unique
    /// per link, so the hash identifies the frame.
    in_flight: HashMap<(u16, u16, u64), u64>,
    send_call_ns: Vec<u64>,
    transit_ns: Vec<u64>,
    deliver_cb_ns: Vec<u64>,
    bytes: u64,
    frames: Vec<Bytes>,
}

/// A drained copy of the recorded samples.
#[derive(Debug, Default)]
pub struct NetSamples {
    pub send_call_ns: Vec<u64>,
    pub transit_ns: Vec<u64>,
    pub deliver_cb_ns: Vec<u64>,
    /// Payload bytes handed to `send`.
    pub bytes: u64,
    /// Every payload handed to `send` (reference-counted, not copied), for
    /// decoding after the run.
    pub frames: Vec<Bytes>,
}

impl NetTimes {
    pub fn new(epoch: Instant, spans: Arc<SpanLog>) -> Arc<NetTimes> {
        Arc::new(NetTimes {
            epoch,
            spans,
            inner: Mutex::new(NetTimesInner::default()),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn take(&self) -> NetSamples {
        let mut g = self.inner.lock();
        g.in_flight.clear();
        NetSamples {
            send_call_ns: std::mem::take(&mut g.send_call_ns),
            transit_ns: std::mem::take(&mut g.transit_ns),
            deliver_cb_ns: std::mem::take(&mut g.deliver_cb_ns),
            bytes: std::mem::take(&mut g.bytes),
            frames: std::mem::take(&mut g.frames),
        }
    }
}

fn frame_key(from: SiteId, to: SiteId, payload: &Bytes) -> (u16, u16, u64) {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    payload[..].hash(&mut h);
    (from.0, to.0, h.finish())
}

/// The cluster operation a frame serves, if its header says.
fn frame_op(payload: &Bytes) -> u64 {
    Wire::peek_ctx(payload).map_or(NO_OP, |c| op_id(c.origin.0, c.op))
}

/// The decorator. Everything is forwarded unchanged; only timestamps are
/// taken around the forwarded calls.
pub struct TimedTransport {
    inner: Arc<dyn Transport>,
    times: Arc<NetTimes>,
}

impl TimedTransport {
    pub fn wrap(inner: Arc<dyn Transport>, times: Arc<NetTimes>) -> Arc<dyn Transport> {
        Arc::new(TimedTransport { inner, times })
    }
}

impl Transport for TimedTransport {
    fn send(&self, from: SiteId, to: SiteId, payload: Bytes) {
        let key = frame_key(from, to, &payload);
        let op = frame_op(&payload);
        let len = payload.len() as u64;
        let kept = payload.clone();
        let t0 = self.times.now_ns();
        // Entered before the call: a fast backend can deliver the frame
        // before `send` returns, and the callback must find it here.
        self.times.inner.lock().in_flight.insert(key, t0);
        self.inner.send(from, to, payload);
        let t1 = self.times.now_ns();
        {
            let mut g = self.times.inner.lock();
            // Transit counts from the call's return, unless the frame was
            // already delivered by then (it then counted from the start).
            if let Some(t) = g.in_flight.get_mut(&key) {
                *t = t1;
            }
            g.send_call_ns.push(t1 - t0);
            g.bytes += len;
            g.frames.push(kept);
        }
        self.times.spans.push(Span {
            name: "net.send",
            parent: Some("client.op"),
            op,
            pid: u32::from(from.0),
            tid: 1,
            start_ns: t0,
            end_ns: t1,
        });
    }

    // `send_all` stays the trait default — a loop over `self.send` — which
    // is what both backends do themselves, so every copy is timed.

    fn site_count(&self) -> usize {
        self.inner.site_count()
    }

    fn sites(&self) -> Vec<SiteId> {
        self.inner.sites()
    }

    fn register(&self, site: SiteId, callback: Arc<DeliveryFn>) {
        let times = Arc::clone(&self.times);
        self.inner.register(
            site,
            Arc::new(move |dg| {
                let t_in = times.now_ns();
                let key = frame_key(dg.from, dg.to, &dg.payload);
                let op = frame_op(&dg.payload);
                let from = dg.from;
                callback(dg);
                let t_out = times.now_ns();
                let sent = {
                    let mut g = times.inner.lock();
                    g.deliver_cb_ns.push(t_out - t_in);
                    let sent = g.in_flight.remove(&key);
                    if let Some(t) = sent {
                        g.transit_ns.push(t_in.saturating_sub(t));
                    }
                    sent
                };
                if let Some(t) = sent {
                    times.spans.push(Span {
                        name: "net.transit",
                        parent: Some("client.op"),
                        op,
                        pid: u32::from(from.0),
                        tid: 2,
                        start_ns: t.min(t_in),
                        end_ns: t_in,
                    });
                }
                times.spans.push(Span {
                    name: "net.deliver_cb",
                    parent: Some("client.op"),
                    op,
                    pid: u32::from(site.0),
                    tid: 3,
                    start_ns: t_in,
                    end_ns: t_out,
                });
            }),
        );
    }

    fn stats_named(&self, site: SiteId) -> Vec<(&'static str, u64)> {
        self.inner.stats_named(site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samoa_net::{NetConfig, SimNet, TcpMesh, STAT_NAMES};

    fn names(stats: &[(&'static str, u64)]) -> Vec<&'static str> {
        stats.iter().map(|&(n, _)| n).collect()
    }

    fn times() -> Arc<NetTimes> {
        NetTimes::new(Instant::now(), Arc::new(SpanLog::new(1024)))
    }

    /// The assertions of `crates/net/tests/transport_conformance.rs`, made
    /// against the wrapper instead of the bare backends.
    #[test]
    fn wrapper_reports_the_backends_counters_unchanged() {
        let sim = SimNet::new(2, NetConfig::fast(1));
        let t = times();
        let sim_t = TimedTransport::wrap(Arc::new(sim.handle()), Arc::clone(&t));
        sim_t.register(SiteId(1), Arc::new(|_| {}));
        sim_t.send(SiteId(0), SiteId(1), Bytes::copy_from_slice(&[1]));
        sim.quiesce();

        let mesh = TcpMesh::new(2).expect("bind localhost mesh");
        let tcp_t = TimedTransport::wrap(Arc::clone(mesh.net(0)) as Arc<dyn Transport>, times());

        for site in [SiteId(0), SiteId(1)] {
            assert_eq!(names(&sim_t.stats_named(site)), STAT_NAMES.to_vec());
        }
        assert_eq!(names(&tcp_t.stats_named(SiteId(0))), STAT_NAMES.to_vec());
        assert!(tcp_t.stats_named(SiteId(1)).is_empty());
        assert!(sim_t.stats_named(SiteId(9)).is_empty());
        let delivered = sim_t
            .stats_named(SiteId(1))
            .iter()
            .find(|&&(n, _)| n == "delivered")
            .map(|&(_, v)| v)
            .unwrap();
        assert_eq!(delivered, 1);
        assert_eq!(sim_t.site_count(), 2);
        assert_eq!(sim_t.sites(), vec![SiteId(0), SiteId(1)]);
    }

    #[test]
    fn send_send_all_and_register_forward_payloads_and_record_times() {
        let sim = SimNet::new(3, NetConfig::fast(2));
        let t = times();
        let wrapped = TimedTransport::wrap(Arc::new(sim.handle()), Arc::clone(&t));
        type Delivered = Vec<(u16, u16, Vec<u8>)>;
        let got: Arc<Mutex<Delivered>> = Arc::default();
        for site in [SiteId(1), SiteId(2)] {
            let got = Arc::clone(&got);
            wrapped.register(
                site,
                Arc::new(move |dg| got.lock().push((dg.from.0, dg.to.0, dg.payload.to_vec()))),
            );
        }
        wrapped.send(SiteId(0), SiteId(1), Bytes::from_static(b"one"));
        wrapped.send_all(SiteId(0), Bytes::from_static(b"all"));
        sim.quiesce();

        let mut got = got.lock().clone();
        got.sort();
        assert_eq!(
            got,
            vec![
                (0, 1, b"all".to_vec()),
                (0, 1, b"one".to_vec()),
                (0, 2, b"all".to_vec()),
            ]
        );
        // The backend counted exactly the frames the caller sent.
        assert_eq!(sim.handle().total_stats().sent, 3);
        let s = t.take();
        assert_eq!(s.send_call_ns.len(), 3);
        assert_eq!(s.transit_ns.len(), 3);
        assert_eq!(s.deliver_cb_ns.len(), 3);
        assert_eq!(s.bytes, 9);
        assert_eq!(s.frames.len(), 3);
        let (spans, dropped) = t.spans.take();
        assert_eq!(dropped, 0);
        assert_eq!(spans.iter().filter(|s| s.name == "net.send").count(), 3);
        assert_eq!(spans.iter().filter(|s| s.name == "net.transit").count(), 3);
        assert!(spans
            .iter()
            .all(|s| s.end_ns >= s.start_ns && s.op == NO_OP));
    }
}
