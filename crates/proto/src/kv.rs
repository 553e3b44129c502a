//! Replicated key-value store: an application microprotocol on top of
//! atomic broadcast.
//!
//! `put` / `get` / `cas` commands are encoded into
//! [`AbPayload::User`](crate::msgs::AbPayload) frames, totally ordered by
//! the abcast stack, and applied by a deterministic state machine at every
//! site — textbook state-machine replication, with SAMOA providing the
//! total order and the isolation. Because the commands ride the existing
//! `ABcast`/`ADeliver` events, the store runs unchanged over `SimNet` or
//! `TcpNet`, under every [`StackPolicy`](crate::node::StackPolicy).
//!
//! Reads (`get`) are ordered through abcast like writes, so every
//! operation is linearizable: its point of effect is its position in the
//! total order.
//!
//! The originating site completes the client's pending handle when *it*
//! applies the command (origin-local completion): the reply reflects the
//! state machine at the command's position in the total order. The handle
//! resolves once the applying computation has *completed* — the handler
//! queues the reply with [`Ctx::after_completion`], so it leaves at Rule 3
//! and the client's next request never meets the computation that woke it.
//!
//! One `ADeliver` carries a run of consecutive commands of a decision
//! ([`ARun`]), and the handler applies the whole run in one call. The
//! replies leave once per applying computation, for the whole run:
//! [`KvWaiters::complete_all`] puts every reply in its slot before it wakes
//! anyone, so a client woken for the oldest finds the rest ready.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{BufMut, Bytes, BytesMut};
use parking_lot::{Condvar, Mutex};

use samoa_core::metrics::{Counter, Histogram};
use samoa_core::prelude::*;
use samoa_net::codec::{counted, put_bytes, Reader, Truncated};
use samoa_net::SiteId;

use crate::abcast::ARun;
use crate::events::Events;
use crate::msgs::MsgUid;
use crate::observe::ClusterTracer;

/// Magic prefix distinguishing KV commands from plain abcast user
/// payloads (which the store ignores).
const MAGIC: [u8; 2] = [0xB5, 0x4B];

/// One replicated command. `req` is an origin-local request id used to
/// route the reply back to the issuing client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvCmd {
    /// Set `key` to `value`; replies with the previous value.
    Put {
        /// Origin-local request id.
        req: u64,
        /// Key.
        key: Bytes,
        /// New value.
        value: Bytes,
    },
    /// Read `key` at the command's position in the total order.
    Get {
        /// Origin-local request id.
        req: u64,
        /// Key.
        key: Bytes,
    },
    /// Compare-and-swap: set `key` to `value` iff its current value equals
    /// `expect` (`None` = expect absent). Replies `ok` on success, with the
    /// post-operation value either way.
    Cas {
        /// Origin-local request id.
        req: u64,
        /// Key.
        key: Bytes,
        /// Expected current value (`None` = key absent).
        expect: Option<Bytes>,
        /// Value to install on match.
        value: Bytes,
    },
}

impl KvCmd {
    /// The origin-local request id.
    pub fn req(&self) -> u64 {
        match self {
            KvCmd::Put { req, .. } | KvCmd::Get { req, .. } | KvCmd::Cas { req, .. } => *req,
        }
    }

    /// The key the command touches.
    pub fn key(&self) -> &Bytes {
        match self {
            KvCmd::Put { key, .. } | KvCmd::Get { key, .. } | KvCmd::Cas { key, .. } => key,
        }
    }

    /// How many bytes [`encode`](KvCmd::encode) writes: the writer run
    /// against a counting sink.
    pub fn encoded_len(&self) -> usize {
        counted(|out| self.put(out))
    }

    /// Encode into an abcast user payload.
    pub fn encode(&self) -> Bytes {
        let mut out = BytesMut::with_capacity(self.encoded_len());
        self.put(&mut out);
        out.freeze()
    }

    fn put(&self, out: &mut impl BufMut) {
        out.put_slice(&MAGIC);
        match self {
            KvCmd::Put { req, key, value } => {
                out.put_u8(0);
                out.put_u64_le(*req);
                put_bytes(out, key);
                put_bytes(out, value);
            }
            KvCmd::Get { req, key } => {
                out.put_u8(1);
                out.put_u64_le(*req);
                put_bytes(out, key);
            }
            KvCmd::Cas {
                req,
                key,
                expect,
                value,
            } => {
                out.put_u8(2);
                out.put_u64_le(*req);
                put_bytes(out, key);
                match expect {
                    None => out.put_u8(0),
                    Some(e) => {
                        out.put_u8(1);
                        put_bytes(out, e);
                    }
                }
                put_bytes(out, value);
            }
        }
    }

    /// Decode from an abcast user payload; `None` if it is not a KV frame.
    /// The key and value are windows on `b`, not copies of it.
    pub fn decode(b: &Bytes) -> Option<KvCmd> {
        let mut r = b.clone();
        if r.u16().ok()? != u16::from_le_bytes(MAGIC) {
            return None;
        }
        let cmd = KvCmd::read(&mut r).ok()??;
        r.is_empty().then_some(cmd)
    }

    /// The command after the magic prefix; `Ok(None)` on an unknown tag.
    fn read(r: &mut Bytes) -> std::result::Result<Option<KvCmd>, Truncated> {
        Ok(Some(match r.u8()? {
            0 => KvCmd::Put {
                req: r.u64()?,
                key: r.bytes()?,
                value: r.bytes()?,
            },
            1 => KvCmd::Get {
                req: r.u64()?,
                key: r.bytes()?,
            },
            2 => KvCmd::Cas {
                req: r.u64()?,
                key: r.bytes()?,
                expect: match r.u8()? {
                    0 => None,
                    1 => Some(r.bytes()?),
                    _ => return Ok(None),
                },
                value: r.bytes()?,
            },
            _ => return Ok(None),
        }))
    }
}

/// The outcome of one applied command, reported to the issuing client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvReply {
    /// `true` for `put`/`get`; for `cas`, whether the swap took effect.
    pub ok: bool,
    /// `put`: the previous value; `get`: the read value; `cas`: the
    /// post-operation value.
    pub value: Option<Bytes>,
}

/// One applied command with its position identity in the total order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvApplied {
    /// The abcast uid (origin site + origin sequence number).
    pub uid: MsgUid,
    /// The command.
    pub cmd: KvCmd,
}

/// The deterministic state machine: the map plus the applied-command log.
#[derive(Debug, Default)]
pub struct KvState {
    map: BTreeMap<Bytes, Bytes>,
    log: Vec<KvApplied>,
}

impl KvState {
    /// Apply one command (in total-order position `uid`) and produce its
    /// reply. Pure function of (current state, command) — every site that
    /// applies the same log prefix has byte-identical state.
    pub fn apply(&mut self, uid: MsgUid, cmd: KvCmd) -> KvReply {
        let reply = match &cmd {
            KvCmd::Put { key, value, .. } => KvReply {
                ok: true,
                value: self.map.insert(key.clone(), value.clone()),
            },
            KvCmd::Get { key, .. } => KvReply {
                ok: true,
                value: self.map.get(key).cloned(),
            },
            KvCmd::Cas {
                key, expect, value, ..
            } => {
                let ok = self.map.get(key) == expect.as_ref();
                if ok {
                    self.map.insert(key.clone(), value.clone());
                }
                KvReply {
                    ok,
                    value: self.map.get(key).cloned(),
                }
            }
        };
        self.log.push(KvApplied { uid, cmd });
        reply
    }

    /// Number of applied commands.
    pub fn applied(&self) -> usize {
        self.log.len()
    }

    /// The applied-command log (the site's view of the total order).
    pub fn log(&self) -> &[KvApplied] {
        &self.log
    }

    /// Snapshot of the map.
    pub fn snapshot(&self) -> Vec<(Bytes, Bytes)> {
        self.map
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// FNV-1a digest of the map contents: byte-identical state machines
    /// have equal digests.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |b: &[u8]| {
            for &x in b {
                h ^= x as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (k, v) in &self.map {
            eat(&(k.len() as u64).to_le_bytes());
            eat(k);
            eat(&(v.len() as u64).to_le_bytes());
            eat(v);
        }
        h
    }
}

#[derive(Debug)]
struct WaitCell {
    slot: Mutex<Option<KvReply>>,
    cv: Condvar,
    /// When the client made the request: its reply is timed from here.
    submitted: Instant,
}

/// Routes replies from the state machine back to blocked clients on the
/// originating site, and times each reply into `kv.apply_latency_us`.
/// Cloneable handle; shared between the KV handler and
/// [`Node::kv_put`](crate::node::Node::kv_put)-style entry points.
#[derive(Clone, Default)]
pub struct KvWaiters {
    cells: Arc<Mutex<HashMap<u64, Arc<WaitCell>>>>,
    apply_latency_us: Histogram,
}

impl KvWaiters {
    /// A waiter set that records the submit-to-reply latency of each
    /// request it answers into `apply_latency_us`, in microseconds.
    pub fn new(apply_latency_us: Histogram) -> KvWaiters {
        KvWaiters {
            cells: Arc::default(),
            apply_latency_us,
        }
    }

    /// Create the pending handle for request `req` (called before the
    /// command is broadcast, so the reply cannot race past the waiter).
    pub fn pending(&self, req: u64) -> KvPending {
        let cell = Arc::new(WaitCell {
            slot: Mutex::new(None),
            cv: Condvar::new(),
            submitted: Instant::now(),
        });
        self.cells.lock().insert(req, Arc::clone(&cell));
        KvPending {
            req,
            cell,
            waiters: self.clone(),
        }
    }

    /// Deliver the replies `(req, reply)` of the commands one computation
    /// applied here (queued by the KV handler, run when that computation
    /// has completed). Every reply is in its slot before any client is
    /// woken: one woken for the oldest finds the rest ready and does not
    /// sleep again. A request whose waiter has timed out is skipped. Each
    /// reply is timed before anyone is woken, so a woken client finds its
    /// reply counted.
    pub fn complete_all(&self, replies: Vec<(u64, KvReply)>) {
        let now = Instant::now();
        let filled: Vec<Arc<WaitCell>> = {
            let mut cells = self.cells.lock();
            replies
                .into_iter()
                .filter_map(|(req, reply)| {
                    let cell = cells.remove(&req)?;
                    *cell.slot.lock() = Some(reply);
                    let waited = now.saturating_duration_since(cell.submitted);
                    self.apply_latency_us.observe(waited.as_micros() as u64);
                    Some(cell)
                })
                .collect()
        };
        for cell in filled {
            cell.cv.notify_all();
        }
    }
}

impl std::fmt::Debug for KvWaiters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvWaiters")
            .field("pending", &self.cells.lock().len())
            .finish()
    }
}

/// A client's handle on one in-flight KV operation.
#[derive(Debug)]
pub struct KvPending {
    req: u64,
    cell: Arc<WaitCell>,
    waiters: KvWaiters,
}

impl KvPending {
    /// The origin-local request id.
    pub fn req(&self) -> u64 {
        self.req
    }

    /// Block until the origin site has applied the command and the
    /// computation that applied it has completed — nothing it declared is
    /// still held when this returns — or `timeout` elapses (`None` on
    /// timeout — the command may still apply later; the waiter is
    /// deregistered either way).
    pub fn wait(self, timeout: Duration) -> Option<KvReply> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.cell.slot.lock();
        loop {
            if let Some(r) = slot.take() {
                return Some(r);
            }
            if Instant::now() >= deadline {
                drop(slot);
                self.waiters.cells.lock().remove(&self.req);
                return None;
            }
            self.cell.cv.wait_until(&mut slot, deadline);
        }
    }
}

/// Observability handles for the KV sink.
#[derive(Default)]
pub struct KvObserve {
    /// Re-emits each apply as a causal `KvApply` trace event, when the node
    /// is traced.
    pub tracer: Option<ClusterTracer>,
    /// Counts applies.
    pub applies: Counter,
}

/// Register the KV store on the builder: one handler bound to `ADeliver`
/// (a run of user payloads), applying the KV-framed ones in delivery order.
/// A pure sink within the stack — it triggers nothing — so routing patterns
/// stay unchanged.
pub fn register(
    b: &mut StackBuilder,
    pid: ProtocolId,
    ev: &Events,
    state: ProtocolState<KvState>,
    waiters: KvWaiters,
    site: SiteId,
    observe: KvObserve,
) -> HandlerId {
    let KvObserve { tracer, applies } = observe;
    let e = ev.adeliver;
    b.bind_with_triggers(e, pid, "kv.on_adeliver", &[], move |ctx, data| {
        let run: &ARun = data.expect(e)?;
        // The replies owed to this site's clients, in apply order.
        let replies = state.with(ctx, |s| {
            let mut replies = Vec::new();
            for (uid, bytes) in run {
                let Some(cmd) = KvCmd::decode(bytes) else {
                    continue; // plain atomic-broadcast data
                };
                let req = cmd.req();
                let reply = s.apply(*uid, cmd);
                if let Some(t) = &tracer {
                    t.emit(samoa_core::TraceKind::KvApply {
                        site: site.0,
                        origin: uid.origin.0,
                        op: uid.seq,
                    });
                }
                applies.inc();
                if uid.origin == site {
                    replies.push((req, reply));
                }
            }
            replies
        });
        if !replies.is_empty() {
            // The replies leave at Rule 3, not here: woken inside the
            // handler, a client's next request would be handed versions
            // behind this very computation and wait for it.
            let waiters = waiters.clone();
            ctx.after_completion(move || waiters.complete_all(replies));
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uid(origin: u16, seq: u64) -> MsgUid {
        MsgUid {
            origin: SiteId(origin),
            seq,
        }
    }

    #[test]
    fn cmd_codec_roundtrips() {
        let cmds = [
            KvCmd::Put {
                req: 7,
                key: Bytes::from_static(b"k"),
                value: Bytes::from_static(b"v"),
            },
            KvCmd::Get {
                req: 8,
                key: Bytes::from_static(b""),
            },
            KvCmd::Cas {
                req: 9,
                key: Bytes::from_static(b"k"),
                expect: None,
                value: Bytes::from_static(b"n"),
            },
            KvCmd::Cas {
                req: 10,
                key: Bytes::from_static(b"k"),
                expect: Some(Bytes::from_static(b"old")),
                value: Bytes::from_static(b"new"),
            },
        ];
        for c in cmds {
            let encoded = c.encode();
            assert_eq!(encoded.len(), c.encoded_len(), "{c:?}");
            assert_eq!(KvCmd::decode(&encoded), Some(c));
        }
    }

    #[test]
    fn non_kv_payloads_are_ignored() {
        assert_eq!(KvCmd::decode(&Bytes::from_static(b"hello")), None);
        assert_eq!(KvCmd::decode(&Bytes::from_static(b"")), None);
        // Truncated KV frame.
        let mut enc = KvCmd::Get {
            req: 1,
            key: Bytes::from_static(b"key"),
        }
        .encode()
        .to_vec();
        enc.pop();
        assert_eq!(KvCmd::decode(&Bytes::from(enc)), None);
        // Trailing garbage.
        let mut enc = KvCmd::Get {
            req: 1,
            key: Bytes::from_static(b"key"),
        }
        .encode()
        .to_vec();
        enc.push(0);
        assert_eq!(KvCmd::decode(&Bytes::from(enc)), None);
    }

    #[test]
    fn state_machine_is_deterministic() {
        let script = [
            KvCmd::Put {
                req: 1,
                key: Bytes::from_static(b"a"),
                value: Bytes::from_static(b"1"),
            },
            KvCmd::Cas {
                req: 2,
                key: Bytes::from_static(b"a"),
                expect: Some(Bytes::from_static(b"1")),
                value: Bytes::from_static(b"2"),
            },
            KvCmd::Cas {
                req: 3,
                key: Bytes::from_static(b"a"),
                expect: Some(Bytes::from_static(b"1")),
                value: Bytes::from_static(b"3"),
            },
            KvCmd::Get {
                req: 4,
                key: Bytes::from_static(b"a"),
            },
        ];
        let mut s1 = KvState::default();
        let mut s2 = KvState::default();
        let r1: Vec<KvReply> = script
            .iter()
            .enumerate()
            .map(|(i, c)| s1.apply(uid(0, i as u64), c.clone()))
            .collect();
        let r2: Vec<KvReply> = script
            .iter()
            .enumerate()
            .map(|(i, c)| s2.apply(uid(0, i as u64), c.clone()))
            .collect();
        assert_eq!(r1, r2);
        assert_eq!(s1.digest(), s2.digest());
        assert!(!r1[2].ok, "stale cas must fail");
        assert_eq!(r1[3].value, Some(Bytes::from_static(b"2")));
        assert_eq!(s1.applied(), 4);
    }

    #[test]
    fn digest_distinguishes_states() {
        let mut a = KvState::default();
        let mut b = KvState::default();
        a.apply(
            uid(0, 0),
            KvCmd::Put {
                req: 1,
                key: Bytes::from_static(b"k"),
                value: Bytes::from_static(b"v1"),
            },
        );
        b.apply(
            uid(0, 0),
            KvCmd::Put {
                req: 1,
                key: Bytes::from_static(b"k"),
                value: Bytes::from_static(b"v2"),
            },
        );
        assert_ne!(a.digest(), b.digest());
    }

    fn ok(v: &'static [u8]) -> KvReply {
        KvReply {
            ok: true,
            value: Some(Bytes::from_static(v)),
        }
    }

    #[test]
    fn waiters_complete_and_timeout() {
        let w = KvWaiters::default();
        let p = w.pending(1);
        w.complete_all(vec![(1, ok(b"1"))]);
        assert_eq!(p.wait(Duration::from_millis(10)), Some(ok(b"1")));
        let p2 = w.pending(2);
        assert!(p2.wait(Duration::from_millis(10)).is_none());
        // Completing after timeout is a no-op, not a panic.
        w.complete_all(vec![(2, ok(b"2"))]);
    }

    /// Is the thread of this process named `name` asleep (procfs state
    /// `S`)?
    fn asleep(name: &str) -> bool {
        let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
        tasks.filter_map(|task| task.ok()).any(|task| {
            let read = |file| std::fs::read_to_string(task.path().join(file)).unwrap_or_default();
            // `stat` is `pid (comm) state …`.
            read("comm").trim_end() == name
                && read("stat")
                    .rsplit(") ")
                    .next()
                    .unwrap_or("")
                    .starts_with('S')
        })
    }

    #[test]
    fn a_client_woken_for_the_oldest_reply_finds_the_rest_of_the_run_ready() {
        const CLIENT: &str = "kv-run-client";
        let w = KvWaiters::default();
        let first = w.pending(1);
        let rest: Vec<KvPending> = (2..=4).map(|req| w.pending(req)).collect();
        let last = Arc::clone(&w.cells.lock()[&4]);
        let (woke, woken) = std::sync::mpsc::channel();
        let client = std::thread::Builder::new()
            .name(CLIENT.into())
            .spawn(move || {
                let reply = first.wait(Duration::from_secs(60));
                woke.send(()).ok();
                // Woken for the first: every other reply of that call is
                // already in its slot, so none of these waits.
                let others: Vec<_> = rest.into_iter().map(|p| p.wait(Duration::ZERO)).collect();
                (reply, others)
            })
            .expect("spawn the client");
        // The client is blocked on the first slot before any reply lands…
        while !asleep(CLIENT) {
            std::thread::yield_now();
        }
        // …and the last cannot land until this guard goes: the first three
        // may, but whoever wakes the client before the fourth is in place
        // is caught here.
        let held = last.slot.lock();
        let completer = {
            let w = w.clone();
            std::thread::spawn(move || w.complete_all((1..=4).map(|r| (r, ok(b"v"))).collect()))
        };
        let early = woken.recv_timeout(Duration::from_millis(100));
        assert!(early.is_err(), "woken with the fourth reply still out");
        drop(held);
        completer.join().expect("completer thread");
        let (reply, others) = client.join().expect("client thread");
        assert_eq!(reply, Some(ok(b"v")));
        assert_eq!(others, vec![Some(ok(b"v")); 3]);
    }

    #[test]
    fn decode_windows_the_frame_it_is_given() {
        let frame = KvCmd::Cas {
            req: 3,
            key: Bytes::from_static(b"key"),
            expect: Some(Bytes::from_static(b"old")),
            value: Bytes::from_static(b"new"),
        }
        .encode();
        let Some(KvCmd::Cas {
            key, expect, value, ..
        }) = KvCmd::decode(&frame)
        else {
            panic!("not a cas");
        };
        let within = |b: &Bytes| {
            let (lo, at) = (frame.as_ptr() as usize, b.as_ptr() as usize);
            lo <= at && at + b.len() <= lo + frame.len()
        };
        assert!(within(&key) && within(&value) && expect.as_ref().is_some_and(within));
    }
}
