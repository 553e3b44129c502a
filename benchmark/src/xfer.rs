//! `xfer-sim-lossy`: the `samoa-transport` stack (Chunker / Window /
//! Checksum) moving messages between two endpoints over a SimNet that
//! loses, duplicates and corrupts datagrams. The only workload on the
//! second ARQ implementation; `samoa-proto` does nothing here.
//!
//! One closed-loop client on endpoint 0 sends a message to endpoint 1,
//! waits until it was reassembled there, and sends the next. An operation
//! is one message (`MESSAGE_BYTES`, i.e. `FRAGS_PER_MESSAGE` fragments).

use std::time::{Duration, Instant};

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use samoa_net::{NetConfig, SiteId};
use samoa_transport::{TransportConfig, TransportNet};

use crate::harness::{Counters, Gate, Workload};
use crate::load::{self, OpRecord, Round};
use crate::probes;
use crate::report::Report;
use crate::spans::{op_id, write_trace_file, Span};

const MTU: usize = 256;
const FRAGS_PER_MESSAGE: usize = 64;
pub const MESSAGE_BYTES: usize = MTU * FRAGS_PER_MESSAGE;
const LOSS: f64 = 0.03;
const DUPLICATION: f64 = 0.02;
const CORRUPTION: f64 = 0.01;
/// Messages sent before the first measured round.
const WARMUP_MESSAGES: usize = 4;
/// How long the client waits for one message before counting it failed.
const MESSAGE_TIMEOUT: Duration = Duration::from_secs(10);

pub struct XferLossy {
    pub seed: u64,
}

pub struct XferEnv {
    net: TransportNet,
    rng: StdRng,
    /// Every message handed to `send`, in order.
    sent: Vec<Bytes>,
    epoch: Instant,
}

impl XferEnv {
    /// Closed loop, window 1, until `deadline`.
    fn run(&mut self, deadline: Instant) -> Vec<OpRecord> {
        let XferEnv {
            net,
            rng,
            sent,
            epoch,
        } = self;
        let receiver = net.endpoint(1);
        load::closed_loop(
            0,
            *epoch,
            deadline,
            1,
            || {
                let mut body = vec![0u8; MESSAGE_BYTES];
                for chunk in body.chunks_mut(8) {
                    chunk.copy_from_slice(&rng.next_u64().to_le_bytes()[..chunk.len()]);
                }
                let msg = Bytes::from(body);
                sent.push(msg.clone());
                net.endpoint(0).send(SiteId(1), msg);
                (0, sent.len() as u64, sent.len() as u64)
            },
            |expect_reassembled: u64| {
                let end = Instant::now() + MESSAGE_TIMEOUT;
                while receiver.reassembled() < expect_reassembled {
                    if Instant::now() > end {
                        return false;
                    }
                    std::thread::sleep(Duration::from_micros(500));
                }
                true
            },
        )
    }
}

impl Workload for XferLossy {
    type Env = XferEnv;

    /// The 10 ms retransmission timer sets the pace, not the processor.
    fn cpu_bound(&self) -> bool {
        false
    }

    /// Tracing has nothing to attach to here: `Endpoint` takes a bare
    /// `NetHandle` and builds its own untraced runtime, so the traced phase
    /// is a second untraced one (and `trace.overhead_ratio` reads ~1).
    fn setup(&self, _traced: bool) -> XferEnv {
        let net_cfg = NetConfig::fast(self.seed)
            .with_loss(LOSS)
            .with_duplicates(DUPLICATION)
            .with_corruption(CORRUPTION);
        let cfg = TransportConfig {
            mtu: MTU,
            window: 16,
            rto: Duration::from_millis(10),
            ..TransportConfig::default()
        };
        let mut env = XferEnv {
            net: TransportNet::new(2, net_cfg, cfg),
            rng: StdRng::seed_from_u64(self.seed),
            sent: Vec::new(),
            epoch: Instant::now(),
        };
        while env.sent.len() < WARMUP_MESSAGES {
            env.run(Instant::now() + Duration::from_millis(1));
        }
        env
    }

    fn round(&self, env: &mut XferEnv, deadline: Instant) -> Vec<OpRecord> {
        env.run(deadline)
    }

    fn counters(&self, env: &XferEnv) -> Counters {
        let (a, b) = (env.net.endpoint(0), env.net.endpoint(1));
        let mut c = Counters::of_runtimes([a.runtime(), b.runtime()]);
        let s = env.net.net().total_stats();
        c.datagrams = s.sent;
        c.net_dropped = s.dropped();
        c.frags = (env.sent.len() * FRAGS_PER_MESSAGE) as u64;
        c.xfer_retransmissions = a.retransmissions() + b.retransmissions();
        c.xfer_dups = a.duplicates_suppressed() + b.duplicates_suppressed();
        c.xfer_corrupt = a.corrupt_dropped() + b.corrupt_dropped();
        c
    }

    /// The gate: what endpoint 1 delivered is byte-identical to what was
    /// sent, message for message, in order.
    fn verify(&self, env: &mut XferEnv) -> Gate {
        // `reassembled` (what the client polls) moves a handler before the
        // application's delivery list does.
        let end = Instant::now() + Duration::from_secs(5);
        while env.net.endpoint(1).delivered().len() < env.sent.len() && Instant::now() < end {
            std::thread::sleep(Duration::from_millis(1));
        }
        let delivered = env.net.endpoint(1).delivered();
        if delivered.len() != env.sent.len() {
            return Err(format!(
                "{} messages delivered, {} sent",
                delivered.len(),
                env.sent.len()
            ));
        }
        for (i, ((from, got), want)) in delivered.iter().zip(&env.sent).enumerate() {
            if *from != SiteId(0) || got != want {
                return Err(format!("message {i} was not delivered intact"));
            }
        }
        Ok(())
    }

    fn layer_report(&self, _env: &XferEnv, rounds: &[Round], r: &mut Report) {
        let mib = |round: &Round| {
            (round.completed() * MESSAGE_BYTES) as f64 / (1 << 20) as f64 / round.wall_s.max(1e-9)
        };
        r.rounds("transport.goodput_mib_s", &load::per_round(rounds, mib));
    }

    /// Only the benchmark's own spans exist here (one per message, send to
    /// reassembled); they still make a loadable trace file.
    fn traced_report(&self, _env: &mut XferEnv, rounds: &[Round], r: &mut Report) -> u64 {
        let spans: Vec<Span> = rounds
            .iter()
            .flat_map(|r| &r.ops)
            .map(|o| Span {
                name: "client.op",
                parent: None,
                op: op_id(0, o.tag),
                pid: 0,
                tid: 10,
                start_ns: o.start_ns,
                end_ns: o.done_ns,
            })
            .collect();
        write_trace_file("xfer-sim-lossy", &spans, &[]);
        r.single("trace.dropped_events", 0.0, 1);
        spans.len() as u64
    }

    fn probes(&self, budget: Duration, r: &mut Report) {
        probes::transport_codecs(budget / 4, r);
        probes::net_sim(self.seed, budget / 4, r);
    }
}
