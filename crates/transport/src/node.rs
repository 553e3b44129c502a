//! One transport endpoint: a SAMOA runtime running Chunker / Window /
//! Checksum over the simulated network, plus [`TransportNet`] bundling `n`
//! endpoints. Every external event — a datagram, a `send`, a tick — enters
//! the runtime at its entry event ([`Runtime::enter`]), which runs it under
//! the declaration the runtime derived for that event when it was built and
//! decides the thread that runs it; an ack is an entry event of its own, so
//! that it declares less. The endpoint keeps no declaration and no timer
//! slot of its own: [`Ticker::attach`] builds it around its timer.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use samoa_core::prelude::*;
use samoa_net::{
    Alarm, Datagram, Host, NetConfig, NetHandle, ProtoClock, SimNet, SiteId, Ticker, Transport,
};

use crate::checksum::{self, ChecksumState};
use crate::chunker::{self, ChunkerState};
use crate::events::Events;
use crate::frames::{Frame, FrameKind};
use crate::window::{self, WindowState};

/// Endpoint tunables.
#[derive(Debug, Clone)]
pub struct TransportConfig {
    /// Isolation policy of the endpoint's external events.
    pub policy: Policy,
    /// Fragment payload size.
    pub mtu: usize,
    /// Sliding-window size (frames in flight per peer).
    pub window: usize,
    /// Retransmission timeout: the floor of the adaptive RTO. The tail of a
    /// draining window — nothing more queued for the peer — is resent
    /// sooner, more than two round trips after it left. The timer ticks at
    /// the instant the first frame is due, whichever rule makes it due.
    pub rto: Duration,
    /// The time source Window's timeouts read. The endpoint's one
    /// [`Alarm`] is armed on it for Window's next deadline. On the wall
    /// clock (the default) a thread, `tnode-N-timer`, rings it, and sleeps
    /// while nothing is in flight. On a [`ProtoClock::manual`] clock the
    /// timeouts are a function of explicit [`ProtoClock::advance`] calls, no
    /// thread starts, and the driver ([`NetHandle::run_until`]) rings it, or
    /// a test injects ticks of its own choosing ([`Endpoint::inject_tick`]).
    pub clock: ProtoClock,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            policy: Policy::Basic,
            mtu: 64,
            window: 8,
            rto: Duration::from_millis(20),
            clock: ProtoClock::wall(),
        }
    }
}

/// One transport endpoint.
pub struct Endpoint {
    /// This endpoint's site id.
    pub site: SiteId,
    rt: Runtime,
    cfg: TransportConfig,
    ev: Events,
    chunker: ProtocolState<ChunkerState>,
    window: ProtocolState<WindowState>,
    checksum: ProtocolState<ChecksumState>,
    delivered: ProtocolState<Vec<(SiteId, Bytes)>>,
    /// Rung by its thread on the wall clock, by the driver on a manual one.
    timer: Ticker,
}

impl Endpoint {
    /// Build the endpoint, wire its stack, and register it on the network.
    pub fn new(net: NetHandle, site: SiteId, cfg: TransportConfig) -> Arc<Endpoint> {
        Endpoint::with_parts(net, site, cfg, None, false)
    }

    /// The general constructor: [`Endpoint::new`] with an optional
    /// scheduling hook installed and (optionally) history recording enabled
    /// — what `samoa-check` scenarios use to fold the endpoint's
    /// computations into an explored schedule. Combine a hook with
    /// [`SimNet::new_manual`](samoa_net::SimNet::new_manual) and a
    /// [`ProtoClock::manual`] clock so no free-running thread escapes the
    /// controller.
    pub fn with_parts(
        net: NetHandle,
        site: SiteId,
        cfg: TransportConfig,
        hook: Option<Arc<dyn samoa_core::SchedHook>>,
        record_history: bool,
    ) -> Arc<Endpoint> {
        let mut b = StackBuilder::new();
        let p_chunker = b.protocol("Chunker");
        let p_window = b.protocol("Window");
        let p_checksum = b.protocol("Checksum");
        let p_app = b.protocol("TApp");
        let ev = Events::declare(&mut b);

        let chunker_st = ProtocolState::new(p_chunker, ChunkerState::new(cfg.mtu));
        let window_st = ProtocolState::new(
            p_window,
            WindowState::new(cfg.window, cfg.rto, cfg.clock.clone()),
        );
        let checksum_st = ProtocolState::new(p_checksum, ChecksumState::default());
        let delivered = ProtocolState::new(p_app, Vec::new());
        let alarm = Alarm::new(&cfg.clock);

        chunker::register(&mut b, p_chunker, &ev, chunker_st.clone());
        window::register(&mut b, p_window, &ev, window_st.clone(), alarm.clone());
        let transport: Arc<dyn Transport> = Arc::new(net.clone());
        checksum::register(
            &mut b,
            p_checksum,
            &ev,
            checksum_st.clone(),
            site,
            transport,
        );
        {
            let delivered = delivered.clone();
            let e = ev.msg_deliver;
            b.bind_with_triggers(e, p_app, "tapp.deliver", &[], move |ctx, data| {
                let (from, bytes): &(SiteId, Bytes) = data.expect(e)?;
                let item = (*from, bytes.clone());
                delivered.with(ctx, |d| d.push(item));
                Ok(())
            });
        }

        let rt_cfg = if record_history {
            RuntimeConfig::recording()
        } else {
            RuntimeConfig::default()
        };
        let rt = Runtime::with_parts(b.build(), rt_cfg, hook, None);
        let name = format!("tnode-{}-timer", site.0);
        Ticker::attach(site, &net, alarm, name, |timer| Endpoint {
            site,
            rt,
            cfg,
            ev,
            chunker: chunker_st,
            window: window_st,
            checksum: checksum_st,
            delivered,
            timer,
        })
    }

    /// Send `data` reliably and in order to `peer`. Where
    /// [`Runtime::external`] runs inline the request's own computation is
    /// complete on return.
    pub fn send(&self, peer: SiteId, data: impl Into<Bytes>) {
        let data = EventData::new((peer, data.into()));
        self.rt.enter(self.cfg.policy, self.ev.send_msg, data);
    }

    /// Inject one retransmission-timer tick, as the timer thread does at an
    /// armed instant. On a manual clock this is the only way Window
    /// retransmits.
    pub fn inject_tick(&self) {
        self.rt
            .enter(self.cfg.policy, self.ev.tick, EventData::empty());
    }

    /// Messages delivered to the application, in arrival order.
    pub fn delivered(&self) -> Vec<(SiteId, Bytes)> {
        self.delivered.snapshot()
    }

    /// Frames in flight to `peer` (diagnostics).
    pub fn in_flight(&self, peer: SiteId) -> usize {
        self.window.read(|w| w.in_flight(peer))
    }

    /// The instant a tick would first resend something, on the endpoint's
    /// clock: what Window arms the timer at (diagnostics). `None` while
    /// nothing is in flight.
    pub fn next_due(&self) -> Option<Instant> {
        self.window.read(|w| w.next_due())
    }

    /// External computations that ended in an error
    /// ([`RuntimeStats::external_errors`]); 0 on a healthy endpoint.
    pub fn external_errors(&self) -> u64 {
        self.rt.stats().external_errors
    }

    /// Total retransmissions (diagnostics).
    pub fn retransmissions(&self) -> u64 {
        self.window.read(|w| w.retransmissions)
    }

    /// Those of the retransmissions an ack showed to be lost, ahead of the
    /// timer (diagnostics).
    pub fn fast_retransmissions(&self) -> u64 {
        self.window.read(|w| w.fast_retransmissions)
    }

    /// Duplicate frames suppressed (diagnostics).
    pub fn duplicates_suppressed(&self) -> u64 {
        self.window.read(|w| w.duplicates)
    }

    /// Frames dropped for checksum mismatch (diagnostics).
    pub fn corrupt_dropped(&self) -> u64 {
        self.checksum.read(|c| c.corrupt_dropped)
    }

    /// Messages reassembled (diagnostics).
    pub fn reassembled(&self) -> u64 {
        self.chunker.read(|c| c.reassembled)
    }

    /// This endpoint's SAMOA runtime.
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }
}

impl Host for Endpoint {
    fn on_datagram(&self, dg: Datagram) {
        // Classify on the header (like a real stack): an ack is an entry
        // event of its own, so that it declares less.
        let entry = match Frame::peek_kind(&dg.payload) {
            Some(FrameKind::Ack) => self.ev.csum_ack_in,
            _ => self.ev.csum_in,
        };
        let data = EventData::new((dg.from, dg.payload));
        self.rt.enter(self.cfg.policy, entry, data);
    }

    /// A tick computation, unless nothing is in flight — an instant armed
    /// for frames since acknowledged. Window arms the next instant itself.
    fn on_alarm(&self) {
        if self.window.read(|w| w.unacked() > 0) {
            self.inject_tick();
        }
    }

    fn alarm(&self) -> &Alarm {
        self.timer.alarm()
    }

    fn quiesce(&self) {
        self.rt.quiesce();
    }
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("site", &self.site)
            .finish()
    }
}

/// `n` transport endpoints over one simulated network.
pub struct TransportNet {
    net: SimNet,
    endpoints: Vec<Arc<Endpoint>>,
}

impl TransportNet {
    /// Build `n` endpoints over a fresh network.
    pub fn new(n: usize, net_cfg: NetConfig, cfg: TransportConfig) -> TransportNet {
        TransportNet::on(SimNet::new(n, net_cfg), cfg)
    }

    /// Build `n` endpoints over a **manual** network
    /// ([`SimNet::new_manual`]); with a [`ProtoClock::manual`] in `cfg`,
    /// [`NetHandle::run_until`] over [`TransportNet::endpoints`] drives
    /// them on virtual time.
    pub fn new_manual(n: usize, net_cfg: NetConfig, cfg: TransportConfig) -> TransportNet {
        TransportNet::on(SimNet::new_manual(n, net_cfg), cfg)
    }

    fn on(net: SimNet, cfg: TransportConfig) -> TransportNet {
        let n = net.site_count();
        let endpoints = (0..n as u16)
            .map(|i| Endpoint::new(net.handle(), SiteId(i), cfg.clone()))
            .collect();
        TransportNet { net, endpoints }
    }

    /// Endpoint `i`.
    pub fn endpoint(&self, i: usize) -> &Arc<Endpoint> {
        &self.endpoints[i]
    }

    /// Every endpoint, in site order.
    pub fn endpoints(&self) -> &[Arc<Endpoint>] {
        &self.endpoints
    }

    /// The network handle (fault injection, stats).
    pub fn net(&self) -> NetHandle {
        self.net.handle()
    }

    /// Drain in-flight traffic and runtimes to a fixed point
    /// ([`NetHandle::settle`], with its caveats).
    pub fn settle(&self) {
        self.net.settle(|| {
            for e in &self.endpoints {
                e.runtime().quiesce();
            }
        });
    }

    /// Stop all timers and shut the network down.
    pub fn shutdown(&mut self) {
        for e in &self.endpoints {
            e.timer.stop();
        }
        self.net.shutdown();
    }
}

impl Drop for TransportNet {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for TransportNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransportNet")
            .field("endpoints", &self.endpoints.len())
            .finish()
    }
}
