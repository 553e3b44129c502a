//! Cluster-side observability: the causal tracer a node installs when
//! tracing is requested, and the per-protocol metric instrument bundles
//! every node keeps.
//!
//! Tracing is opt-in: protocol states hold the tracer as an `Option`, and
//! with no sink the hot path pays a never-taken branch, pinned by
//! `crates/core/tests/no_sink_guard.rs` (via
//! [`samoa_core::trace::events_emitted`]) and
//! `crates/proto/tests/no_tracer_guard.rs`. Counts are always kept: a
//! bundle's `Default` is detached instruments that no registry holds, and a
//! registry in [`Observe`](crate::Observe) only names them
//! (`site{N}.{protocol}.{metric}`).

use std::sync::Arc;
use std::time::Instant;

use samoa_core::metrics::{Counter, Gauge, Histogram, Registry};
use samoa_core::trace::{self, TraceKind, TraceSink};
use samoa_net::SiteId;

/// A per-node handle that emits cluster-level [`TraceKind`] events into a
/// trace sink, stamped against a cluster-wide epoch so spans from different
/// sites land on one comparable timeline.
#[derive(Clone)]
pub struct ClusterTracer {
    site: SiteId,
    sink: Arc<dyn TraceSink>,
    epoch: Instant,
}

impl ClusterTracer {
    /// A tracer for `site` emitting into `sink`, timestamped against
    /// `epoch` (share one epoch across all of a cluster's tracers).
    pub fn new(site: SiteId, sink: Arc<dyn TraceSink>, epoch: Instant) -> ClusterTracer {
        ClusterTracer { site, sink, epoch }
    }

    /// The site this tracer reports for.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Nanoseconds since the cluster epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Emit one event (counts against `events_emitted`, like runtime-internal
    /// emission).
    pub fn emit(&self, kind: TraceKind) {
        trace::emit(&self.sink, self.epoch, kind);
    }
}

/// RelComm instruments: retransmission and send counters plus the current
/// adaptive RTO.
#[derive(Clone, Default)]
pub struct RelCommInstruments {
    /// Frames sent (first transmissions).
    pub sends: Counter,
    /// Retransmissions performed.
    pub retransmits: Counter,
    /// Sends discarded (target out of view).
    pub discards: Counter,
    /// Latest effective RTO toward any peer, in microseconds.
    pub rto_us: Gauge,
}

impl RelCommInstruments {
    /// Instruments named `site{N}.relcomm.*` in `reg`.
    pub fn new(reg: &Registry, site: SiteId) -> RelCommInstruments {
        let p = format!("site{}.relcomm", site.0);
        RelCommInstruments {
            sends: reg.counter(&format!("{p}.sends")),
            retransmits: reg.counter(&format!("{p}.retransmits")),
            discards: reg.counter(&format!("{p}.discards")),
            rto_us: reg.gauge(&format!("{p}.rto_us")),
        }
    }
}

/// Consensus instruments: rounds started and views installed.
#[derive(Clone, Default)]
pub struct ConsensusInstruments {
    /// Consensus rounds started (coordinator collect phases).
    pub rounds: Counter,
    /// Membership views installed.
    pub view_changes: Counter,
}

impl ConsensusInstruments {
    /// Instruments named `site{N}.consensus.*` in `reg`.
    pub fn new(reg: &Registry, site: SiteId) -> ConsensusInstruments {
        let p = format!("site{}.consensus", site.0);
        ConsensusInstruments {
            rounds: reg.counter(&format!("{p}.rounds")),
            view_changes: reg.counter(&format!("{p}.view_changes")),
        }
    }
}

/// Abcast instruments: deliveries and submit-to-delivery lag.
#[derive(Clone, Default)]
pub struct AbcastInstruments {
    /// Messages delivered in total order.
    pub delivered: Counter,
    /// Submit-to-delivery lag for locally submitted operations, µs.
    pub lag_us: Histogram,
}

impl AbcastInstruments {
    /// Instruments named `site{N}.abcast.*` in `reg`.
    pub fn new(reg: &Registry, site: SiteId) -> AbcastInstruments {
        let p = format!("site{}.abcast", site.0);
        AbcastInstruments {
            delivered: reg.counter(&format!("{p}.delivered")),
            lag_us: reg.histogram(&format!("{p}.lag_us")),
        }
    }
}

/// KV instruments: applies and client-observed apply latency.
#[derive(Clone, Default)]
pub struct KvInstruments {
    /// Commands applied to the replicated state machine.
    pub applies: Counter,
    /// Submit-to-reply latency for locally submitted commands, µs.
    pub apply_latency_us: Histogram,
}

impl KvInstruments {
    /// Instruments named `site{N}.kv.*` in `reg`.
    pub fn new(reg: &Registry, site: SiteId) -> KvInstruments {
        let p = format!("site{}.kv", site.0);
        KvInstruments {
            applies: reg.counter(&format!("{p}.applies")),
            apply_latency_us: reg.histogram(&format!("{p}.apply_latency_us")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samoa_core::TraceBuffer;

    #[test]
    fn tracer_emits_into_sink() {
        let buf = TraceBuffer::with_capacity(2, 64);
        let t = ClusterTracer::new(SiteId(1), buf.clone(), Instant::now());
        t.emit(TraceKind::ClientSubmit { site: 1, op: 7 });
        let events = buf.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, TraceKind::ClientSubmit { site: 1, op: 7 });
    }

    #[test]
    fn instruments_share_registry_names() {
        let reg = Registry::new();
        let a = RelCommInstruments::new(&reg, SiteId(0));
        let b = RelCommInstruments::new(&reg, SiteId(0));
        a.retransmits.inc();
        b.retransmits.inc();
        assert_eq!(a.retransmits.get(), 2);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["site0.relcomm.retransmits"], 2);
    }
}
