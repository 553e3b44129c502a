//! Production-safe metrics: counters, gauges and histograms behind the same
//! one-branch zero-cost-when-uninstalled discipline as [`TraceSink`].
//!
//! A component that wants instrumentation holds an `Option<...>` bundle of
//! cloned instrument handles. With no [`Registry`] installed the bundle is
//! `None` and the hot path pays exactly one never-taken branch — no
//! allocation, no atomic, no lock. The process-global [`instruments_touched`]
//! counter (incremented on every instrument mutation, mirroring
//! [`events_emitted`]) lets a guard test *prove* that claim:
//! `crates/proto/tests/no_registry_guard.rs` runs a full cluster workload
//! with no registry and asserts the counter stayed at zero.
//!
//! Instruments are name-addressed and get-or-create, so independent
//! components converge on the same instrument by naming convention
//! (`site{N}.{protocol}.{metric}` across a cluster). A [`MetricsSnapshot`]
//! is a point-in-time copy, sorted by name, renderable as JSON or text.
//!
//! [`TraceSink`]: crate::trace::TraceSink
//! [`events_emitted`]: crate::trace::events_emitted

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Process-global count of instrument mutations (`inc`/`add`/`set`/
/// `observe`) since process start. With no registry installed nowhere holds
/// an instrument handle, so a workload that leaves this unchanged has proven
/// its metrics hot path is branch-only.
pub fn instruments_touched() -> u64 {
    TOUCHED.load(Ordering::Relaxed)
}

static TOUCHED: AtomicU64 = AtomicU64::new(0);

/// A monotonically increasing counter. Cloning shares the underlying cell.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        TOUCHED.fetch_add(1, Ordering::Relaxed);
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge. Cloning shares the underlying cell.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: u64) {
        TOUCHED.fetch_add(1, Ordering::Relaxed);
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value-recording histogram (unit chosen by the caller; cluster
/// instruments record microseconds). Cloning shares the underlying samples.
#[derive(Clone)]
pub struct Histogram(Arc<Mutex<Vec<u64>>>);

impl Histogram {
    /// Record one sample.
    pub fn observe(&self, v: u64) {
        TOUCHED.fetch_add(1, Ordering::Relaxed);
        self.0.lock().push(v);
    }

    /// Copy of the raw samples, in recording order.
    pub fn samples(&self) -> Vec<u64> {
        self.0.lock().clone()
    }
}

enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// Name-addressed instrument store. Get-or-create: asking twice for the same
/// name returns handles to the same underlying instrument.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Instrument>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, created on first use.
    ///
    /// # Panics
    /// If `name` already names a gauge or histogram.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock();
        match inner
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Counter(Counter(Arc::new(AtomicU64::new(0)))))
        {
            Instrument::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// The gauge named `name`, created on first use.
    ///
    /// # Panics
    /// If `name` already names a counter or histogram.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock();
        match inner
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Gauge(Gauge(Arc::new(AtomicU64::new(0)))))
        {
            Instrument::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// The histogram named `name`, created on first use.
    ///
    /// # Panics
    /// If `name` already names a counter or gauge.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut inner = self.inner.lock();
        match inner
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Histogram(Histogram(Arc::new(Mutex::new(Vec::new())))))
        {
            Instrument::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Point-in-time copy of every instrument, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock();
        let mut counters = BTreeMap::new();
        let mut gauges = BTreeMap::new();
        let mut histograms = BTreeMap::new();
        for (name, inst) in inner.iter() {
            match inst {
                Instrument::Counter(c) => {
                    counters.insert(name.clone(), c.get());
                }
                Instrument::Gauge(g) => {
                    gauges.insert(name.clone(), g.get());
                }
                Instrument::Histogram(h) => {
                    histograms.insert(name.clone(), HistogramSummary::from_samples(&h.samples()));
                }
            }
        }
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// Summary statistics of one histogram at snapshot time. Percentiles use the
/// same nearest-rank rule as [`crate::trace::percentile_us`] but stay in the
/// histogram's own unit.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Number of samples recorded.
    pub count: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl HistogramSummary {
    fn from_samples(samples: &[u64]) -> HistogramSummary {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let pct = |q: f64| {
            if sorted.is_empty() {
                0.0
            } else {
                let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                sorted[rank - 1] as f64
            }
        };
        HistogramSummary {
            count: sorted.len() as u64,
            min: sorted.first().copied().unwrap_or(0),
            max: sorted.last().copied().unwrap_or(0),
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
        }
    }
}

/// Point-in-time copy of a [`Registry`], sorted by name.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl MetricsSnapshot {
    /// The snapshot as a JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {name: {count,
    /// min, max, p50, p95, p99}}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        push_u64_map(&mut out, &self.counters);
        out.push_str("},\"gauges\":{");
        push_u64_map(&mut out, &self.gauges);
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{}:{{\"count\":{},\"min\":{},\"max\":{},\"p50\":{:.1},\"p95\":{:.1},\"p99\":{:.1}}}",
                json_name(name),
                h.count,
                h.min,
                h.max,
                h.p50,
                h.p95,
                h.p99
            ));
        }
        out.push_str("}}");
        out
    }

    /// A plain-text rendering, one instrument per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("{name:<44} {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("{name:<44} {v} (gauge)\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "{name:<44} n={} min={} p50={:.0} p95={:.0} p99={:.0} max={}\n",
                h.count, h.min, h.p50, h.p95, h.p99, h.max
            ));
        }
        out
    }
}

fn push_u64_map(out: &mut String, map: &BTreeMap<String, u64>) {
    for (i, (name, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{}:{}", json_name(name), v));
    }
}

fn json_name(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_shares_state() {
        let r = Registry::new();
        r.counter("a").add(3);
        r.counter("a").inc();
        assert_eq!(r.counter("a").get(), 4);
        r.gauge("g").set(7);
        r.gauge("g").set(9);
        assert_eq!(r.gauge("g").get(), 9);
        r.histogram("h").observe(10);
        r.histogram("h").observe(20);
        assert_eq!(r.histogram("h").samples(), vec![10, 20]);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    /// The locks do not poison: a caller that dies inside the instruments
    /// takes nobody else's computation with it.
    #[test]
    fn a_panic_inside_an_instrument_leaves_it_usable() {
        let r = Arc::new(Registry::new());
        let h = r.histogram("h");
        // One observer dies holding the histogram's lock...
        let observer = h.clone();
        let died = std::thread::spawn(move || {
            let _samples = observer.0.lock();
            panic!("observer died");
        });
        assert!(died.join().is_err());
        h.observe(7);
        assert_eq!(h.samples(), vec![7]);
        // ...another holding the registry's (the kind check panics under it).
        let registrant = Arc::clone(&r);
        assert!(std::thread::spawn(move || registrant.counter("h"))
            .join()
            .is_err());
        r.histogram("h").observe(8);
        assert_eq!(r.snapshot().histograms["h"].count, 2);
    }

    #[test]
    fn snapshot_sorted_and_summarised() {
        let r = Registry::new();
        r.counter("z.sent").add(2);
        r.counter("a.sent").add(1);
        let h = r.histogram("m.lat");
        for v in [5u64, 1, 9, 3, 7] {
            h.observe(v);
        }
        let s = r.snapshot();
        let names: Vec<&String> = s.counters.keys().collect();
        assert_eq!(names, vec!["a.sent", "z.sent"]);
        let hs = &s.histograms["m.lat"];
        assert_eq!((hs.count, hs.min, hs.max), (5, 1, 9));
        assert_eq!(hs.p50, 5.0);
        assert_eq!(hs.p99, 9.0);
    }

    #[test]
    fn json_parses_and_contains_everything() {
        let r = Registry::new();
        r.counter("c").inc();
        r.gauge("g").set(3);
        r.histogram("h").observe(4);
        let json = r.snapshot().to_json();
        let v = serde_json::from_str(&json).expect("snapshot JSON must parse");
        match v {
            serde_json::Value::Object(o) => {
                assert!(o.contains_key("counters"));
                assert!(o.contains_key("gauges"));
                assert!(o.contains_key("histograms"));
            }
            _ => panic!("snapshot JSON must be an object"),
        }
        assert!(json.contains("\"c\":1"));
        assert!(json.contains("\"g\":3"));
        assert!(json.contains("\"count\":1"));
    }

    #[test]
    fn render_lists_every_instrument() {
        let r = Registry::new();
        r.counter("sent").add(12);
        r.gauge("depth").set(2);
        r.histogram("lat").observe(100);
        let text = r.snapshot().render();
        assert!(text.contains("sent"));
        assert!(text.contains("depth"));
        assert!(text.contains("lat"));
    }
}
