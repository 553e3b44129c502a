//! Production metrics: counters, gauges and histograms, always on.
//!
//! An instrument is a handle on shared atomics. An update is one relaxed
//! atomic operation (a histogram's adds one to a bucket, and moves its min
//! or max too when the value is a new extreme), with no lock and no
//! allocation, and a histogram is a fixed array of buckets however much it
//! records. So counts are always kept: a component holds its instruments
//! whether or not anybody reads them, the `Default` of one is a detached
//! instrument that no registry holds, and installing a [`Registry`] only
//! decides which names they are read by. Tracing is what stays opt-in
//! ([`TraceSink`]).
//!
//! Instruments are name-addressed and get-or-create, so independent
//! components converge on the same instrument by naming convention
//! (`site{N}.{protocol}.{metric}` across a cluster). A [`MetricsSnapshot`]
//! is a point-in-time copy, sorted by name, renderable as JSON or text.
//!
//! [`TraceSink`]: crate::trace::TraceSink

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use parking_lot::Mutex;

/// A monotonically increasing counter. Cloning shares the underlying cell.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// A last-write-wins gauge. Cloning shares the underlying cell.
#[derive(Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// Sub-buckets per octave, as a power of two: a value of `2^SUB_BITS` or
/// more lands in a bucket `2^-SUB_BITS` of its octave wide (log-linear
/// buckets, as in HdrHistogram), and a smaller value in a bucket of its own.
const SUB_BITS: u32 = 4;

/// Enough buckets for every `u64`: 16 exact ones, then 16 per octave for
/// the octaves `[2^4, 2^5)` up to `[2^63, 2^64)`.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) << SUB_BITS;

/// The bucket `v` lands in. Below 16 that is `v`; above, the octave's
/// exponent picks a run of 16 buckets and the four bits under the top one
/// pick the bucket in it.
fn bucket_of(v: u64) -> usize {
    let shift = (63 - (v | 1).leading_zeros()).saturating_sub(SUB_BITS);
    ((shift as usize) << SUB_BITS) + (v >> shift) as usize
}

/// The smallest value in bucket `i`, and how many values it holds.
fn bucket_range(i: usize) -> (u64, u64) {
    let shift = ((i >> SUB_BITS) as u32).saturating_sub(1);
    let top = (i - ((shift as usize) << SUB_BITS)) as u64;
    (top << shift, 1 << shift)
}

struct Buckets {
    counts: [AtomicU64; BUCKETS],
    min: AtomicU64,
    max: AtomicU64,
}

/// A value-recording histogram (unit chosen by the caller; cluster
/// instruments record microseconds). Fixed-size and atomic: values below 16
/// are kept exactly, a larger one in a bucket 1/16 of its octave wide, so a
/// percentile is within 1/32 of the recorded value it stands for; the count,
/// min and max are exact. Cloning shares the underlying buckets.
#[derive(Clone)]
pub struct Histogram(Arc<Buckets>);

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram(Arc::new(Buckets {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// Record one sample.
    pub fn observe(&self, v: u64) {
        let h = &*self.0;
        h.counts[bucket_of(v)].fetch_add(1, Relaxed);
        if v < h.min.load(Relaxed) {
            h.min.fetch_min(v, Relaxed);
        }
        if v > h.max.load(Relaxed) {
            h.max.fetch_max(v, Relaxed);
        }
    }

    /// Count, extremes and nearest-rank percentiles of what was recorded.
    /// A percentile is its bucket's middle value, kept inside `[min, max]`.
    fn summary(&self) -> HistogramSummary {
        let h = &*self.0;
        let counts: Vec<u64> = h.counts.iter().map(|c| c.load(Relaxed)).collect();
        let count: u64 = counts.iter().sum();
        if count == 0 {
            return HistogramSummary::default();
        }
        let (min, max) = (h.min.load(Relaxed), h.max.load(Relaxed));
        let pct = |q: f64| {
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut below = 0;
            let i = counts
                .iter()
                .position(|&c| {
                    below += c;
                    below >= rank
                })
                .unwrap_or(BUCKETS - 1);
            let (low, width) = bucket_range(i);
            (low as f64 + (width - 1) as f64 / 2.0)
                .max(min as f64)
                .min(max as f64)
        };
        HistogramSummary {
            count,
            min,
            max,
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
        }
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
        self.get_or_create(name, Instrument::Counter, |i| match i {
            Instrument::Counter(c) => Some(c),
            _ => None,
        })
    }

    /// The gauge named `name`, created on first use.
    ///
    /// # Panics
    /// If `name` already names a counter or histogram.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.get_or_create(name, Instrument::Gauge, |i| match i {
            Instrument::Gauge(g) => Some(g),
            _ => None,
        })
    }

    /// The histogram named `name`, created on first use.
    ///
    /// # Panics
    /// If `name` already names a counter or gauge.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.get_or_create(name, Instrument::Histogram, |i| match i {
            Instrument::Histogram(h) => Some(h),
            _ => None,
        })
    }

    /// The instrument named `name` as a `T`, created by `wrap`ping a fresh
    /// one on first use and read back by `kind`.
    fn get_or_create<T: Clone + Default>(
        &self,
        name: &str,
        wrap: fn(T) -> Instrument,
        kind: fn(&Instrument) -> Option<&T>,
    ) -> T {
        let mut inner = self.inner.lock();
        let inst = inner
            .entry(name.to_string())
            .or_insert_with(|| wrap(T::default()));
        match kind(inst) {
            Some(t) => t.clone(),
            None => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Point-in-time copy of every instrument, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock();
        let mut snap = MetricsSnapshot::default();
        for (name, inst) in inner.iter() {
            match inst {
                Instrument::Counter(c) => {
                    snap.counters.insert(name.clone(), c.get());
                }
                Instrument::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.get());
                }
                Instrument::Histogram(h) => {
                    snap.histograms.insert(name.clone(), h.summary());
                }
            }
        }
        snap
    }
}

/// Summary statistics of one histogram at snapshot time. Percentiles use the
/// same nearest-rank rule as [`crate::trace::percentile_us`], to within a
/// bucket (see [`Histogram`]), and stay in the histogram's own unit.
#[derive(Debug, Clone, Default, PartialEq)]
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
                json_string(name),
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
        out.push_str(&format!("{}:{}", json_string(name), v));
    }
}

/// `s` as a quoted JSON string: `"` and `\` escaped, `\n`, `\r` and `\t`
/// by name, every other control character as `\u00XX`, anything else —
/// non-ASCII text included — as it is. The one escaper of the workspace:
/// the metrics snapshot, `samoa-check`'s trace exports and `samoa-lint
/// --format json` all write their strings through it.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
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
    fn json_string_escapes_quotes_backslashes_and_every_control_character() {
        assert_eq!(json_string(r#"a"b\c"#), r#""a\"b\\c""#);
        for (c, escaped) in [('\n', "\\n"), ('\r', "\\r"), ('\t', "\\t")] {
            assert_eq!(json_string(&c.to_string()), format!("\"{escaped}\""));
        }
        for c in (0u8..0x20)
            .map(char::from)
            .filter(|c| !"\n\r\t".contains(*c))
        {
            let want = format!("\"\\u{:04x}\"", c as u32);
            assert_eq!(json_string(&c.to_string()), want);
        }
        // Everything else passes through: DEL, non-ASCII text, emoji.
        assert_eq!(json_string("\u{7f}é€ü日本🦀"), "\"\u{7f}é€ü日本🦀\"");
        assert_eq!(json_string(""), "\"\"");
    }

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
        let hs = &r.snapshot().histograms["h"];
        assert_eq!((hs.count, hs.min, hs.max), (2, 10, 20));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    /// The registry's lock does not poison: a caller that dies under it
    /// (the kind check panics there) takes nobody else's computation with
    /// it. An instrument has no lock to die under.
    #[test]
    fn a_panic_inside_an_instrument_leaves_it_usable() {
        let r = Arc::new(Registry::new());
        r.histogram("h").observe(7);
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

    /// The bucket of every value holds it, buckets tile `u64` in order,
    /// and below 16 a value has a bucket of its own.
    #[test]
    fn buckets_tile_the_range_in_order() {
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        let mut next = 0u64;
        for i in 0..BUCKETS {
            let (low, width) = bucket_range(i);
            assert_eq!(low, next, "bucket {i}");
            // A sixteenth of the octave `low` is in, and 1 below 32.
            let octave = 1u64 << (63 - (low | 1).leading_zeros());
            assert_eq!(width, (octave >> SUB_BITS).max(1), "bucket {i}");
            for v in [low, low + (width - 1) / 2, low + (width - 1)] {
                assert_eq!(bucket_of(v), i, "value {v}");
            }
            next = low.wrapping_add(width);
        }
        assert_eq!(next, 0, "the last bucket ends at u64::MAX");
    }

    /// Against an exact nearest-rank reference over seeded samples in
    /// `1..2^40`: every percentile within 1/32 of the exact one (half a
    /// bucket), the count and the extremes equal.
    #[test]
    fn percentiles_within_a_bucket_of_the_exact_ones() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let exact = |sorted: &[u64], q: f64| {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            sorted[rank - 1] as f64
        };
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1..20_000usize);
            let uniform: Vec<u64> = (0..n).map(|_| rng.gen_range(1..1u64 << 40)).collect();
            // Heavy-tailed: a uniform 64-bit draw shifted right by 24 to 63
            // bits, so each octave below 2^40 is about as likely as the next.
            let heavy: Vec<u64> = (0..n)
                .map(|_| (rng.gen::<u64>() >> rng.gen_range(24..64u32)).max(1))
                .collect();
            for samples in [uniform, heavy] {
                let h = Histogram::default();
                samples.iter().for_each(|&v| h.observe(v));
                let mut sorted = samples;
                sorted.sort_unstable();
                let s = h.summary();
                assert_eq!(s.count, sorted.len() as u64);
                assert_eq!((s.min, s.max), (sorted[0], sorted[sorted.len() - 1]));
                for (q, got) in [(0.50, s.p50), (0.95, s.p95), (0.99, s.p99)] {
                    let want = exact(&sorted, q);
                    assert!(
                        (got - want).abs() <= want / 32.0,
                        "seed {seed}, p{q}: {got} for {want}"
                    );
                }
            }
        }
    }

    /// Concurrent observers lose no update.
    #[test]
    fn concurrent_observations_sum_exactly() {
        let h = Histogram::default();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..100_000u64 {
                        h.observe(t * 1_000_000 + i);
                    }
                });
            }
        });
        let s = h.summary();
        assert_eq!((s.count, s.min, s.max), (400_000, 0, 3_099_999));
        let low: u64 = h.0.counts[..16].iter().map(|c| c.load(Relaxed)).sum();
        assert_eq!(low, 16, "thread 0's values below 16, one per bucket");
    }
}
