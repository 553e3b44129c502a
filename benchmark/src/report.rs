//! What a run reports: each metric's value with its quartiles and sample
//! count for the human-readable table, and the one-line JSON result the
//! driver reads.

use std::collections::BTreeMap;

use crate::schema::MetricDecl;
use crate::stats::{self, Summary};

/// The metrics one run produced, by name.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, Summary>,
}

impl Report {
    /// Record `name` as the median (with quartiles) of per-round `values`.
    pub fn rounds(&mut self, name: &'static str, values: &[f64]) {
        self.put(name, stats::summarize(values));
    }

    /// Record `name` as a single value backed by `n` samples (a pooled
    /// percentile, a counter ratio, a probe result).
    pub fn single(&mut self, name: &'static str, value: f64, n: usize) {
        self.put(
            name,
            Summary {
                median: value,
                q1: value,
                q3: value,
                n,
            },
        );
    }

    fn put(&mut self, name: &'static str, s: Summary) {
        let clean = |x: f64| if x.is_finite() { x } else { 0.0 };
        let s = Summary {
            median: clean(s.median),
            q1: clean(s.q1),
            q3: clean(s.q3),
            n: s.n,
        };
        assert!(
            self.values.insert(name, s).is_none(),
            "metric {name} reported twice"
        );
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|s| s.median)
    }

    /// Check the report against the declared list: nothing undeclared, and
    /// (when `fill` is set) every declared metric the workload did not
    /// produce is reported as 0 — "this layer is not on this workload's
    /// path". Returns the rows in declaration order.
    ///
    /// # Panics
    ///
    /// Panics on an undeclared metric, or on a missing one when `fill` is
    /// off: both are bugs in the benchmark, not results.
    pub fn rows(&self, declared: &[MetricDecl], fill: bool) -> Vec<(MetricDecl, Summary)> {
        for name in self.values.keys() {
            assert!(
                declared.iter().any(|d| d.name == *name),
                "metric {name} is not declared in schema.rs"
            );
        }
        declared
            .iter()
            .map(|d| {
                let s = match self.values.get(d.name) {
                    Some(s) => *s,
                    None if fill => Summary {
                        median: 0.0,
                        q1: 0.0,
                        q3: 0.0,
                        n: 0,
                    },
                    None => panic!("metric {} was not measured", d.name),
                };
                (*d, s)
            })
            .collect()
    }
}

/// The table `all` shows: every metric by name with unit, median,
/// quartiles and sample count.
pub fn render_table(title: &str, rows: &[(MetricDecl, Summary)]) -> String {
    let mut out = format!("## {title}\n");
    out.push_str(&format!(
        "{:<48} {:>7} {:>14} {:>14} {:>14} {:>7}\n",
        "metric", "unit", "median", "q1", "q3", "n"
    ));
    for (d, s) in rows {
        out.push_str(&format!(
            "{:<48} {:>7} {:>14.4} {:>14.4} {:>14.4} {:>7}\n",
            d.name, d.unit, s.median, s.q1, s.q3, s.n
        ));
    }
    out
}

/// The driver's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric exactly `value` and `unit`.
pub fn render_result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    rows: &[(MetricDecl, Summary)],
) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|(d, s)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_number(s.median),
                d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// A float with all its digits, in a form every JSON parser takes.
fn json_number(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{x:.1}")
    } else {
        format!("{x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Better, MetricDecl};

    const DECLS: [MetricDecl; 2] = [
        MetricDecl {
            name: "a",
            unit: "us",
            better: Better::Lower,
        },
        MetricDecl {
            name: "b",
            unit: "1/s",
            better: Better::Higher,
        },
    ];

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.rounds("a", &[1.0, 3.0, 2.0]);
        r.single("b", 1234.5678, 10);
        let line = render_result_json(true, 7, 0, &r.rows(&DECLS, false));
        let v = serde_json::from_str(&line).unwrap();
        let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("attempted").unwrap().as_u64(), Some(7));
        let a = v.get("metrics").unwrap().get("a").unwrap();
        assert_eq!(a.get("value").unwrap().as_f64(), Some(2.0));
        assert_eq!(a.get("unit").unwrap().as_str(), Some("us"));
        let b = v.get("metrics").unwrap().get("b").unwrap();
        assert_eq!(b.get("value").unwrap().as_f64(), Some(1234.5678));
    }

    #[test]
    fn missing_metrics_fill_with_zero_only_when_asked() {
        let mut r = Report::default();
        r.single("a", 1.0, 1);
        let rows = r.rows(&DECLS, true);
        assert_eq!(rows[1].1.median, 0.0);
        assert_eq!(rows[1].1.n, 0);
        assert!(std::panic::catch_unwind(|| {
            let mut r = Report::default();
            r.single("a", 1.0, 1);
            r.rows(&DECLS, false);
        })
        .is_err());
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metrics_are_a_bug() {
        let mut r = Report::default();
        r.single("zzz", 1.0, 1);
        r.rows(&DECLS, true);
    }

    #[test]
    fn non_finite_values_become_zero() {
        let mut r = Report::default();
        r.single("a", f64::NAN, 0);
        r.single("b", f64::INFINITY, 0);
        assert_eq!(r.get("a"), Some(0.0));
        assert_eq!(r.get("b"), Some(0.0));
    }
}
