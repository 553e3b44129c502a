//! Order statistics the benchmark reports: medians, quartiles, percentiles
//! and the rule that picks which tail percentile a sample can support.

/// Median, quartiles and count of one metric's per-round values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// Median of `values` (mean of the middle two for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) so the spread
/// this tool prints is the spread the driver computes. Fewer than two
/// values have no spread: both quartiles are the value itself.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Median, quartiles and count in one go.
pub fn summarize(values: &[f64]) -> Summary {
    let (q1, q3) = quartiles(values);
    Summary {
        median: median(values),
        q1,
        q3,
        n: values.len(),
    }
}

/// Distance between the quartiles as a share of the median — the
/// run-to-run spread the driver holds each end-to-end metric to.
pub fn iqr_share(values: &[f64]) -> f64 {
    let s = summarize(values);
    if s.median == 0.0 {
        0.0
    } else {
        (s.q3 - s.q1) / s.median.abs()
    }
}

/// Ascending copy of `samples`, the form [`samoa_core::percentile_us`]
/// (the one nearest-rank percentile every SAMOA report uses) takes.
pub fn sorted(mut samples: Vec<u64>) -> Vec<u64> {
    samples.sort_unstable();
    samples
}

/// Median of nanosecond samples, in microseconds.
pub fn p50_us(samples: Vec<u64>) -> f64 {
    samoa_core::percentile_us(&sorted(samples), 0.5)
}

/// The tail percentiles a report may quote, highest first.
const TAIL_LADDER: [(f64, &str); 5] = [
    (0.999, "p99.9"),
    (0.99, "p99"),
    (0.95, "p95"),
    (0.90, "p90"),
    (0.75, "p75"),
];

/// The highest percentile of the ladder that still has at least ten of `n`
/// samples beyond it, or `None` when even p75 does not (n < 40): a tail
/// read off fewer than ten samples is noise, not a measurement.
pub fn supported_tail(n: usize) -> Option<(f64, &'static str)> {
    TAIL_LADDER
        .into_iter()
        .find(|&(p, _)| (n as f64) * (1.0 - p) >= 10.0 - 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let (q1, q3) = quartiles(&[10.0, 20.0]);
        assert!((q1 - 7.5).abs() < 1e-12 && (q3 - 22.5).abs() < 1e-12);
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn iqr_share_is_relative_to_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn percentiles_are_nearest_rank_in_microseconds() {
        let v: Vec<u64> = (1..=100).map(|x| x * 1000).collect();
        assert_eq!(samoa_core::percentile_us(&v, 0.50), 50.0);
        assert_eq!(samoa_core::percentile_us(&v, 0.99), 99.0);
        assert_eq!(samoa_core::percentile_us(&v, 1.0), 100.0);
        assert_eq!(samoa_core::percentile_us(&[], 0.5), 0.0);
        assert_eq!(p50_us(vec![3000, 1000, 2000]), 2.0);
        assert_eq!(sorted(vec![3, 1, 2]), [1, 2, 3]);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(39), None);
        assert_eq!(supported_tail(40).unwrap().1, "p75");
        assert_eq!(supported_tail(99).unwrap().1, "p75");
        assert_eq!(supported_tail(100).unwrap().1, "p90");
        assert_eq!(supported_tail(200).unwrap().1, "p95");
        assert_eq!(supported_tail(999).unwrap().1, "p95");
        assert_eq!(supported_tail(1000).unwrap().1, "p99");
        assert_eq!(supported_tail(10_000).unwrap().1, "p99.9");
    }
}
