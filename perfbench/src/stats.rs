//! Percentiles under the benchmark's reporting rule.

/// The percentile ladder a tail latency is chosen from, highest first.
const TAIL_LADDER: [f64; 5] = [0.99, 0.95, 0.90, 0.75, 0.50];

/// The highest percentile of the ladder (capped at p99, the metric's
/// name) that has at least ten of `n` samples beyond its nearest rank, or `None` when
/// even the median has fewer than ten samples above it.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&q| n.saturating_sub(rank(q, n)) >= 10)
}

/// Nearest rank of quantile `q` among `n` samples: `ceil(q · n)`,
/// clamped to `1..=n` (the epsilon keeps `0.99 · 1000` at 990).
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice: the sample at rank
/// `ceil(q · n)`. Zero for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(q, sorted.len()) - 1]
}

/// Median of an unsorted sample (mean of the middle two for even `n`).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One named metric of the result object.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// A metric; a non-finite value (a ratio over nothing) reads as 0.
pub fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// A latency sample summarized under the reporting rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub samples: usize,
    pub p50: f64,
    /// The tail value and the percentile it was taken at.
    pub tail: f64,
    pub tail_q: f64,
}

impl Latency {
    /// Summarize `values`; with too few samples for any ladder
    /// percentile the tail falls back to the maximum (`tail_q = 1`).
    pub fn of(values: &[f64]) -> Latency {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let tail_q = tail_quantile(v.len()).unwrap_or(1.0);
        Latency {
            samples: v.len(),
            p50: percentile(&v, 0.5),
            tail: percentile(&v, tail_q),
            tail_q,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_quantile(100_000), Some(0.99));
        assert_eq!(tail_quantile(1_000), Some(0.99));
        // 999 samples: p99 is rank 990, so only 9 lie beyond it.
        assert_eq!(tail_quantile(999), Some(0.95));
        assert_eq!(tail_quantile(200), Some(0.95));
        assert_eq!(tail_quantile(199), Some(0.90));
        assert_eq!(tail_quantile(100), Some(0.90));
        assert_eq!(tail_quantile(99), Some(0.75));
        assert_eq!(tail_quantile(40), Some(0.75));
        assert_eq!(tail_quantile(39), Some(0.50));
        assert_eq!(tail_quantile(20), Some(0.50));
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(0), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn latency_summary_reports_its_tail_percentile() {
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let l = Latency::of(&v);
        assert_eq!(
            (l.samples, l.p50, l.tail, l.tail_q),
            (1000, 500.0, 990.0, 0.99)
        );
        let few = Latency::of(&[5.0, 1.0, 3.0]);
        assert_eq!((few.tail, few.tail_q), (5.0, 1.0));
    }
}
