//! [`LatencyHisto`], the fixed-bucket log-scale latency histogram the
//! server keeps per backend and merges across workers.

/// Exact buckets for latencies below 16 µs, then four sub-buckets per
/// power-of-two octave up to 2^40 µs (~12.7 days): a fixed-size
/// log-scale layout whose relative quantization error is bounded at 25%
/// while the whole histogram stays a flat `u64` array that merges
/// across workers with a plain element-wise add.
const HISTO_EXACT: usize = 16;
/// First octave covered by sub-bucketed ranges (2^4 = 16 µs).
const HISTO_FIRST_OCTAVE: u32 = 4;
/// Last octave; anything larger clamps into the final bucket.
const HISTO_LAST_OCTAVE: u32 = 40;
/// Sub-buckets per octave.
const HISTO_SUBS: usize = 4;
/// Total bucket count.
pub const HISTO_BUCKETS: usize =
    HISTO_EXACT + (HISTO_LAST_OCTAVE - HISTO_FIRST_OCTAVE + 1) as usize * HISTO_SUBS;

/// Fixed-bucket log-scale latency histogram (microseconds).
///
/// Replaces the old mean-only accounting: every recorded latency lands
/// in one of [`HISTO_BUCKETS`] buckets (exact below 16 µs, ≤25%
/// relative error above), so [`LatencyHisto::percentile`] can answer
/// p50/p95/p99 without keeping per-job samples, and two histograms —
/// one per worker, say — merge loss-free with [`LatencyHisto::merge`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHisto {
    buckets: [u64; HISTO_BUCKETS],
    count: u64,
}

impl Default for LatencyHisto {
    fn default() -> Self {
        LatencyHisto {
            buckets: [0; HISTO_BUCKETS],
            count: 0,
        }
    }
}

impl LatencyHisto {
    /// Bucket index for a latency of `micros`.
    fn index(micros: u64) -> usize {
        if micros < HISTO_EXACT as u64 {
            return micros as usize;
        }
        let octave = (63 - micros.leading_zeros()).min(HISTO_LAST_OCTAVE);
        let sub = ((micros >> (octave - 2)) & 0x3) as usize;
        HISTO_EXACT + (octave - HISTO_FIRST_OCTAVE) as usize * HISTO_SUBS + sub
    }

    /// Lower bound (µs) of bucket `i` — the value [`Self::percentile`]
    /// reports, so percentiles never overstate a latency.
    fn lower_bound(i: usize) -> u64 {
        if i < HISTO_EXACT {
            return i as u64;
        }
        let rel = i - HISTO_EXACT;
        let octave = HISTO_FIRST_OCTAVE + (rel / HISTO_SUBS) as u32;
        let sub = (rel % HISTO_SUBS) as u64;
        (1u64 << octave) + sub * (1u64 << (octave - 2))
    }

    /// Record one latency.
    pub fn record(&mut self, micros: u64) {
        self.buckets[Self::index(micros)] += 1;
        self.count += 1;
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The latency (µs) at quantile `q` (`0.0..=1.0`): the lower bound
    /// of the bucket holding the `ceil(q·count)`-th smallest sample.
    /// Zero when nothing was recorded.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::lower_bound(i);
            }
        }
        Self::lower_bound(HISTO_BUCKETS - 1)
    }

    /// Fold another histogram in (per-worker histograms merge into the
    /// batch aggregate with no precision loss — buckets just add).
    pub fn merge(&mut self, other: &LatencyHisto) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histo_buckets_are_exact_small_then_bounded_log_error() {
        // Exact below 16 µs.
        for v in 0..16u64 {
            assert_eq!(LatencyHisto::index(v), v as usize);
            assert_eq!(LatencyHisto::lower_bound(v as usize), v);
        }
        // Index is monotone and lower_bound inverts it: every value
        // lands in a bucket whose lower bound is <= it, and the next
        // bucket's lower bound exceeds it by at most 25%.
        for v in [16u64, 17, 63, 64, 100, 1000, 12_345, 1 << 20, u64::MAX] {
            let i = LatencyHisto::index(v);
            let lo = LatencyHisto::lower_bound(i);
            assert!(lo <= v, "bucket {i} lower bound {lo} > value {v}");
            if i + 1 < HISTO_BUCKETS && v < (1u64 << HISTO_LAST_OCTAVE) {
                let next = LatencyHisto::lower_bound(i + 1);
                assert!(next > v, "value {v} not below next bucket {next}");
                assert!(
                    (next - lo) * 4 <= lo.max(1) + 3,
                    "bucket [{lo},{next}) wider than 25% at {v}"
                );
            }
        }
        // Monotone across the whole bucket range.
        for i in 1..HISTO_BUCKETS {
            assert!(LatencyHisto::lower_bound(i) > LatencyHisto::lower_bound(i - 1));
        }
    }

    #[test]
    fn histo_percentiles_are_ordered_and_exact_for_small_samples() {
        let mut h = LatencyHisto::default();
        assert_eq!(h.percentile(0.5), 0, "empty histogram reports 0");
        // 100 samples: 1 µs x90, 10 µs x9, 15 µs x1 — all in the exact
        // range, so every percentile is the precise sample value.
        for _ in 0..90 {
            h.record(1);
        }
        for _ in 0..9 {
            h.record(10);
        }
        h.record(15);
        assert_eq!(h.count(), 100);
        assert_eq!(h.percentile(0.50), 1);
        assert_eq!(h.percentile(0.90), 1);
        assert_eq!(h.percentile(0.95), 10);
        assert_eq!(h.percentile(0.99), 10);
        assert_eq!(h.percentile(1.0), 15);
        // Ordering holds with coarse buckets too.
        h.record(1_000_000);
        assert!(h.percentile(0.5) <= h.percentile(0.95));
        assert!(h.percentile(0.95) <= h.percentile(0.99));
        assert!(h.percentile(0.99) <= h.percentile(1.0));
    }

    #[test]
    fn histo_merge_equals_combined_recording() {
        let samples_a = [1u64, 5, 90, 4_000, 65_536];
        let samples_b = [2u64, 90, 123_456, 7];
        let mut a = LatencyHisto::default();
        let mut b = LatencyHisto::default();
        let mut both = LatencyHisto::default();
        for &v in &samples_a {
            a.record(v);
            both.record(v);
        }
        for &v in &samples_b {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both, "merge must equal recording into one");
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(a.percentile(q), both.percentile(q));
        }
    }
}
