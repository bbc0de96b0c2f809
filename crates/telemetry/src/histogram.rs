//! A log-bucketed streaming histogram with exact small-value counts.
//!
//! Hop counts, message counts and simulated latencies are all small
//! non-negative integers with occasional heavy tails. [`LogHistogram`]
//! records them in O(1) with no allocation after construction:
//!
//! * values `0..64` are counted **exactly** (one bucket per value) — hop
//!   counts and per-lookup message counts live entirely in this region, so
//!   their percentiles are exact;
//! * values `>= 64` fall into logarithmic buckets with 16 sub-buckets per
//!   power of two (relative error ≤ 1/16 ≈ 6.25%), the HDR-histogram
//!   scheme reduced to its integer core.
//!
//! Histograms [`merge`](LogHistogram::merge) losslessly: recording a stream
//! into one histogram equals recording its parts into several and merging
//! them (bucket counts are additive), which is what lets the load harness
//! roll per-minute histograms up into phase windows. This equality and percentile
//! monotonicity are property-tested in `tests/proptests.rs`.
//!
//! # Example
//!
//! ```
//! use kad_telemetry::LogHistogram;
//!
//! let mut h = LogHistogram::new();
//! for v in [1u64, 2, 2, 3, 3, 3, 40] {
//!     h.record(v);
//! }
//! assert_eq!(h.count(), 7);
//! assert_eq!(h.percentile(0.5), 3); // exact: 3 is the median
//! assert_eq!(h.max(), 40);
//! ```

/// Number of exactly-counted small values (one bucket per value).
const LINEAR_MAX: u64 = 64;
/// Sub-buckets per power of two in the logarithmic region.
const SUB_BITS: u32 = 4;
const SUBS: usize = 1 << SUB_BITS; // 16
/// First exponent handled by the log region (2^6 == LINEAR_MAX).
const FIRST_EXP: u32 = 6;
/// Total bucket count: 64 exact + (63 - 6 + 1) * 16 log buckets.
const BUCKETS: usize = LINEAR_MAX as usize + (64 - FIRST_EXP as usize) * SUBS;

/// Streaming log-bucketed histogram over `u64` samples (see module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

/// Bucket index for a value.
fn bucket_of(v: u64) -> usize {
    if v < LINEAR_MAX {
        v as usize
    } else {
        let e = 63 - v.leading_zeros(); // v in [2^e, 2^(e+1)), e >= 6
        let sub = ((v >> (e - SUB_BITS)) as usize) & (SUBS - 1);
        LINEAR_MAX as usize + (e - FIRST_EXP) as usize * SUBS + sub
    }
}

/// Lower bound (representative value) of a bucket. Inverse of
/// [`bucket_of`] up to the sub-bucket resolution.
fn bucket_lower_bound(index: usize) -> u64 {
    if index < LINEAR_MAX as usize {
        index as u64
    } else {
        let log_index = index - LINEAR_MAX as usize;
        let e = FIRST_EXP + (log_index / SUBS) as u32;
        let sub = (log_index % SUBS) as u64;
        (SUBS as u64 + sub) << (e - SUB_BITS)
    }
}

impl LogHistogram {
    /// Creates an empty histogram (allocates its fixed bucket array once).
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` occurrences of `v`.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_of(v)] += n;
        self.count += n;
        self.sum += v as u128 * n as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact mean of the recorded samples (0 when empty). The sum is
    /// tracked exactly, so the mean does not suffer bucket quantization.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q ∈ [0, 1]`: the smallest bucket
    /// representative such that at least `⌈q · count⌉` samples are ≤ its
    /// bucket. Exact for values below 64; within one sub-bucket (≤ 6.25%
    /// relative error) above. Returns 0 on an empty histogram.
    ///
    /// Monotone in `q` (property-tested).
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen >= rank {
                return bucket_lower_bound(index);
            }
        }
        self.max
    }

    /// Merges another histogram into this one. Lossless: per-bucket counts
    /// add, so `merge` commutes with recording (see module docs).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Iterates over the non-empty buckets as `(representative, count)`,
    /// ascending in value. Representatives below 64 are the exact recorded
    /// value; above, the bucket's lower bound.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_lower_bound(i), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.is_empty());
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.iter().count(), 0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 64);
        for v in 0..64u64 {
            // Quantile (v+1)/64 lands exactly on value v.
            assert_eq!(h.percentile((v + 1) as f64 / 64.0), v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 63);
        assert_eq!(h.mean(), 31.5);
    }

    #[test]
    fn log_region_bounds_error() {
        let mut h = LogHistogram::new();
        for v in [100u64, 1000, 10_000, 1_000_000, u64::MAX] {
            h.record(v);
            let p = h.percentile(1.0);
            assert!(p <= v, "representative {p} exceeds sample {v}");
            assert!(
                (v - p) as f64 <= v as f64 / 16.0 + 1.0,
                "bucket error too large: {v} -> {p}"
            );
            let mut fresh = LogHistogram::new();
            fresh.record(v);
            assert_eq!(fresh.iter().count(), 1);
        }
    }

    #[test]
    fn bucket_roundtrip_lower_bound() {
        for v in (0..4096u64).chain([1 << 20, (1 << 20) + 12345, u64::MAX / 3]) {
            let b = bucket_of(v);
            let lo = bucket_lower_bound(b);
            assert!(lo <= v, "lower bound {lo} above value {v}");
            assert_eq!(bucket_of(lo), b, "lower bound stays in its bucket");
        }
    }

    #[test]
    fn merge_equals_single_stream() {
        let mut all = LogHistogram::new();
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for (i, v) in [1u64, 5, 5, 900, 64, 63, 1 << 40].iter().enumerate() {
            all.record(*v);
            if i % 2 == 0 {
                a.record(*v);
            } else {
                b.record(*v);
            }
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.record_n(7, 5);
        a.record_n(9, 0);
        for _ in 0..5 {
            b.record(7);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn percentile_edge_cases() {
        // Empty: every quantile is 0, out-of-range included.
        let empty = LogHistogram::new();
        for q in [-1.0, 0.0, 0.5, 1.0, 2.0] {
            assert_eq!(empty.percentile(q), 0);
        }
        // Single sample in the exact region: every quantile is the sample.
        let mut one = LogHistogram::new();
        one.record(42);
        for q in [0.0, 0.25, 0.5, 1.0] {
            assert_eq!(one.percentile(q), 42);
        }
        // Single sample in the log region: every quantile is the bucket
        // representative, at or below the sample within one sub-bucket.
        let mut big = LogHistogram::new();
        big.record(1000);
        let p = big.percentile(1.0);
        assert_eq!(big.percentile(0.0), p);
        assert!(p <= 1000 && (1000 - p) as f64 <= 1000.0 / 16.0 + 1.0);
        // p=0 is the minimum, p=100 the maximum (exact region), and
        // out-of-range quantiles clamp to them.
        let mut h = LogHistogram::new();
        for v in [5u64, 7, 11, 13] {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), 5);
        assert_eq!(h.percentile(1.0), 13);
        assert_eq!(h.percentile(-3.0), 5);
        assert_eq!(h.percentile(7.0), 13);
    }

    #[test]
    fn percentile_is_monotone_on_a_sample() {
        let mut h = LogHistogram::new();
        for v in [3u64, 1, 4, 1, 5, 9, 2, 6, 535, 89, 79] {
            h.record(v);
        }
        let mut prev = 0;
        for i in 0..=100 {
            let p = h.percentile(i as f64 / 100.0);
            assert!(p >= prev, "percentile not monotone at q={i}%");
            prev = p;
        }
        assert_eq!(h.percentile(0.0), h.min());
        assert_eq!(h.percentile(1.0), h.percentile(0.999));
    }
}
