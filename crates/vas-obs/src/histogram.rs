//! Fixed-bucket log-scale histograms for latency (and other non-negative
//! integer) distributions.
//!
//! The bucket layout is fixed at compile time so histograms can live in
//! plain arrays, subtract by bucket index, and round-trip through the
//! exporters without any per-instance configuration: values `0..=3` get
//! exact buckets, and every power-of-two octave above that is split into 4
//! sub-buckets. The relative quantization error is therefore bounded at 25%
//! across the full `u64` range — plenty for p50/p95/p99 over nanosecond
//! timings — with [`HISTOGRAM_BUCKETS`] (= 252) buckets total.

/// Number of buckets in every [`Histogram`]: 4 exact buckets for `0..=3`
/// plus 4 sub-buckets for each of the 62 octaves `[2^k, 2^{k+1})`,
/// `k = 2..=63`.
pub const HISTOGRAM_BUCKETS: usize = 252;

/// Returns the bucket index recording `value`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < 4 {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros() as usize; // >= 2
    let sub = ((value >> (msb - 2)) & 3) as usize;
    4 + (msb - 2) * 4 + sub
}

/// Returns the smallest value that lands in bucket `index`.
///
/// Panics if `index >= HISTOGRAM_BUCKETS`.
fn bucket_lower_bound(index: usize) -> u64 {
    assert!(index < HISTOGRAM_BUCKETS, "bucket index out of range");
    if index < 4 {
        return index as u64;
    }
    let octave = (index - 4) / 4 + 2;
    let sub = ((index - 4) % 4) as u64;
    (1u64 << octave) + (sub << (octave - 2))
}

/// Returns the largest value that lands in bucket `index` (inclusive).
///
/// Panics if `index >= HISTOGRAM_BUCKETS`.
fn bucket_upper_bound(index: usize) -> u64 {
    assert!(index < HISTOGRAM_BUCKETS, "bucket index out of range");
    if index + 1 == HISTOGRAM_BUCKETS {
        u64::MAX
    } else {
        bucket_lower_bound(index + 1) - 1
    }
}

/// A plain (non-atomic) fixed-bucket histogram.
///
/// This is the value type used by snapshots, deltas, the exporters and the
/// `bench::timing` helpers; the live registry records into its atomic twin
/// (`registry::AtomicHistogram`) and converts on snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            counts: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Records one observation of `value`.
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean recorded value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The quantile `q` in `[0, 1]`, reported as the upper bound of the
    /// bucket containing that rank (so the estimate errs on the
    /// conservative, too-slow side, by at most 25% relative). Returns 0 for
    /// an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }

    /// Per-bucket counts.
    pub fn bucket_counts(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.counts
    }

    /// Rebuilds a histogram from raw parts (exporter/parse path). Bucket
    /// indices out of range and counts that overflow are rejected.
    pub fn from_parts(buckets: &[(usize, u64)], count: u64, sum: u64) -> Result<Self, String> {
        let mut h = Self::new();
        let mut total = 0u64;
        for &(i, c) in buckets {
            if i >= HISTOGRAM_BUCKETS {
                return Err(format!("bucket index {i} out of range"));
            }
            let overflow = || format!("bucket counts overflow at bucket {i}");
            h.counts[i] = h.counts[i].checked_add(c).ok_or_else(overflow)?;
            total = total.checked_add(c).ok_or_else(overflow)?;
        }
        if total != count {
            return Err(format!(
                "bucket counts sum to {total} but count field says {count}"
            ));
        }
        h.count = count;
        h.sum = sum;
        Ok(h)
    }

    /// The observations recorded since `earlier` was captured.
    ///
    /// If any bucket (or the total count) has gone *down*, the underlying
    /// histogram was reset between the two snapshots; the delta is then
    /// `self` wholesale — the Prometheus convention for counter resets.
    pub fn delta(&self, earlier: &Histogram) -> Histogram {
        let reset = self.count < earlier.count
            || self
                .counts
                .iter()
                .zip(earlier.counts.iter())
                .any(|(now, before)| now < before);
        if reset {
            return self.clone();
        }
        let mut out = Self::new();
        for (i, (now, before)) in self.counts.iter().zip(earlier.counts.iter()).enumerate() {
            out.counts[i] = now - before;
        }
        out.count = self.count - earlier.count;
        out.sum = self.sum.saturating_sub(earlier.sum);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_get_exact_buckets() {
        for v in 0..4u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower_bound(v as usize), v);
            assert_eq!(bucket_upper_bound(v as usize), v);
        }
    }

    #[test]
    fn bucket_bounds_partition_the_u64_range() {
        // Every bucket's lower bound maps back to that bucket, upper bounds
        // are the next lower bound minus one, and the sequence is strictly
        // increasing with no gaps.
        for i in 0..HISTOGRAM_BUCKETS {
            let lo = bucket_lower_bound(i);
            let hi = bucket_upper_bound(i);
            assert!(lo <= hi, "bucket {i}: lo {lo} > hi {hi}");
            assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
            assert_eq!(bucket_index(hi), i, "upper bound of bucket {i}");
            if i + 1 < HISTOGRAM_BUCKETS {
                assert_eq!(bucket_lower_bound(i + 1), hi + 1, "gap after bucket {i}");
            }
        }
        assert_eq!(bucket_lower_bound(0), 0);
        assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn relative_error_is_bounded_at_25_percent() {
        for &v in &[4u64, 5, 100, 1_000, 123_456, 1 << 40, u64::MAX / 3] {
            let i = bucket_index(v);
            let lo = bucket_lower_bound(i);
            let hi = bucket_upper_bound(i);
            assert!((hi - lo) as f64 <= 0.25 * lo as f64 + 1.0, "bucket for {v}");
        }
    }

    #[test]
    fn percentiles_walk_the_cumulative_distribution() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        let p50 = h.percentile(0.50);
        let p99 = h.percentile(0.99);
        // Bucketed estimates err high by at most 25%.
        assert!((50..=63).contains(&p50), "p50 = {p50}");
        assert!((99..=127).contains(&p99), "p99 = {p99}");
        assert!(h.percentile(1.0) >= 100);
        assert_eq!(Histogram::new().percentile(0.5), 0);
    }

    #[test]
    fn percentile_edge_cases_empty_single_and_saturated() {
        // Empty: every quantile (including the extremes) reads 0.
        let empty = Histogram::new();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(empty.percentile(q), 0);
        }
        assert_eq!(empty.mean(), 0.0);

        // Single sample: every quantile lands in that one sample's bucket.
        let mut single = Histogram::new();
        single.record(7);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(bucket_index(single.percentile(q)), bucket_index(7));
        }
        assert_eq!(single.mean(), 7.0);

        // Top-bucket saturation: u64::MAX observations land in the last
        // bucket, quantiles report its (exact) upper bound, and the sum
        // saturates instead of wrapping.
        let mut top = Histogram::new();
        top.record(u64::MAX);
        top.record(u64::MAX);
        assert_eq!(top.bucket_counts()[HISTOGRAM_BUCKETS - 1], 2);
        assert_eq!(top.percentile(0.5), u64::MAX);
        assert_eq!(top.percentile(1.0), u64::MAX);
        assert_eq!(top.sum(), u64::MAX);
    }

    #[test]
    fn delta_subtracts_the_earlier_observations() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [1u64, 10, 100] {
            a.record(v);
        }
        for v in [2u64, 20] {
            b.record(v);
        }
        let mut later = a.clone();
        for v in [2u64, 20] {
            later.record(v);
        }
        assert_eq!(later.count(), 5);
        assert_eq!(later.sum(), 133);
        let d = later.delta(&a);
        assert_eq!(d, b);
    }

    #[test]
    fn delta_detects_resets() {
        let mut before = Histogram::new();
        before.record(5);
        before.record(5);
        let mut after_reset = Histogram::new();
        after_reset.record(7);
        // `after_reset` has fewer observations than `before`: the histogram
        // was reset in between, so the delta is the new histogram wholesale.
        assert_eq!(after_reset.delta(&before), after_reset);
    }

    #[test]
    fn from_parts_round_trips_and_validates() {
        let mut h = Histogram::new();
        for v in [0u64, 3, 9, 1 << 30] {
            h.record(v);
        }
        let sparse: Vec<(usize, u64)> = h
            .bucket_counts()
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect();
        let rebuilt = Histogram::from_parts(&sparse, h.count(), h.sum()).unwrap();
        assert_eq!(rebuilt, h);
        assert!(Histogram::from_parts(&[(HISTOGRAM_BUCKETS, 1)], 1, 0).is_err());
        assert!(Histogram::from_parts(&[(0, 1)], 2, 0).is_err());
    }
}
