//! One-pass streaming statistics over a [`PointSource`].
//!
//! The sampler's kernel bandwidth follows the paper's rule — dataset extent
//! diagonal / 100 — over the points with finite coordinates, which an
//! in-memory build folds with `BoundingBox::extend_finite`. Out-of-core
//! builds get the same number from a single streaming scan: [`StreamStats`]
//! folds the same extent in stream order (bit-identical to the in-memory
//! fold over the same stream) and keeps Welford-style moments of the
//! `value` attribute as a by-product, so a normalization pre-pass never
//! needs a second algorithm.

use crate::source::PointSource;
use std::io;
use vas_data::{BoundingBox, Point};

/// Accumulated single-pass statistics of a point stream.
#[derive(Debug, Clone, Copy)]
pub struct StreamStats {
    /// Points seen.
    pub count: u64,
    /// Spatial extent of the points with finite coordinates, folded with
    /// `BoundingBox::extend_finite` in stream order. For finite data it is
    /// bit-identical to `BoundingBox::from_points` over the same points.
    pub bounds: BoundingBox,
    /// Smallest `value` attribute seen (`+∞` before any point).
    pub value_min: f64,
    /// Largest `value` attribute seen (`-∞` before any point).
    pub value_max: f64,
    /// Points with a non-finite coordinate or value. Those with a
    /// non-finite coordinate are left out of `bounds`.
    pub non_finite: u64,
    mean: f64,
    m2: f64,
}

impl Default for StreamStats {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            bounds: BoundingBox::EMPTY,
            value_min: f64::INFINITY,
            value_max: f64::NEG_INFINITY,
            non_finite: 0,
            mean: 0.0,
            m2: 0.0,
        }
    }

    /// Folds one point in.
    pub fn push(&mut self, p: &Point) {
        self.count += 1;
        self.bounds.extend_finite(p);
        if !(p.is_finite() && p.value.is_finite()) {
            self.non_finite += 1;
        }
        self.value_min = self.value_min.min(p.value);
        self.value_max = self.value_max.max(p.value);
        // Welford's online update: numerically stable at any stream length.
        let delta = p.value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (p.value - self.mean);
    }

    /// Merges the statistics of a **later** split of the same stream into
    /// this accumulator — the ordered fan-in step of a parallel stats scan:
    /// fold each chunk independently, then merge left-to-right in chunk
    /// order.
    ///
    /// `count`, `bounds`, `value_min`/`value_max` and `non_finite` merge
    /// **bit-identically** to the one-pass fold over the concatenated stream
    /// for any split (min/max and integer addition re-associate exactly) —
    /// these are the fields the kernel-bandwidth rule reads, so a parallel
    /// pre-pass resolves the same ε as a sequential one.
    ///
    /// The `value` moments use Chan et al.'s exact pairwise formula. When
    /// `other` holds a single point the update specializes to the identical
    /// floating-point operations [`push`](Self::push) performs, so a
    /// merge-fold over single-point splits *is* the one-pass fold
    /// bit-for-bit; for coarser splits the pairwise mean/M2 are exact in
    /// real arithmetic and agree with the one-pass fold to rounding (both
    /// properties are property-tested).
    pub fn merge(&mut self, other: &StreamStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.bounds = self.bounds.union(&other.bounds);
        self.value_min = self.value_min.min(other.value_min);
        self.value_max = self.value_max.max(other.value_max);
        self.non_finite += other.non_finite;
        let n1 = self.count as f64;
        let n = (self.count + other.count) as f64;
        let delta = other.mean - self.mean;
        if other.count == 1 {
            // Replay the exact `push` update: mean += delta / n;
            // m2 += delta * (value - new_mean). (`other.m2` is 0 and
            // `other.mean` is the point's value.)
            self.count += 1;
            self.mean += delta / n;
            self.m2 += delta * (other.mean - self.mean);
        } else {
            let n2 = other.count as f64;
            self.count += other.count;
            self.mean += delta * n2 / n;
            self.m2 += other.m2 + delta * delta * (n1 * n2 / n);
        }
    }

    /// Mean of the `value` attribute (0 for an empty stream, matching
    /// `Dataset::mean_value`).
    pub fn value_mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance of the `value` attribute (0 for streams shorter
    /// than two points).
    pub fn value_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation of the `value` attribute.
    pub fn value_std(&self) -> f64 {
        self.value_variance().sqrt()
    }

    /// The paper's bandwidth rule applied to the streamed extent: diagonal /
    /// 100, falling back to 1 for degenerate extents — the exact branch
    /// `GaussianKernel::for_points` takes, so streaming and in-memory builds
    /// resolve the same ε.
    pub fn epsilon_hint(&self) -> f64 {
        let diag = self.bounds.diagonal();
        if diag.is_finite() && diag > 0.0 {
            diag / 100.0
        } else {
            1.0
        }
    }
}

/// Scans every remaining point of `source` into a [`StreamStats`]. The
/// caller decides the scan window (typically `reset` → `scan_stats` →
/// `reset`).
pub fn scan_stats<S: PointSource>(source: &mut S) -> io::Result<StreamStats> {
    let mut stats = StreamStats::new();
    source.for_each_point(|p| stats.push(&p))?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::DatasetSource;
    use proptest::prelude::*;
    use vas_data::{Dataset, GeolifeGenerator};

    #[test]
    fn bounds_match_from_points_bitwise() {
        let d = GeolifeGenerator::with_size(3_000, 19).generate();
        let mut source = DatasetSource::with_chunk_size(&d, 97);
        let stats = scan_stats(&mut source).unwrap();
        let reference = d.bounds();
        assert_eq!(stats.count, 3_000);
        for (a, b) in [
            (stats.bounds.min_x, reference.min_x),
            (stats.bounds.min_y, reference.min_y),
            (stats.bounds.max_x, reference.max_x),
            (stats.bounds.max_y, reference.max_y),
        ] {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn welford_moments_match_two_pass_reference() {
        let d = GeolifeGenerator::with_size(5_000, 23).generate();
        let mut source = DatasetSource::new(&d);
        let stats = scan_stats(&mut source).unwrap();
        let mean = d.mean_value();
        let var = d
            .points
            .iter()
            .map(|p| (p.value - mean).powi(2))
            .sum::<f64>()
            / d.len() as f64;
        assert!((stats.value_mean() - mean).abs() < 1e-9 * mean.abs().max(1.0));
        assert!((stats.value_variance() - var).abs() < 1e-6 * var.max(1.0));
        assert!(stats.value_min <= mean && mean <= stats.value_max);
        assert_eq!(stats.non_finite, 0);
    }

    #[test]
    fn empty_stream_is_degenerate_but_defined() {
        let d = Dataset::from_points("empty", vec![]);
        let stats = scan_stats(&mut DatasetSource::new(&d)).unwrap();
        assert_eq!(stats.count, 0);
        assert!(stats.bounds.is_empty());
        assert_eq!(stats.value_mean(), 0.0);
        assert_eq!(stats.value_variance(), 0.0);
        assert_eq!(stats.epsilon_hint(), 1.0);
    }

    #[test]
    fn epsilon_hint_matches_the_paper_rule() {
        let d = GeolifeGenerator::with_size(2_000, 29).generate();
        let stats = scan_stats(&mut DatasetSource::new(&d)).unwrap();
        let expected = d.bounds().diagonal() / 100.0;
        assert_eq!(stats.epsilon_hint().to_bits(), expected.to_bits());
        // Degenerate extent (single repeated position) falls back to 1.
        let single = Dataset::from_points("one", vec![Point::new(2.0, 3.0); 5]);
        let s = scan_stats(&mut DatasetSource::new(&single)).unwrap();
        assert_eq!(s.epsilon_hint(), 1.0);
    }

    fn push_all(points: &[Point]) -> StreamStats {
        let mut s = StreamStats::new();
        for p in points {
            s.push(p);
        }
        s
    }

    proptest::proptest! {
        #[test]
        fn pairwise_merge_matches_one_pass_fold_on_arbitrary_splits(
            raw in proptest::collection::vec(
                (-1.0e6f64..1.0e6, -1.0e6f64..1.0e6, -1.0e3f64..1.0e3),
                1..120,
            ),
            split_seed in 0usize..1_000,
        ) {
            let points: Vec<Point> =
                raw.iter().map(|&(x, y, v)| Point::with_value(x, y, v)).collect();
            let reference = push_all(&points);

            // Split into chunks whose sizes are derived from the seed, fold
            // each independently, merge left-to-right in chunk order.
            let mut merged = StreamStats::new();
            let mut start = 0usize;
            let mut step = split_seed;
            while start < points.len() {
                let len = 1 + step % 7;
                step = step.wrapping_mul(31).wrapping_add(17);
                let end = (start + len).min(points.len());
                merged.merge(&push_all(&points[start..end]));
                start = end;
            }

            // The split-invariant fields are pinned bitwise: these feed the
            // kernel-bandwidth rule, where a single flipped bit would change
            // every downstream replacement decision.
            prop_assert_eq!(merged.count, reference.count);
            prop_assert_eq!(merged.non_finite, reference.non_finite);
            prop_assert_eq!(merged.bounds.min_x.to_bits(), reference.bounds.min_x.to_bits());
            prop_assert_eq!(merged.bounds.min_y.to_bits(), reference.bounds.min_y.to_bits());
            prop_assert_eq!(merged.bounds.max_x.to_bits(), reference.bounds.max_x.to_bits());
            prop_assert_eq!(merged.bounds.max_y.to_bits(), reference.bounds.max_y.to_bits());
            prop_assert_eq!(merged.value_min.to_bits(), reference.value_min.to_bits());
            prop_assert_eq!(merged.value_max.to_bits(), reference.value_max.to_bits());
            prop_assert_eq!(
                merged.epsilon_hint().to_bits(),
                reference.epsilon_hint().to_bits()
            );
            // The pairwise moments are exact in real arithmetic; require
            // tight relative agreement with the one-pass fold.
            let mean_scale = reference.value_mean().abs().max(1.0);
            prop_assert!((merged.value_mean() - reference.value_mean()).abs() <= 1e-9 * mean_scale);
            let var_scale = reference.value_variance().max(1e-9);
            prop_assert!(
                (merged.value_variance() - reference.value_variance()).abs() <= 1e-6 * var_scale
            );
        }

        #[test]
        fn single_point_merges_are_the_one_pass_fold_bit_for_bit(
            raw in proptest::collection::vec(
                (-1.0e6f64..1.0e6, -1.0e6f64..1.0e6, -1.0e3f64..1.0e3),
                1..60,
            ),
        ) {
            // Merging a stream one single-point split at a time must replay
            // `push` exactly, moments included — this is what makes `merge` a
            // strict generalization of the sequential fold rather than a
            // second algorithm with its own rounding.
            let points: Vec<Point> =
                raw.iter().map(|&(x, y, v)| Point::with_value(x, y, v)).collect();
            let reference = push_all(&points);
            let mut merged = StreamStats::new();
            for p in &points {
                let mut single = StreamStats::new();
                single.push(p);
                merged.merge(&single);
            }
            prop_assert_eq!(merged.count, reference.count);
            prop_assert_eq!(merged.value_mean().to_bits(), reference.value_mean().to_bits());
            prop_assert_eq!(
                merged.value_variance().to_bits(),
                reference.value_variance().to_bits()
            );
        }
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let d = GeolifeGenerator::with_size(500, 31).generate();
        let full = push_all(&d.points);
        let mut left = full;
        left.merge(&StreamStats::new());
        assert_eq!(left.count, full.count);
        assert_eq!(left.value_mean().to_bits(), full.value_mean().to_bits());
        let mut right = StreamStats::new();
        right.merge(&full);
        assert_eq!(right.count, full.count);
        assert_eq!(right.value_mean().to_bits(), full.value_mean().to_bits());
        assert_eq!(
            right.value_variance().to_bits(),
            full.value_variance().to_bits()
        );
    }

    #[test]
    fn non_finite_points_are_counted_and_folded() {
        let d = Dataset::from_points(
            "nf",
            vec![
                Point::with_value(0.0, 0.0, 1.0),
                Point::new(f64::NAN, 1.0),
                Point::with_value(2.0, 2.0, f64::INFINITY),
            ],
        );
        let stats = scan_stats(&mut DatasetSource::new(&d)).unwrap();
        assert_eq!(stats.non_finite, 2);
        // The NaN point is left out of the bounds; its y lies inside them
        // anyway, so they equal BoundingBox::from_points here.
        let reference = d.bounds();
        assert_eq!(stats.bounds.min_x.to_bits(), reference.min_x.to_bits());
        assert_eq!(stats.bounds.max_x.to_bits(), reference.max_x.to_bits());
    }
}
