//! One-pass streaming statistics over a [`PointSource`].
//!
//! The sampler's kernel bandwidth follows the paper's rule — dataset extent
//! diagonal / 100 — over the points with finite coordinates, which an
//! in-memory build folds with `BoundingBox::extend_finite`. Out-of-core
//! builds get the same extent from a single streaming scan: [`StreamStats`]
//! folds it in stream order, bit-identical to the in-memory fold over the
//! same stream, and `GaussianKernel::for_bounds` turns it into ε.

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
        }
    }

    /// Folds one point in.
    pub fn push(&mut self, p: &Point) {
        self.count += 1;
        self.bounds.extend_finite(p);
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
    fn empty_stream_is_degenerate_but_defined() {
        let d = Dataset::from_points("empty", vec![]);
        let stats = scan_stats(&mut DatasetSource::new(&d)).unwrap();
        assert_eq!(stats.count, 0);
        assert!(stats.bounds.is_empty());
    }

    #[test]
    fn non_finite_coordinates_are_left_out_of_the_bounds() {
        let d = Dataset::from_points(
            "nf",
            vec![
                Point::with_value(0.0, 0.0, 1.0),
                Point::new(f64::NAN, 5.0),
                Point::with_value(2.0, 2.0, f64::INFINITY),
            ],
        );
        let stats = scan_stats(&mut DatasetSource::new(&d)).unwrap();
        assert_eq!(stats.count, 3);
        // The NaN point's y = 5 would widen the extent if it were folded.
        assert_eq!(stats.bounds.max_y.to_bits(), 2.0f64.to_bits());
        assert_eq!(stats.bounds.min_x.to_bits(), 0.0f64.to_bits());
        assert_eq!(stats.bounds.max_x.to_bits(), 2.0f64.to_bits());
    }
}
