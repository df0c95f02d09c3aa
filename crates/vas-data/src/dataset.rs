//! The [`Dataset`] container: an ordered collection of [`Point`]s plus
//! provenance metadata.
//!
//! A `Dataset` is the *fully materialized* form — a `Vec<Point>` — and stays
//! deliberately simple because every sampler in this reproduction is
//! single-pass and order-insensitive, matching the offline
//! sample-construction model in Section II-B of the paper. It is no longer
//! the only form: workloads too large to materialize flow through the
//! `vas-stream` crate instead, whose `PointSource` trait streams the same
//! points chunk-by-chunk in bounded memory (from the chunked columnar spill
//! format, CSV, or the streaming generator iterators such as
//! [`GeolifeGenerator::points`](crate::geolife::GeolifeGenerator::points)),
//! with an in-memory adapter wrapping any `Dataset`.

use crate::point::{BoundingBox, Point};
use serde::{Deserialize, Serialize};

/// Which generator (or external source) produced a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DatasetKind {
    /// Synthetic GPS trajectories mimicking the Geolife collection.
    GeolifeSim,
    /// SPLOM-style Gaussian columns.
    Splom,
    /// Gaussian-mixture clusters (clustering user study).
    GaussianMixture,
    /// Loaded from CSV or constructed directly by the caller.
    External,
}

impl DatasetKind {
    /// Human-readable label used by the experiment harness.
    pub fn label(&self) -> &'static str {
        match self {
            DatasetKind::GeolifeSim => "geolife-sim",
            DatasetKind::Splom => "splom",
            DatasetKind::GaussianMixture => "gaussian-mixture",
            DatasetKind::External => "external",
        }
    }
}

/// An in-memory dataset of 2-D points.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    /// Short name used in logs and experiment output.
    pub name: String,
    /// Provenance of the data.
    pub kind: DatasetKind,
    /// The points themselves.
    pub points: Vec<Point>,
}

impl Dataset {
    /// Wraps a vector of points into a dataset.
    pub fn new(name: impl Into<String>, kind: DatasetKind, points: Vec<Point>) -> Self {
        Self {
            name: name.into(),
            kind,
            points,
        }
    }

    /// Builds an [`DatasetKind::External`] dataset from raw points.
    pub fn from_points(name: impl Into<String>, points: Vec<Point>) -> Self {
        Self::new(name, DatasetKind::External, points)
    }

    /// Number of points (the paper's `N`).
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if the dataset holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Iterator over the points in storage order.
    pub fn iter(&self) -> impl Iterator<Item = &Point> {
        self.points.iter()
    }

    /// Spatial extent of the dataset.
    pub fn bounds(&self) -> BoundingBox {
        BoundingBox::from_points(&self.points)
    }

    /// The points whose coordinates fall inside `region`.
    pub fn filter_region(&self, region: &BoundingBox) -> Vec<Point> {
        self.points
            .iter()
            .filter(|p| region.contains(p))
            .copied()
            .collect()
    }

    /// Returns a new dataset holding only the first `n` points.
    ///
    /// Used by the harness to build size sweeps from a single expensive
    /// generation run.
    pub fn truncated(&self, n: usize) -> Dataset {
        Dataset {
            name: format!("{}[..{}]", self.name, n.min(self.len())),
            kind: self.kind,
            points: self.points.iter().take(n).copied().collect(),
        }
    }

    /// Mean of the attribute value across all points (0 for an empty set).
    pub fn mean_value(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|p| p.value).sum::<f64>() / self.points.len() as f64
    }
}

impl<'a> IntoIterator for &'a Dataset {
    type Item = &'a Point;
    type IntoIter = std::slice::Iter<'a, Point>;

    fn into_iter(self) -> Self::IntoIter {
        self.points.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dataset() -> Dataset {
        Dataset::from_points(
            "test",
            vec![
                Point::with_value(0.0, 0.0, 1.0),
                Point::with_value(1.0, 1.0, 2.0),
                Point::with_value(2.0, 2.0, 3.0),
                Point::with_value(3.0, 3.0, 6.0),
            ],
        )
    }

    #[test]
    fn len_bounds_mean() {
        let d = sample_dataset();
        assert_eq!(d.len(), 4);
        assert!(!d.is_empty());
        assert_eq!(d.bounds(), BoundingBox::new(0.0, 0.0, 3.0, 3.0));
        assert_eq!(d.mean_value(), 3.0);
    }

    #[test]
    fn empty_dataset() {
        let d = Dataset::from_points("empty", vec![]);
        assert!(d.is_empty());
        assert_eq!(d.mean_value(), 0.0);
        assert!(d.bounds().is_empty());
    }

    #[test]
    fn filter_region_selects_inside_points() {
        let d = sample_dataset();
        let region = BoundingBox::new(0.5, 0.5, 2.5, 2.5);
        let inside = d.filter_region(&region);
        assert_eq!(inside.len(), 2);
        assert!(inside.iter().all(|p| region.contains(p)));
    }

    #[test]
    fn truncated_keeps_prefix() {
        let d = sample_dataset();
        let t = d.truncated(2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.points[0], d.points[0]);
        assert_eq!(t.points[1], d.points[1]);
        // truncating beyond the length is a no-op on the contents
        assert_eq!(d.truncated(100).len(), 4);
    }

    #[test]
    fn iterates_in_order() {
        let d = sample_dataset();
        let xs: Vec<f64> = d.iter().map(|p| p.x).collect();
        assert_eq!(xs, vec![0.0, 1.0, 2.0, 3.0]);
        let ys: Vec<f64> = (&d).into_iter().map(|p| p.y).collect();
        assert_eq!(ys, vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn kind_labels() {
        assert_eq!(DatasetKind::GeolifeSim.label(), "geolife-sim");
        assert_eq!(DatasetKind::Splom.label(), "splom");
        assert_eq!(DatasetKind::GaussianMixture.label(), "gaussian-mixture");
        assert_eq!(DatasetKind::External.label(), "external");
    }
}
