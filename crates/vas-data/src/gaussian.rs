//! Gaussian-mixture datasets for the clustering user study.
//!
//! Section VI-B of the paper builds four synthetic datasets from one or two
//! 2-D Gaussian distributions with different covariances and asks users to
//! count the number of underlying clusters from sampled visualizations.
//! [`GaussianMixtureGenerator`] reproduces those datasets (and arbitrary
//! generalizations of them) with full control over cluster placement,
//! covariance and mixing weights.

use crate::dataset::{Dataset, DatasetKind};
use crate::point::Point;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

/// One component of a Gaussian mixture.
///
/// The covariance is expressed as axis-aligned standard deviations plus a
/// rotation angle, which is enough to express any 2-D Gaussian.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct GaussianCluster {
    /// Cluster centre, x coordinate.
    pub cx: f64,
    /// Cluster centre, y coordinate.
    pub cy: f64,
    /// Standard deviation along the (pre-rotation) x axis.
    pub sigma_x: f64,
    /// Standard deviation along the (pre-rotation) y axis.
    pub sigma_y: f64,
    /// Rotation of the principal axes, radians.
    pub rotation: f64,
    /// Relative share of points drawn from this cluster.
    pub weight: f64,
}

impl GaussianCluster {
    /// An isotropic cluster at `(cx, cy)` with standard deviation `sigma`.
    fn isotropic(cx: f64, cy: f64, sigma: f64) -> Self {
        Self {
            cx,
            cy,
            sigma_x: sigma,
            sigma_y: sigma,
            rotation: 0.0,
            weight: 1.0,
        }
    }

    /// Returns a copy with a different mixing weight.
    fn with_weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    /// Returns a copy with anisotropic spread and rotation.
    fn with_shape(mut self, sigma_x: f64, sigma_y: f64, rotation: f64) -> Self {
        self.sigma_x = sigma_x;
        self.sigma_y = sigma_y;
        self.rotation = rotation;
        self
    }
}

/// Generator drawing points from a mixture of 2-D Gaussians.
#[derive(Debug, Clone)]
pub struct GaussianMixtureGenerator {
    clusters: Vec<GaussianCluster>,
    n_points: usize,
    seed: u64,
}

impl GaussianMixtureGenerator {
    /// Creates a mixture generator.
    ///
    /// # Panics
    /// Panics if `clusters` is empty or any weight is non-positive.
    pub fn new(clusters: Vec<GaussianCluster>, n_points: usize, seed: u64) -> Self {
        assert!(
            !clusters.is_empty(),
            "mixture requires at least one cluster"
        );
        assert!(
            clusters.iter().all(|c| c.weight > 0.0),
            "cluster weights must be positive"
        );
        Self {
            clusters,
            n_points,
            seed,
        }
    }

    /// The four clustering-study datasets from the paper: two datasets drawn
    /// from a single Gaussian and two drawn from a pair of Gaussians with
    /// different covariances. `variant` selects one of `0..4`.
    pub fn paper_clustering_dataset(variant: usize, n_points: usize, seed: u64) -> Self {
        let clusters = match variant % 4 {
            // Single compact blob.
            0 => vec![GaussianCluster::isotropic(0.0, 0.0, 1.0)],
            // Single elongated blob.
            1 => vec![GaussianCluster::isotropic(0.0, 0.0, 1.0).with_shape(2.5, 0.8, 0.6)],
            // Two well-separated blobs of equal size.
            2 => vec![
                GaussianCluster::isotropic(-3.0, 0.0, 0.9),
                GaussianCluster::isotropic(3.0, 0.5, 0.9),
            ],
            // Two blobs with unequal spread and weight (partially overlapping
            // outline, the harder case discussed in the paper).
            _ => vec![
                GaussianCluster::isotropic(-1.8, -0.5, 1.2).with_weight(0.65),
                GaussianCluster::isotropic(2.2, 1.0, 0.7).with_weight(0.35),
            ],
        };
        Self::new(clusters, n_points, seed)
    }

    /// Number of mixture components (the ground truth for the clustering task).
    pub fn n_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// The configured components.
    pub fn clusters(&self) -> &[GaussianCluster] {
        &self.clusters
    }

    /// Generates the dataset by materializing [`points`](Self::points). Each
    /// point's `value` records the index of the component it was drawn from,
    /// providing ground-truth labels for evaluation (renderers ignore it
    /// unless asked to color by value).
    pub fn generate(&self) -> Dataset {
        let points: Vec<Point> = self.points().collect();
        Dataset::new(
            format!(
                "gaussian-mixture-{}c-{}",
                self.clusters.len(),
                self.n_points
            ),
            DatasetKind::GaussianMixture,
            points,
        )
    }

    /// Streaming variant of [`generate`](Self::generate): yields the exact
    /// same `n_points` points (bit-for-bit, same RNG draws) one at a time
    /// without materializing the dataset. `generate` collects this iterator.
    pub fn points(&self) -> GaussianMixturePoints {
        GaussianMixturePoints {
            rng: StdRng::seed_from_u64(self.seed),
            std_normal: Normal::new(0.0, 1.0).expect("valid normal"),
            total_weight: self.clusters.iter().map(|c| c.weight).sum(),
            emitted: 0,
            generator: self.clone(),
        }
    }
}

/// Streaming point iterator behind [`GaussianMixtureGenerator::points`].
#[derive(Debug, Clone)]
pub struct GaussianMixturePoints {
    generator: GaussianMixtureGenerator,
    rng: StdRng,
    std_normal: Normal,
    total_weight: f64,
    emitted: usize,
}

impl Iterator for GaussianMixturePoints {
    type Item = Point;

    fn next(&mut self) -> Option<Point> {
        if self.emitted >= self.generator.n_points {
            return None;
        }
        let clusters = &self.generator.clusters;
        let cluster_idx = {
            let mut target = self.rng.gen_range(0.0..self.total_weight);
            let mut chosen = clusters.len() - 1;
            for (i, c) in clusters.iter().enumerate() {
                if target < c.weight {
                    chosen = i;
                    break;
                }
                target -= c.weight;
            }
            chosen
        };
        let c = clusters[cluster_idx];
        let u = self.std_normal.sample(&mut self.rng) * c.sigma_x;
        let v = self.std_normal.sample(&mut self.rng) * c.sigma_y;
        let (sin, cos) = c.rotation.sin_cos();
        let x = c.cx + u * cos - v * sin;
        let y = c.cy + u * sin + v * cos;
        self.emitted += 1;
        Some(Point::with_value(x, y, cluster_idx as f64))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.generator.n_points - self.emitted;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for GaussianMixturePoints {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_count_and_kind() {
        let g = GaussianMixtureGenerator::paper_clustering_dataset(2, 5_000, 1);
        let d = g.generate();
        assert_eq!(d.len(), 5_000);
        assert_eq!(d.kind, DatasetKind::GaussianMixture);
    }

    #[test]
    fn deterministic() {
        let a = GaussianMixtureGenerator::paper_clustering_dataset(3, 1_000, 5).generate();
        let b = GaussianMixtureGenerator::paper_clustering_dataset(3, 1_000, 5).generate();
        assert_eq!(a.points, b.points);
    }

    #[test]
    fn paper_variants_have_expected_cluster_counts() {
        for (variant, expected) in [(0, 1), (1, 1), (2, 2), (3, 2)] {
            let g = GaussianMixtureGenerator::paper_clustering_dataset(variant, 10, 0);
            assert_eq!(g.n_clusters(), expected, "variant {variant}");
        }
    }

    #[test]
    fn labels_match_cluster_geometry() {
        // Two well-separated blobs: points labelled 0 should be mostly near
        // (-3, 0) and points labelled 1 near (3, 0.5).
        let g = GaussianMixtureGenerator::paper_clustering_dataset(2, 20_000, 9);
        let d = g.generate();
        let mut correct = 0usize;
        for p in &d.points {
            let near_left = (p.x + 3.0).abs() < (p.x - 3.0).abs();
            let labelled_left = p.value == 0.0;
            if near_left == labelled_left {
                correct += 1;
            }
        }
        assert!(correct as f64 / d.len() as f64 > 0.99);
    }

    #[test]
    fn weights_control_cluster_shares() {
        let clusters = vec![
            GaussianCluster::isotropic(-10.0, 0.0, 0.5).with_weight(0.8),
            GaussianCluster::isotropic(10.0, 0.0, 0.5).with_weight(0.2),
        ];
        let d = GaussianMixtureGenerator::new(clusters, 20_000, 3).generate();
        let left = d.points.iter().filter(|p| p.x < 0.0).count() as f64 / d.len() as f64;
        assert!((left - 0.8).abs() < 0.03, "left share {left}");
    }

    #[test]
    fn anisotropic_clusters_are_elongated() {
        let clusters = vec![GaussianCluster::isotropic(0.0, 0.0, 1.0).with_shape(4.0, 0.5, 0.0)];
        let d = GaussianMixtureGenerator::new(clusters, 20_000, 4).generate();
        let var_x = d.points.iter().map(|p| p.x * p.x).sum::<f64>() / d.len() as f64;
        let var_y = d.points.iter().map(|p| p.y * p.y).sum::<f64>() / d.len() as f64;
        assert!(var_x > 10.0 * var_y, "var_x {var_x} var_y {var_y}");
    }

    #[test]
    fn streaming_iterator_matches_generate_bitwise() {
        let g = GaussianMixtureGenerator::paper_clustering_dataset(3, 4_321, 17);
        let materialized = g.generate();
        let streamed: Vec<Point> = g.points().collect();
        assert_eq!(streamed.len(), materialized.len());
        for (i, (a, b)) in streamed.iter().zip(&materialized.points).enumerate() {
            assert!(
                a.x.to_bits() == b.x.to_bits()
                    && a.y.to_bits() == b.y.to_bits()
                    && a.value.to_bits() == b.value.to_bits(),
                "point {i} diverged: {a:?} vs {b:?}"
            );
        }
        assert_eq!(g.points().len(), 4_321);
    }

    #[test]
    #[should_panic(expected = "at least one cluster")]
    fn rejects_empty_mixture() {
        let _ = GaussianMixtureGenerator::new(vec![], 10, 0);
    }

    #[test]
    #[should_panic(expected = "weights must be positive")]
    fn rejects_non_positive_weight() {
        let _ = GaussianMixtureGenerator::new(
            vec![GaussianCluster::isotropic(0.0, 0.0, 1.0).with_weight(0.0)],
            10,
            0,
        );
    }
}
