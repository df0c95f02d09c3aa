//! The clustering task (Table I(c) of the paper).
//!
//! Study setup: datasets are generated from one or two 2-D Gaussian
//! distributions; users look at a plot of a sample and report how many
//! clusters they see.
//!
//! Simulated user: it renders the sample at overview zoom and counts the
//! spatially-separate ink blobs of the bitmap
//! ([`count_ink_clusters`]), answering
//! with that count. The answer is correct when it matches the number of
//! generating Gaussians.

use crate::perception::{count_ink_clusters, PerceptionConfig};
use vas_data::{BoundingBox, Dataset};
use vas_sampling::Sample;
use vas_viz::{PlotStyle, ScatterRenderer, SizeEncoding, Viewport};

/// The clustering task for one dataset with a known number of clusters.
#[derive(Debug, Clone)]
pub struct ClusteringTask {
    /// Ground-truth number of generating clusters.
    pub true_clusters: usize,
    /// Overview region the plot is rendered at (normally the full dataset
    /// extent — clustering questions are asked at overview zoom).
    pub region: BoundingBox,
    canvas_size: usize,
    perception: PerceptionConfig,
}

impl ClusteringTask {
    /// Creates the task for `dataset`, whose ground truth is `true_clusters`
    /// (the number of Gaussian components it was generated from).
    ///
    /// # Panics
    /// Panics if the dataset is empty or `true_clusters` is zero.
    pub fn new(dataset: &Dataset, true_clusters: usize) -> Self {
        assert!(!dataset.is_empty(), "clustering task requires data");
        assert!(true_clusters > 0, "at least one cluster is required");
        let bounds = dataset.bounds();
        Self {
            true_clusters,
            region: bounds.padded(bounds.diagonal() * 0.03),
            canvas_size: 320,
            perception: PerceptionConfig::default(),
        }
    }

    /// The number of clusters the simulated user perceives in a plot of
    /// `sample`.
    pub fn perceived_clusters(&self, sample: &Sample) -> usize {
        let viewport = Viewport::new(self.region, self.canvas_size, self.canvas_size);
        let style = if sample.has_densities() {
            PlotStyle {
                radius: 1,
                size: SizeEncoding::ByDensity { max_radius: 5 },
                ..PlotStyle::default()
            }
        } else {
            PlotStyle {
                radius: 1,
                ..PlotStyle::default()
            }
        };
        let canvas = ScatterRenderer::new(style).render_sample(sample, &viewport);
        count_ink_clusters(&canvas, &self.perception)
    }

    /// Whether the simulated user counts the clusters correctly — one cell of
    /// Table I(c) is the average of this over datasets and sample sizes.
    pub fn answer(&self, sample: &Sample) -> bool {
        self.perceived_clusters(sample) == self.true_clusters
    }

    /// Convenience: 1.0 when correct, 0.0 otherwise.
    pub fn success_ratio(&self, sample: &Sample) -> f64 {
        if self.answer(sample) {
            1.0
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vas_core::{density::with_embedded_density, VasConfig, VasSampler};
    use vas_data::GaussianMixtureGenerator;
    use vas_sampling::{Sampler, UniformSampler};

    fn mixture(variant: usize, n: usize) -> (Dataset, usize) {
        let gen = GaussianMixtureGenerator::paper_clustering_dataset(variant, n, 77);
        let truth = gen.n_clusters();
        (gen.generate(), truth)
    }

    #[test]
    fn full_dataset_reveals_the_true_cluster_count() {
        // Variants 0–2 are unambiguous (single blobs or well-separated pairs).
        for variant in 0..3 {
            let (d, truth) = mixture(variant, 20_000);
            let task = ClusteringTask::new(&d, truth);
            let full = Sample::new("full", d.len(), d.points.clone());
            assert_eq!(
                task.perceived_clusters(&full),
                truth,
                "variant {variant}: full data should show {truth} clusters"
            );
        }
    }

    #[test]
    fn overlapping_clusters_are_genuinely_ambiguous() {
        // Variant 3 draws two partially-overlapping Gaussians; the paper
        // itself notes that viewers do worse when clusters overlap. The
        // perception model may merge them, but it must never see more than
        // the true number of components in the full data.
        let (d, truth) = mixture(3, 20_000);
        let task = ClusteringTask::new(&d, truth);
        let full = Sample::new("full", d.len(), d.points.clone());
        let perceived = task.perceived_clusters(&full);
        assert!(
            perceived >= 1 && perceived <= truth,
            "perceived {perceived} clusters for the overlapping pair"
        );
    }

    #[test]
    fn uniform_sample_of_reasonable_size_is_correct() {
        let (d, truth) = mixture(2, 20_000);
        let task = ClusteringTask::new(&d, truth);
        let sample = UniformSampler::new(2_000, 3).sample_dataset(&d);
        assert!(task.answer(&sample));
    }

    #[test]
    fn vas_with_density_identifies_two_clusters() {
        let (d, truth) = mixture(2, 10_000);
        let task = ClusteringTask::new(&d, truth);
        let vas = VasSampler::from_dataset(&d, VasConfig::new(1_000)).sample_dataset(&d);
        let with_density = with_embedded_density(vas, &d);
        assert!(
            task.answer(&with_density),
            "perceived {} clusters instead of {truth}",
            task.perceived_clusters(&with_density)
        );
    }

    #[test]
    fn single_cluster_dataset_is_not_split() {
        let (d, truth) = mixture(0, 10_000);
        assert_eq!(truth, 1);
        let task = ClusteringTask::new(&d, truth);
        let sample = UniformSampler::new(3_000, 5).sample_dataset(&d);
        assert_eq!(task.perceived_clusters(&sample), 1);
    }

    #[test]
    fn empty_sample_shows_zero_clusters() {
        let (d, truth) = mixture(2, 5_000);
        let task = ClusteringTask::new(&d, truth);
        let empty = Sample::new("empty", 0, vec![]);
        assert_eq!(task.perceived_clusters(&empty), 0);
        assert!(!task.answer(&empty));
    }

    #[test]
    #[should_panic(expected = "at least one cluster")]
    fn rejects_zero_truth() {
        let (d, _) = mixture(0, 100);
        let _ = ClusteringTask::new(&d, 0);
    }
}
