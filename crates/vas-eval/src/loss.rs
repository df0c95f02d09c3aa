//! Monte-Carlo estimation of the visualization loss.
//!
//! Section VI-B of the paper evaluates samples with the loss
//!
//! ```text
//!     Loss(S) = (1/M) Σ_{m=1..M}  1 / Σ_{s ∈ S} κ(x_m, s)
//! ```
//!
//! where the `x_m` are M = 1000 random probe locations restricted to the data
//! *domain*: a random point counts as in-domain if some point of the original
//! dataset lies within a fixed radius of it (the paper uses 0.1 for Geolife).
//! Because individual point-losses can overflow a double when a probe lands
//! far from every sampled point, the paper reports the **median** point-loss
//! instead of the mean; this module computes both.
//!
//! The `log-loss-ratio` of a sample normalizes its loss by the loss of the
//! full dataset: `log10(Loss(S) / Loss(D))`, so 0 is perfect.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vas_core::Kernel;
use vas_data::{Dataset, Point};
use vas_spatial::{HashGrid, KdTree, NeighborBatch};

/// Configuration of the Monte-Carlo loss estimator.
#[derive(Debug, Clone)]
pub struct LossConfig {
    /// Number of probe locations (the paper uses 1000).
    pub probes: usize,
    /// A probe is in-domain if an original data point lies within this
    /// fraction of the dataset's bounding-box diagonal. The paper's absolute
    /// 0.1 for Geolife corresponds to roughly 3% of that dataset's diagonal.
    pub domain_radius_fraction: f64,
    /// RNG seed for probe placement.
    pub seed: u64,
    /// Point-losses are clamped to this value to avoid infinities when a
    /// probe is far from every sampled point.
    pub max_point_loss: f64,
}

impl Default for LossConfig {
    fn default() -> Self {
        Self {
            probes: 1_000,
            domain_radius_fraction: 0.03,
            seed: 7,
            max_point_loss: 1e300,
        }
    }
}

/// The estimated loss of one sample.
#[derive(Debug, Clone, Copy)]
pub struct LossReport {
    /// Mean point-loss across probes (can be astronomically large).
    pub mean: f64,
    /// Median point-loss across probes (the paper's headline number).
    pub median: f64,
    /// Number of probes used.
    pub probes: usize,
}

/// Monte-Carlo loss estimator with a fixed probe set.
///
/// The probe locations are generated **once** from the original dataset, so
/// different samples of the same dataset are compared on identical probes —
/// this is what makes loss values comparable across methods and sample sizes,
/// as required for Figures 7 and 8.
#[derive(Debug, Clone)]
pub struct LossEstimator {
    probes: Vec<Point>,
    config: LossConfig,
    /// Median point-loss of the full dataset, the denominator of the
    /// log-loss-ratio.
    full_dataset_median: f64,
}

impl LossEstimator {
    /// Builds an estimator for `dataset` using kernel `kernel`.
    ///
    /// Probe generation rejects locations that fall outside the data domain;
    /// if the rejection rate is extreme (pathological datasets), the
    /// estimator stops after examining `100 × probes` candidates and keeps
    /// whatever probes were accepted.
    pub fn new<K: Kernel + ?Sized>(dataset: &Dataset, kernel: &K, config: LossConfig) -> Self {
        assert!(config.probes > 0, "at least one probe is required");
        let bounds = dataset.bounds();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut probes = Vec::with_capacity(config.probes);

        if !dataset.is_empty() && !bounds.is_empty() {
            let domain_radius = (bounds.diagonal() * config.domain_radius_fraction).max(1e-12);
            // Domain membership tests use a k-d tree over (a subsample of) the
            // dataset; a 50K subsample is plenty to delineate the domain.
            let step = (dataset.len() / 50_000).max(1);
            let domain_tree =
                KdTree::build(dataset.points.iter().step_by(step).copied().enumerate());
            let mut attempts = 0usize;
            while probes.len() < config.probes && attempts < config.probes * 100 {
                attempts += 1;
                let candidate = Point::new(
                    rng.gen_range(bounds.min_x..=bounds.max_x),
                    rng.gen_range(bounds.min_y..=bounds.max_y),
                );
                let (_, nearest) = domain_tree
                    .nearest(&candidate)
                    .expect("domain tree is non-empty");
                if nearest.dist(&candidate) <= domain_radius {
                    probes.push(candidate);
                }
            }
        }

        let mut estimator = Self {
            probes,
            config,
            full_dataset_median: f64::NAN,
        };
        let full = estimator.evaluate(kernel, &dataset.points);
        estimator.full_dataset_median = full.median;
        estimator
    }

    /// The probe locations (exposed for tests and diagnostics).
    pub fn probes(&self) -> &[Point] {
        &self.probes
    }

    /// Estimates the loss of a sample.
    pub fn evaluate<K: Kernel + ?Sized>(&self, kernel: &K, sample: &[Point]) -> LossReport {
        if self.probes.is_empty() {
            return LossReport {
                mean: 0.0,
                median: 0.0,
                probes: 0,
            };
        }
        if sample.is_empty() {
            return LossReport {
                mean: self.config.max_point_loss,
                median: self.config.max_point_loss,
                probes: self.probes.len(),
            };
        }
        // Locality: kernel contributions beyond the effective radius are
        // negligible, so only sample points near the probe are summed. The
        // M identical fixed-radius queries go through a spatial hash with
        // radius-sized cells — the same locality index the Interchange loop
        // uses.
        let radius = kernel.effective_radius(1e-12).min(f64::MAX);
        let grid = HashGrid::from_entries(radius, sample.iter().copied().enumerate());
        // Each probe's kernel sum runs through the batched SoA path: the grid
        // gathers the neighbourhood's squared distances as flat lanes in
        // visitation order, one `eval_dist2_batch` sweep maps them, and the
        // total folds the value lanes left-to-right — kernel for kernel the
        // same bits as the scalar visitor (`p.dist2(probe)` is bit-identical
        // to `probe.dist2(p)`: exact negation, same sum).
        let mut gather = NeighborBatch::new();
        let mut vals: Vec<f64> = Vec::new();
        let mut losses = Vec::with_capacity(self.probes.len());
        for probe in &self.probes {
            grid.gather_in_radius_into(probe, radius, &mut gather);
            vals.clear();
            vals.resize(gather.len(), 0.0);
            kernel.eval_dist2_batch(gather.dist2(), &mut vals);
            let mut total = 0.0;
            for &v in &vals {
                total += v;
            }
            losses.push(if total > 0.0 {
                (1.0 / total).min(self.config.max_point_loss)
            } else {
                self.config.max_point_loss
            });
        }
        let mean = losses.iter().sum::<f64>() / losses.len() as f64;
        let median = crate::stats::median(&losses);
        LossReport {
            mean,
            median,
            probes: losses.len(),
        }
    }

    /// The paper's `log-loss-ratio(S) = log10(Loss(S) / Loss(D))`, using the
    /// median point-loss for both numerator and denominator.
    pub fn log_loss_ratio<K: Kernel + ?Sized>(&self, kernel: &K, sample: &[Point]) -> f64 {
        let report = self.evaluate(kernel, sample);
        (report.median / self.full_dataset_median).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vas_core::{GaussianKernel, VasConfig, VasSampler};
    use vas_data::GeolifeGenerator;
    use vas_sampling::{Sampler, UniformSampler};

    fn dataset() -> Dataset {
        GeolifeGenerator::with_size(8_000, 33).generate()
    }

    #[test]
    fn probes_are_generated_inside_the_domain() {
        let d = dataset();
        let kernel = GaussianKernel::for_dataset(&d);
        let est = LossEstimator::new(&d, &kernel, LossConfig::default());
        assert_eq!(est.probes().len(), 1_000);
        let bounds = d.bounds();
        for p in est.probes() {
            assert!(bounds.contains(p));
        }
    }

    #[test]
    fn full_dataset_has_the_smallest_loss() {
        let d = dataset();
        let kernel = GaussianKernel::for_dataset(&d);
        let est = LossEstimator::new(&d, &kernel, LossConfig::default());
        let small = UniformSampler::new(200, 1).sample_dataset(&d);
        let small_loss = est.evaluate(&kernel, &small.points);
        assert!(small_loss.median >= est.full_dataset_median);
        // log-loss-ratio of the full dataset itself is 0 by definition.
        let llr_full = est.log_loss_ratio(&kernel, &d.points);
        assert!(llr_full.abs() < 1e-9);
        // and positive for the small sample.
        assert!(est.log_loss_ratio(&kernel, &small.points) >= 0.0);
    }

    #[test]
    fn bigger_samples_have_smaller_loss() {
        let d = dataset();
        let kernel = GaussianKernel::for_dataset(&d);
        let est = LossEstimator::new(&d, &kernel, LossConfig::default());
        let small = UniformSampler::new(100, 2).sample_dataset(&d);
        let large = UniformSampler::new(4_000, 2).sample_dataset(&d);
        let l_small = est.evaluate(&kernel, &small.points).median;
        let l_large = est.evaluate(&kernel, &large.points).median;
        assert!(
            l_large < l_small,
            "4000-point sample ({l_large}) should beat 100-point sample ({l_small})"
        );
    }

    #[test]
    fn vas_has_lower_loss_than_uniform_at_equal_size() {
        // The core quantitative claim behind Figure 8.
        let d = dataset();
        let kernel = GaussianKernel::for_dataset(&d);
        let est = LossEstimator::new(&d, &kernel, LossConfig::default());
        let k = 500;
        let uniform = UniformSampler::new(k, 3).sample_dataset(&d);
        let vas = VasSampler::from_dataset(&d, VasConfig::new(k)).sample_dataset(&d);
        let l_uniform = est.log_loss_ratio(&kernel, &uniform.points);
        let l_vas = est.log_loss_ratio(&kernel, &vas.points);
        assert!(
            l_vas < l_uniform,
            "VAS log-loss-ratio {l_vas} should beat uniform {l_uniform}"
        );
    }

    #[test]
    fn empty_sample_gets_the_maximal_loss() {
        let d = dataset();
        let kernel = GaussianKernel::for_dataset(&d);
        let cfg = LossConfig {
            probes: 50,
            ..LossConfig::default()
        };
        let est = LossEstimator::new(&d, &kernel, cfg.clone());
        let report = est.evaluate(&kernel, &[]);
        assert_eq!(report.median, cfg.max_point_loss);
    }

    #[test]
    fn deterministic_given_seed() {
        let d = dataset();
        let kernel = GaussianKernel::for_dataset(&d);
        let a = LossEstimator::new(&d, &kernel, LossConfig::default());
        let b = LossEstimator::new(&d, &kernel, LossConfig::default());
        assert_eq!(a.probes(), b.probes());
        assert_eq!(a.full_dataset_median, b.full_dataset_median);
    }

    #[test]
    fn estimator_crosses_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LossEstimator>();
        assert_send_sync::<LossConfig>();
    }

    #[test]
    #[should_panic(expected = "at least one probe")]
    fn rejects_zero_probes() {
        let d = dataset();
        let kernel = GaussianKernel::for_dataset(&d);
        let _ = LossEstimator::new(
            &d,
            &kernel,
            LossConfig {
                probes: 0,
                ..LossConfig::default()
            },
        );
    }
}
