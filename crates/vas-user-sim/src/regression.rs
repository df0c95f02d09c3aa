//! The regression task (Table I(a) of the paper).
//!
//! Study setup: users see a zoomed-in map plot of a sample with a location
//! marked "X" and must pick the altitude of that location from four choices —
//! the correct value, two false values and "I'm not sure".
//!
//! Simulated user: it may only use the dots *visible in the rendered
//! viewport*. It estimates the altitude by inverse-distance-weighting the
//! values of visible sample points near the mark (a viewer reading color off
//! nearby dots); if no dot is close enough to read, it answers "I'm not
//! sure", which counts as incorrect. The estimate is then matched against the
//! multiple-choice options and the closest option is selected.

use crate::perception::visible_points;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vas_data::{BoundingBox, Dataset, Point, ZoomLevel, ZoomWorkload};
use vas_spatial::UniformGrid;

/// One multiple-choice regression question.
#[derive(Debug, Clone)]
pub struct RegressionQuestion {
    /// The zoomed viewport shown to the user.
    pub region: BoundingBox,
    /// The location marked "X".
    pub query: Point,
    /// Ground-truth altitude at the query location (local average of the
    /// original data).
    pub truth: f64,
    /// The two false answers offered alongside the truth.
    pub decoys: [f64; 2],
}

/// The regression task: a fixed set of questions generated from the original
/// dataset, answerable by any sample.
#[derive(Debug, Clone)]
pub struct RegressionTask {
    questions: Vec<RegressionQuestion>,
    /// A dot is "readable" if it lies within this fraction of the viewport
    /// diagonal from the query mark.
    perception_fraction: f64,
}

impl RegressionTask {
    /// Generates `n_questions` questions by zooming into random data-bearing
    /// regions of `dataset` (the paper uses six zoomed regions per
    /// visualization).
    ///
    /// Ground truth is the average altitude of the original data points within
    /// a small neighbourhood of the query location; the decoys are offset by
    /// ±1 and ±2 standard deviations of the dataset's altitude distribution,
    /// mirroring the "plausible but wrong" options of the study.
    pub fn generate(dataset: &Dataset, n_questions: usize, seed: u64) -> Self {
        assert!(!dataset.is_empty(), "regression task requires data");
        let mut rng = StdRng::seed_from_u64(seed);
        let workload = ZoomWorkload::new(seed ^ xreg_u64());
        let regions = workload.regions(dataset, ZoomLevel::Deep, n_questions);

        let values: Vec<f64> = dataset.points.iter().map(|p| p.value).collect();
        let value_sigma = std_dev(&values).max(1e-9);

        // Every candidate mark probes a small neighbourhood of the dataset;
        // a uniform grid plus one id buffer reused across all probes replaces
        // the full-dataset scan per probe.
        let grid = UniformGrid::build(&dataset.points, 128, 128);
        let mut cell_ids: Vec<usize> = Vec::new();

        let questions = regions
            .into_iter()
            .map(|r| {
                // The query mark "X" is an arbitrary location inside the
                // zoomed viewport, not necessarily a dense spot — the study
                // asks for the altitude *of a place*, and places off the
                // beaten track are exactly where poor samples fail. The mark
                // is accepted only if the original data has points near it
                // (so the ground truth is well defined); after a few misses
                // we fall back to the region anchor, which is a data point.
                let radius = r.viewport.diagonal() * 0.05;
                let mut query = r.anchor;
                for _ in 0..30 {
                    let candidate = Point::new(
                        rng.gen_range(r.viewport.min_x..=r.viewport.max_x),
                        rng.gen_range(r.viewport.min_y..=r.viewport.max_y),
                    );
                    let window = BoundingBox::new(
                        candidate.x - radius,
                        candidate.y - radius,
                        candidate.x + radius,
                        candidate.y + radius,
                    );
                    grid.query_region_cells_into(&window, &mut cell_ids);
                    let has_ground_truth = cell_ids
                        .iter()
                        .any(|&i| dataset.points[i].dist(&candidate) <= radius);
                    if has_ground_truth {
                        query = candidate;
                        break;
                    }
                }
                let truth = local_average_value(dataset, &grid, &mut cell_ids, &query, radius);
                let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                let decoys = [truth + sign * value_sigma, truth - sign * 2.0 * value_sigma];
                RegressionQuestion {
                    region: r.viewport,
                    query,
                    truth,
                    decoys,
                }
            })
            .collect();

        Self {
            questions,
            perception_fraction: 0.12,
        }
    }

    /// The generated questions.
    pub fn questions(&self) -> &[RegressionQuestion] {
        &self.questions
    }

    /// Answers one question using only the sample points visible in the
    /// question's viewport. Returns `true` when the simulated user picks the
    /// correct option.
    pub fn answer(&self, question: &RegressionQuestion, sample_points: &[Point]) -> bool {
        let viewport = vas_viz::Viewport::new(question.region, 512, 512);
        let visible = visible_points(sample_points, &viewport);
        let radius = question.region.diagonal() * self.perception_fraction;

        // Inverse-distance-weighted read-off of nearby visible dots.
        let mut weight_sum = 0.0;
        let mut value_sum = 0.0;
        for p in &visible {
            let d = p.dist(&question.query);
            if d <= radius {
                let w = 1.0 / (d + radius * 0.01);
                weight_sum += w;
                value_sum += w * p.value;
            }
        }
        if weight_sum == 0.0 {
            return false; // "I'm not sure"
        }
        let estimate = value_sum / weight_sum;

        // Multiple choice: pick the option closest to the estimate.
        let mut best_is_truth = true;
        let mut best_err = (estimate - question.truth).abs();
        for d in question.decoys {
            let err = (estimate - d).abs();
            if err < best_err {
                best_err = err;
                best_is_truth = false;
            }
        }
        best_is_truth
    }

    /// Fraction of questions a sample lets the simulated user answer
    /// correctly — one cell of Table I(a).
    pub fn success_ratio(&self, sample_points: &[Point]) -> f64 {
        if self.questions.is_empty() {
            return 0.0;
        }
        let correct = self
            .questions
            .iter()
            .filter(|q| self.answer(q, sample_points))
            .count();
        correct as f64 / self.questions.len() as f64
    }
}

/// Average `value` of the dataset points within `radius` of `center`
/// (falls back to the nearest point's value if the neighbourhood is empty).
///
/// Candidate ids come from `grid` through the reusable `cell_ids` buffer and
/// are summed in ascending index order, so the result is bit-identical to
/// the full scan in dataset order this replaced.
fn local_average_value(
    dataset: &Dataset,
    grid: &UniformGrid,
    cell_ids: &mut Vec<usize>,
    center: &Point,
    radius: f64,
) -> f64 {
    let window = BoundingBox::new(
        center.x - radius,
        center.y - radius,
        center.x + radius,
        center.y + radius,
    );
    grid.query_region_cells_into(&window, cell_ids);
    cell_ids.sort_unstable();
    let mut sum = 0.0;
    let mut count = 0usize;
    for &i in cell_ids.iter() {
        let p = &dataset.points[i];
        if p.dist(center) <= radius {
            sum += p.value;
            count += 1;
        }
    }
    if count > 0 {
        sum / count as f64
    } else {
        dataset
            .points
            .iter()
            .min_by(|a, b| a.dist2(center).partial_cmp(&b.dist2(center)).unwrap())
            .map(|p| p.value)
            .unwrap_or(0.0)
    }
}

fn std_dev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    (values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64).sqrt()
}

/// Obfuscation-free seed tweak so the workload seed differs from the decoy
/// seed without the caller having to supply two seeds.
#[allow(non_snake_case)]
fn xreg_u64() -> u64 {
    0x5245_4752_4553_u64 // "REGRES"
}

#[cfg(test)]
mod tests {
    use super::*;
    use vas_core::{VasConfig, VasSampler};
    use vas_data::GeolifeGenerator;
    use vas_sampling::{Sampler, UniformSampler};

    fn dataset() -> Dataset {
        GeolifeGenerator::with_size(10_000, 41).generate()
    }

    #[test]
    fn generates_requested_questions_with_sane_ground_truth() {
        let d = dataset();
        let task = RegressionTask::generate(&d, 6, 1);
        assert_eq!(task.questions().len(), 6);
        let (lo, hi) = d
            .points
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| {
                (lo.min(p.value), hi.max(p.value))
            });
        for q in task.questions() {
            assert!(q.region.contains(&q.query));
            assert!(q.truth >= lo - 1.0 && q.truth <= hi + 1.0);
            assert_ne!(q.decoys[0], q.truth);
            assert_ne!(q.decoys[1], q.truth);
        }
    }

    #[test]
    fn full_dataset_answers_almost_everything() {
        let d = dataset();
        let task = RegressionTask::generate(&d, 8, 2);
        let ratio = task.success_ratio(&d.points);
        assert!(ratio >= 0.75, "full data should ace the task, got {ratio}");
    }

    #[test]
    fn empty_sample_answers_nothing() {
        let d = dataset();
        let task = RegressionTask::generate(&d, 5, 3);
        assert_eq!(task.success_ratio(&[]), 0.0);
    }

    #[test]
    fn vas_beats_uniform_at_small_sample_sizes() {
        // The Table I(a) headline: at equal (small) budgets the VAS sample
        // keeps points near arbitrary zoomed-in locations while uniform
        // sampling leaves them empty.
        let d = dataset();
        let task = RegressionTask::generate(&d, 12, 4);
        let k = 600;
        let vas = VasSampler::from_dataset(&d, VasConfig::new(k)).sample_dataset(&d);
        let uni = UniformSampler::new(k, 9).sample_dataset(&d);
        let vas_score = task.success_ratio(&vas.points);
        let uni_score = task.success_ratio(&uni.points);
        assert!(
            vas_score >= uni_score,
            "VAS {vas_score} should be at least uniform {uni_score}"
        );
        assert!(vas_score > 0.0);
    }

    #[test]
    fn success_improves_with_sample_size() {
        let d = dataset();
        let task = RegressionTask::generate(&d, 12, 5);
        let small = UniformSampler::new(50, 1).sample_dataset(&d);
        let large = UniformSampler::new(5_000, 1).sample_dataset(&d);
        assert!(task.success_ratio(&large.points) >= task.success_ratio(&small.points));
    }

    #[test]
    fn deterministic_questions() {
        let d = dataset();
        let a = RegressionTask::generate(&d, 4, 7);
        let b = RegressionTask::generate(&d, 4, 7);
        for (qa, qb) in a.questions().iter().zip(b.questions()) {
            assert_eq!(qa.query, qb.query);
            assert_eq!(qa.truth, qb.truth);
        }
    }

    #[test]
    #[should_panic(expected = "requires data")]
    fn rejects_empty_dataset() {
        let empty = Dataset::from_points("none", vec![]);
        let _ = RegressionTask::generate(&empty, 3, 0);
    }
}
