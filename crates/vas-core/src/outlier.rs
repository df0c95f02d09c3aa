//! Outlier-preserving augmentation of a VAS sample.
//!
//! The paper's conclusion lists outlier detection among the user goals left
//! to future work, and Section II-D warns that a spreading sample "could in
//! principle be harmful to some goals". This module implements the natural
//! remedy sketched by that discussion: after the main VAS sample is built, a
//! second scan finds the dataset points that are *most isolated from the
//! sample* — points whose neighbourhood the sample failed to cover — and adds
//! the strongest of them to the sample within a small extra budget.
//!
//! Because VAS already spreads its budget into sparse regions, the distances
//! involved are small for most datasets; the augmentation matters exactly
//! when a handful of extreme outliers sit far outside every covered region
//! (e.g. GPS glitches), which are precisely the points an analyst doing
//! outlier detection must see.

use vas_data::{Dataset, Point};
use vas_sampling::Sample;
use vas_spatial::KdTree;

/// An outlier candidate discovered by [`find_outliers`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct Outlier {
    /// The data point.
    point: Point,
    /// Its distance to the nearest sampled point (the isolation score).
    distance_to_sample: f64,
}

/// Returns the `budget` dataset points that are farthest from any point of
/// `sample`, in decreasing order of isolation. Ties are resolved by scan
/// order. Returns an empty vector when the sample is empty (every point is
/// equally "uncovered" then, and augmentation is meaningless).
fn find_outliers(sample: &[Point], dataset: &Dataset, budget: usize) -> Vec<Outlier> {
    if sample.is_empty() || budget == 0 || dataset.is_empty() {
        return Vec::new();
    }
    let tree = KdTree::from_points(sample);
    // Keep the `budget` most isolated points with a simple bounded insertion
    // sort — budget is tiny compared to N.
    let mut top: Vec<Outlier> = Vec::with_capacity(budget + 1);
    for p in dataset.iter() {
        let (_, nearest) = tree.nearest(p).expect("non-empty sample");
        let distance = nearest.dist(p);
        if top.len() < budget || distance > top.last().expect("non-empty top").distance_to_sample {
            let outlier = Outlier {
                point: *p,
                distance_to_sample: distance,
            };
            let pos = top
                .iter()
                .position(|o| o.distance_to_sample < distance)
                .unwrap_or(top.len());
            top.insert(pos, outlier);
            if top.len() > budget {
                top.pop();
            }
        }
    }
    top
}

/// Augments `sample` with up to `budget` outliers whose isolation exceeds
/// `min_distance` (pass `0.0` to always use the full budget). Density
/// counters, when present, are extended with a count of 1 for each added
/// point so the sample stays internally consistent.
pub fn with_outliers(
    sample: Sample,
    dataset: &Dataset,
    budget: usize,
    min_distance: f64,
) -> Sample {
    let outliers = find_outliers(&sample.points, dataset, budget);
    let mut sample = sample;
    for o in outliers {
        if o.distance_to_sample <= min_distance {
            continue;
        }
        sample.points.push(o.point);
        if let Some(densities) = sample.densities.as_mut() {
            densities.push(1);
        }
    }
    sample
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interchange::{VasConfig, VasSampler};
    use crate::kernel::{GaussianKernel, Kernel};
    use vas_data::GeolifeGenerator;
    use vas_sampling::Sampler;

    fn dataset_with_glitches() -> (Dataset, Vec<Point>) {
        let mut d = GeolifeGenerator::with_size(5_000, 77).generate();
        // Three GPS glitches far outside the normal extent.
        let glitches = vec![
            Point::with_value(130.0, 45.0, 0.0),
            Point::with_value(100.0, 30.0, 0.0),
            Point::with_value(125.0, 30.0, 0.0),
        ];
        d.points.extend(glitches.iter().copied());
        (d, glitches)
    }

    #[test]
    fn finds_the_injected_glitches() {
        let (d, glitches) = dataset_with_glitches();
        // A small sample that almost surely misses the glitches.
        let sample: Vec<Point> = d.points.iter().take(200).copied().collect();
        let outliers = find_outliers(&sample, &d, 3);
        assert_eq!(outliers.len(), 3);
        for o in &outliers {
            assert!(
                glitches.contains(&o.point),
                "unexpected outlier {:?}",
                o.point
            );
        }
        // Ordered by decreasing isolation.
        for w in outliers.windows(2) {
            assert!(w[0].distance_to_sample >= w[1].distance_to_sample);
        }
    }

    #[test]
    fn augmentation_adds_outliers_and_respects_threshold() {
        let (d, glitches) = dataset_with_glitches();
        let kernel = GaussianKernel::for_dataset(&d);
        let sample = VasSampler::from_dataset(&d, VasConfig::new(100)).sample_dataset(&d);
        let before = sample.len();
        // Farther than the sample's notion of *near* by a wide margin.
        let threshold = kernel.effective_radius(1e-6) * 2.0;
        let augmented = with_outliers(sample, &d, 5, threshold);
        // At least the glitches that the sample did not already contain are added.
        assert!(augmented.len() > before || glitches.iter().all(|g| augmented.points.contains(g)));
        for g in &glitches {
            assert!(
                augmented.points.contains(g),
                "glitch {g:?} missing after augmentation"
            );
        }
        // A huge threshold suppresses augmentation entirely.
        let sample2 = VasSampler::from_dataset(&d, VasConfig::new(100)).sample_dataset(&d);
        let len2 = sample2.len();
        let untouched = with_outliers(sample2, &d, 5, f64::INFINITY);
        assert_eq!(untouched.len(), len2);
    }

    #[test]
    fn density_counters_stay_consistent() {
        let (d, _) = dataset_with_glitches();
        let sample = VasSampler::from_dataset(&d, VasConfig::new(80)).sample_dataset(&d);
        let with_density = crate::density::with_embedded_density(sample, &d);
        let augmented = with_outliers(with_density, &d, 3, 0.0);
        assert!(augmented.has_densities());
        assert_eq!(
            augmented.densities.as_ref().unwrap().len(),
            augmented.points.len()
        );
    }

    #[test]
    fn empty_inputs_are_harmless() {
        let (d, _) = dataset_with_glitches();
        assert!(find_outliers(&[], &d, 5).is_empty());
        assert!(find_outliers(&d.points, &d, 0).is_empty());
        let empty = Dataset::from_points("none", vec![]);
        assert!(find_outliers(&d.points, &empty, 5).is_empty());
    }

    #[test]
    fn points_already_in_the_sample_are_not_outliers() {
        let (d, _) = dataset_with_glitches();
        // The sample is the full dataset: every distance is zero.
        let outliers = find_outliers(&d.points, &d, 5);
        assert!(outliers.iter().all(|o| o.distance_to_sample == 0.0));
    }
}
