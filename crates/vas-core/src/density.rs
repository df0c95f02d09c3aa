//! Density embedding (Section V of the paper).
//!
//! VAS deliberately spreads its sample out, which erases visual density
//! information: a viewer can no longer tell dense areas from sparse ones.
//! The paper's fix is a cheap second pass over the dataset that attaches a
//! counter to every sampled point, incremented whenever that point is the
//! nearest sampled point to a scanned tuple. Renderers then re-encode density
//! via dot size or jitter. A k-d tree over the (small) sample makes the pass
//! `O(N log K)`.

use vas_data::{Dataset, Point};
use vas_sampling::Sample;
use vas_spatial::KdTree;

/// Runs the density-embedding pass: for every point of `dataset`, finds its
/// nearest neighbour within `sample` and increments that point's counter.
///
/// Returns the per-sample-point counters (parallel to `sample.points`); the
/// counters sum to `dataset.len()` whenever the sample is non-empty.
pub fn embed_density(sample: &Sample, dataset: &Dataset) -> Vec<u64> {
    density_counts(&sample.points, dataset)
}

/// Same as [`embed_density`] but consumes and returns the sample with the
/// counters attached.
pub fn with_embedded_density(sample: Sample, dataset: &Dataset) -> Sample {
    let counts = density_counts(&sample.points, dataset);
    sample.with_densities(counts)
}

/// Core of the pass over a raw point slice.
fn density_counts(sample_points: &[Point], dataset: &Dataset) -> Vec<u64> {
    if sample_points.is_empty() {
        return Vec::new();
    }
    let tree = KdTree::from_points(sample_points);
    let mut counts = vec![0u64; sample_points.len()];
    for p in &dataset.points {
        let (idx, _) = tree
            .nearest(p)
            .expect("tree built from a non-empty sample always has a nearest point");
        counts[idx] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interchange::{VasConfig, VasSampler};
    use vas_data::GeolifeGenerator;
    use vas_sampling::Sampler;

    #[test]
    fn counts_sum_to_dataset_size() {
        let d = GeolifeGenerator::with_size(5_000, 21).generate();
        let mut sampler = VasSampler::from_dataset(&d, VasConfig::new(100));
        let sample = sampler.sample_dataset(&d);
        let counts = embed_density(&sample, &d);
        assert_eq!(counts.len(), sample.len());
        assert_eq!(counts.iter().sum::<u64>(), d.len() as u64);
    }

    #[test]
    fn with_embedded_density_attaches_counters() {
        let d = GeolifeGenerator::with_size(2_000, 22).generate();
        let mut sampler = VasSampler::from_dataset(&d, VasConfig::new(50));
        let sample = with_embedded_density(sampler.sample_dataset(&d), &d);
        assert!(sample.has_densities());
        assert_eq!(sample.total_density(), d.len() as u64);
    }

    #[test]
    fn empty_sample_yields_no_counts() {
        let d = GeolifeGenerator::with_size(100, 23).generate();
        let empty = Sample::new("vas", 0, vec![]);
        assert!(embed_density(&empty, &d).is_empty());
    }

    #[test]
    fn counters_reflect_local_density() {
        // Two sampled points, one inside a dense blob and one in a sparse
        // area: the dense one must receive (almost) all of the mass.
        let mut points = Vec::new();
        for i in 0..900 {
            let a = i as f64 * 0.007;
            points.push(Point::new(a.sin() * 0.1, a.cos() * 0.1)); // dense ring at origin
        }
        for i in 0..100 {
            points.push(Point::new(10.0 + (i % 10) as f64 * 0.01, 10.0)); // sparse far corner
        }
        let d = Dataset::from_points("two-regions", points);
        let sample_points = vec![Point::new(0.0, 0.0), Point::new(10.0, 10.0)];
        let counts = density_counts(&sample_points, &d);
        assert_eq!(counts[0], 900);
        assert_eq!(counts[1], 100);
    }

    #[test]
    fn every_dataset_point_is_assigned_to_its_true_nearest_sample_point() {
        let d = GeolifeGenerator::with_size(1_000, 25).generate();
        let sample_points: Vec<Point> = d.points.iter().step_by(97).copied().collect();
        let counts = density_counts(&sample_points, &d);
        // Brute-force reference.
        let mut expected = vec![0u64; sample_points.len()];
        for p in d.iter() {
            let nearest = sample_points
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.dist2(p).partial_cmp(&b.dist2(p)).unwrap())
                .map(|(i, _)| i)
                .unwrap();
            expected[nearest] += 1;
        }
        // Ties between equidistant sample points may be broken differently by
        // the tree and the brute-force scan; compare totals and allow a tiny
        // per-bucket discrepancy.
        assert_eq!(counts.iter().sum::<u64>(), expected.iter().sum::<u64>());
        let mismatched: u64 = counts
            .iter()
            .zip(&expected)
            .map(|(a, b)| a.abs_diff(*b))
            .sum();
        assert!(
            mismatched <= 2,
            "too many nearest-neighbour mismatches: {mismatched}"
        );
    }
}
