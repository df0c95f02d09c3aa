//! Stratified (grid) sampling — the paper's strongest baseline.
//!
//! Section VI-B describes the method: "Stratified sampling divides a domain
//! into non-overlapping bins and performs uniform random sampling for each
//! bin. Here, the number of the data points to draw for each bin is
//! determined in the most balanced way." The paper uses a 100-bin grid for
//! the user study and a 316×316 grid for Figure 1.
//!
//! The implementation keeps one reservoir per grid cell during the streaming
//! pass and solves the balanced-allocation problem at finalize time with a
//! water-filling scheme: bins that hold fewer points than their fair share
//! keep everything, and the unused budget is redistributed to the remaining
//! bins — reproducing the paper's worked example (two bins, budget 100, one
//! bin with only 10 points ⇒ allocations of 90 and 10).

use crate::sample::Sample;
use crate::traits::Sampler;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vas_data::{BoundingBox, Point};

/// Per-bin reservoir state.
#[derive(Debug, Clone, Default)]
struct Bin {
    reservoir: Vec<Point>,
    seen: u64,
}

/// Grid-stratified sampler with a fixed total budget `K`.
///
/// The stratification grid must be fixed before the pass starts, so the
/// sampler is constructed with the domain [`BoundingBox`]; in the offline
/// index-construction setting of the paper the domain is known (it is stored
/// as table metadata). Points falling outside the declared domain are clamped
/// into the border bins.
#[derive(Debug, Clone)]
pub struct StratifiedSampler {
    k: usize,
    seed: u64,
    bounds: BoundingBox,
    cols: usize,
    rows: usize,
    bins: Vec<Bin>,
    rng: StdRng,
}

impl StratifiedSampler {
    /// Creates a stratified sampler over `bounds` with a `cols × rows` grid.
    ///
    /// # Panics
    /// Panics if the grid is degenerate or `bounds` is empty.
    pub fn new(k: usize, bounds: BoundingBox, cols: usize, rows: usize, seed: u64) -> Self {
        assert!(cols > 0 && rows > 0, "grid dimensions must be positive");
        assert!(
            !bounds.is_empty(),
            "stratification domain must be non-empty"
        );
        Self {
            k,
            seed,
            bounds,
            cols,
            rows,
            bins: vec![Bin::default(); cols * rows],
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Convenience constructor matching the paper's user-study setup: a
    /// square grid with `side × side` bins (the paper uses `side = 10` for
    /// 100 bins, and `side = 316` for Figure 1).
    pub fn square(k: usize, bounds: BoundingBox, side: usize, seed: u64) -> Self {
        Self::new(k, bounds, side, side, seed)
    }

    fn bin_index(&self, p: &Point) -> usize {
        let fx = (p.x - self.bounds.min_x) / self.bounds.width();
        let fy = (p.y - self.bounds.min_y) / self.bounds.height();
        let col = ((fx * self.cols as f64).floor() as isize).clamp(0, self.cols as isize - 1);
        let row = ((fy * self.rows as f64).floor() as isize).clamp(0, self.rows as isize - 1);
        row as usize * self.cols + col as usize
    }

    /// Balanced ("water-filling") allocation of the budget across bins given
    /// the number of available points per bin. Returns the per-bin quota.
    fn balanced_allocation(available: &[u64], budget: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..available.len()).collect();
        order.sort_by_key(|&i| available[i]);
        let mut quota = vec![0usize; available.len()];
        let mut remaining = budget;
        let occupied: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&i| available[i] > 0)
            .collect();
        let mut bins_left = occupied.len();
        for &i in &occupied {
            if remaining == 0 || bins_left == 0 {
                break;
            }
            // Fair share of the remaining budget across the remaining bins.
            let fair = remaining.div_ceil(bins_left);
            let take = fair.min(available[i] as usize).min(remaining);
            quota[i] = take;
            remaining -= take;
            bins_left -= 1;
        }
        quota
    }
}

impl Sampler for StratifiedSampler {
    fn name(&self) -> &str {
        "stratified"
    }

    fn target_size(&self) -> usize {
        self.k
    }

    fn observe(&mut self, point: Point) {
        if self.k == 0 {
            return;
        }
        let idx = self.bin_index(&point);
        let bin = &mut self.bins[idx];
        bin.seen += 1;
        // Per-bin reservoir: no bin can ever need more than K points.
        if bin.reservoir.len() < self.k {
            bin.reservoir.push(point);
        } else {
            let j = self.rng.gen_range(0..bin.seen);
            if (j as usize) < self.k {
                bin.reservoir[j as usize] = point;
            }
        }
    }

    fn finalize(&mut self) -> Sample {
        let available: Vec<u64> = self.bins.iter().map(|b| b.reservoir.len() as u64).collect();
        let quota = Self::balanced_allocation(&available, self.k);

        let mut points = Vec::with_capacity(self.k.min(available.iter().sum::<u64>() as usize));
        for (bin, &q) in self.bins.iter_mut().zip(&quota) {
            // The reservoir is already a uniform sample of the bin; take a
            // random subset of it to meet the quota.
            let reservoir = std::mem::take(&mut bin.reservoir);
            if q >= reservoir.len() {
                points.extend(reservoir);
            } else {
                // Partial Fisher–Yates: select q items uniformly.
                let mut pool = reservoir;
                for i in 0..q {
                    let j = self.rng.gen_range(i..pool.len());
                    pool.swap(i, j);
                }
                points.extend_from_slice(&pool[..q]);
            }
            bin.seen = 0;
        }

        let sample = Sample::new("stratified", self.k, points);
        self.rng = StdRng::seed_from_u64(self.seed);
        sample
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vas_data::Dataset;

    fn clustered_dataset() -> Dataset {
        // 9 500 points in a tight cluster near the origin, 500 points spread
        // in a far corner: the classic case where uniform sampling starves
        // the sparse region.
        let mut pts = Vec::new();
        for i in 0..9_500 {
            let t = i as f64 / 9_500.0;
            pts.push(Point::new(t.sin() * 0.05, t.cos() * 0.05));
        }
        for i in 0..500 {
            let t = i as f64 / 500.0;
            pts.push(Point::new(0.9 + 0.05 * t, 0.9 + 0.05 * (1.0 - t)));
        }
        Dataset::from_points("clustered", pts)
    }

    fn domain() -> BoundingBox {
        BoundingBox::new(-0.1, -0.1, 1.0, 1.0)
    }

    #[test]
    fn respects_budget() {
        let d = clustered_dataset();
        let s = StratifiedSampler::square(200, domain(), 10, 1).sample_dataset(&d);
        assert_eq!(s.len(), 200);
        assert_eq!(s.method, "stratified");
    }

    #[test]
    fn keeps_everything_when_budget_exceeds_data() {
        let d = Dataset::from_points(
            "small",
            (0..30).map(|i| Point::new(i as f64 / 30.0, 0.5)).collect(),
        );
        let s = StratifiedSampler::square(100, BoundingBox::new(0.0, 0.0, 1.0, 1.0), 5, 0)
            .sample_dataset(&d);
        assert_eq!(s.len(), 30);
    }

    #[test]
    fn deterministic_given_seed() {
        let d = clustered_dataset();
        let a = StratifiedSampler::square(128, domain(), 10, 9).sample_dataset(&d);
        let b = StratifiedSampler::square(128, domain(), 10, 9).sample_dataset(&d);
        assert_eq!(a.points, b.points);
    }

    #[test]
    fn sparse_regions_get_their_balanced_share() {
        let d = clustered_dataset();
        let k = 400;
        let s = StratifiedSampler::square(k, domain(), 10, 2).sample_dataset(&d);
        // The sparse corner holds 5% of the data but occupies its own bins;
        // balanced allocation should hand it far more than 5% of the budget.
        let corner = BoundingBox::new(0.85, 0.85, 1.0, 1.0);
        let corner_points = s.filter_region(&corner).len();
        assert!(
            corner_points > k / 10,
            "sparse corner got only {corner_points} of {k} points"
        );

        // Compare with uniform sampling, which should give the corner roughly 5%.
        let u = crate::uniform::UniformSampler::new(k, 2).sample_dataset(&d);
        let uniform_corner = u.filter_region(&corner).len();
        assert!(
            corner_points > uniform_corner,
            "stratified ({corner_points}) should cover the sparse corner better \
             than uniform ({uniform_corner})"
        );
    }

    #[test]
    fn balanced_allocation_matches_paper_example() {
        // Two bins, budget 100, second bin has only 10 points ⇒ 90 / 10.
        let quota = StratifiedSampler::balanced_allocation(&[1_000, 10], 100);
        assert_eq!(quota, vec![90, 10]);
        // Both bins rich ⇒ 50 / 50.
        let quota = StratifiedSampler::balanced_allocation(&[1_000, 1_000], 100);
        assert_eq!(quota, vec![50, 50]);
        // Budget larger than the data ⇒ everything is taken.
        let quota = StratifiedSampler::balanced_allocation(&[5, 7], 100);
        assert_eq!(quota, vec![5, 7]);
        // Empty bins get nothing.
        let quota = StratifiedSampler::balanced_allocation(&[0, 50, 0, 50], 10);
        assert_eq!(quota[0], 0);
        assert_eq!(quota[2], 0);
        assert_eq!(quota.iter().sum::<usize>(), 10);
    }

    #[test]
    fn allocation_never_exceeds_budget_or_availability() {
        let available = vec![3u64, 0, 17, 4, 250, 9, 1];
        for budget in [0usize, 1, 5, 20, 100, 1_000] {
            let quota = StratifiedSampler::balanced_allocation(&available, budget);
            let total: usize = quota.iter().sum();
            assert!(total <= budget);
            let possible: u64 = available.iter().sum();
            assert_eq!(total, budget.min(possible as usize));
            for (q, a) in quota.iter().zip(&available) {
                assert!(*q as u64 <= *a);
            }
        }
    }

    #[test]
    fn zero_budget_yields_empty_sample() {
        let d = clustered_dataset();
        let s = StratifiedSampler::square(0, domain(), 10, 0).sample_dataset(&d);
        assert!(s.is_empty());
    }

    #[test]
    fn points_outside_domain_are_clamped_not_lost() {
        let d = Dataset::from_points(
            "outside",
            vec![Point::new(-5.0, -5.0), Point::new(10.0, 10.0)],
        );
        let s = StratifiedSampler::square(10, BoundingBox::new(0.0, 0.0, 1.0, 1.0), 4, 0)
            .sample_dataset(&d);
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn rejects_zero_grid() {
        let _ = StratifiedSampler::new(10, BoundingBox::new(0.0, 0.0, 1.0, 1.0), 0, 3, 0);
    }
}
