//! The VAS optimization objective and the *responsibility* bookkeeping
//! quantity (Definitions 1 and 2 of the paper).
//!
//! * The **objective** of a sample `S` is `Σ_{i<j} κ̃(s_i, s_j)` — the total
//!   pairwise proximity mass. VAS seeks the size-`K` subset minimizing it.
//! * The **responsibility** of an element `s_i` is
//!   `rsp_S(s_i) = ½ Σ_{j≠i} κ̃(s_i, s_j)`, i.e. the share of the objective
//!   that `s_i` participates in. The Expand/Shrink trick of the Interchange
//!   algorithm maintains responsibilities incrementally so that a replacement
//!   test costs `O(K)` instead of `O(K²)`.
//!
//! These free functions are the *reference* (quadratic) implementations used
//! by the exact solver, the tests and the evaluation harness; the Interchange
//! algorithm keeps its own incremental state.

use crate::kernel::Kernel;
use vas_data::Point;

/// The optimization objective `Σ_{i<j} κ̃(s_i, s_j)` of a candidate sample.
///
/// Runs in `O(|points|²)` kernel evaluations; intended for evaluation and for
/// small instances (e.g. the Table II exact-solver comparison), not for the
/// sampling hot path.
pub fn objective<K: Kernel + ?Sized>(kernel: &K, points: &[Point]) -> f64 {
    let mut total = 0.0;
    for i in 0..points.len() {
        for j in (i + 1)..points.len() {
            total += kernel.eval(&points[i], &points[j]);
        }
    }
    total
}

/// Responsibilities of every element of `points` (quadratic reference
/// implementation).
pub fn responsibilities<K: Kernel + ?Sized>(kernel: &K, points: &[Point]) -> Vec<f64> {
    let n = points.len();
    let mut rsp = vec![0.0; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let v = kernel.eval(&points[i], &points[j]);
            rsp[i] += 0.5 * v;
            rsp[j] += 0.5 * v;
        }
    }
    rsp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::GaussianKernel;
    use proptest::prelude::*;

    fn kernel() -> GaussianKernel {
        GaussianKernel::new(1.0)
    }

    #[test]
    fn objective_of_tiny_sets() {
        let k = kernel();
        assert_eq!(objective(&k, &[]), 0.0);
        assert_eq!(objective(&k, &[Point::new(0.0, 0.0)]), 0.0);
        let two = [Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        assert!((objective(&k, &two) - (-0.5f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn objective_counts_each_pair_once() {
        let k = kernel();
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
        ];
        let expected =
            k.eval(&pts[0], &pts[1]) + k.eval(&pts[0], &pts[2]) + k.eval(&pts[1], &pts[2]);
        assert!((objective(&k, &pts) - expected).abs() < 1e-12);
    }

    #[test]
    fn spreading_points_reduces_objective() {
        let k = kernel();
        let tight: Vec<Point> = (0..10).map(|i| Point::new(i as f64 * 0.1, 0.0)).collect();
        let spread: Vec<Point> = (0..10).map(|i| Point::new(i as f64 * 3.0, 0.0)).collect();
        assert!(objective(&k, &spread) < objective(&k, &tight));
    }

    #[test]
    fn responsibilities_sum_to_objective() {
        let k = kernel();
        let pts: Vec<Point> = (0..12)
            .map(|i| Point::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
            .collect();
        let rsp = responsibilities(&k, &pts);
        let total: f64 = rsp.iter().sum();
        assert!((total - objective(&k, &pts)).abs() < 1e-9);
    }

    proptest! {
        /// The objective is invariant under permutation of the points.
        #[test]
        fn objective_is_permutation_invariant(
            xs in proptest::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 2..20)
        ) {
            let k = kernel();
            let pts: Vec<Point> = xs.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let mut reversed = pts.clone();
            reversed.reverse();
            let a = objective(&k, &pts);
            let b = objective(&k, &reversed);
            prop_assert!((a - b).abs() < 1e-9 * (1.0 + a.abs()));
        }

        /// Removing the element with the largest responsibility never increases
        /// the objective by more than removing any other element would — i.e.
        /// the Shrink rule removes a maximally-responsible element.
        #[test]
        fn removing_max_responsibility_is_greedy_optimal(
            xs in proptest::collection::vec((-5.0f64..5.0, -5.0f64..5.0), 3..15)
        ) {
            let k = kernel();
            let pts: Vec<Point> = xs.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let rsp = responsibilities(&k, &pts);
            let max_idx = rsp
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(i, _)| i)
                .unwrap();
            let objective_without = |drop: usize| {
                let reduced: Vec<Point> = pts
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != drop)
                    .map(|(_, p)| *p)
                    .collect();
                objective(&k, &reduced)
            };
            let best = objective_without(max_idx);
            for i in 0..pts.len() {
                prop_assert!(best <= objective_without(i) + 1e-9);
            }
        }

        /// Responsibilities are non-negative and each is at most half the
        /// number of other points (kernel values are ≤ 1).
        #[test]
        fn responsibility_bounds(
            xs in proptest::collection::vec((-5.0f64..5.0, -5.0f64..5.0), 2..20)
        ) {
            let k = kernel();
            let pts: Vec<Point> = xs.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let rsp = responsibilities(&k, &pts);
            for r in rsp {
                prop_assert!(r >= 0.0);
                prop_assert!(r <= 0.5 * (pts.len() - 1) as f64 + 1e-12);
            }
        }
    }
}
