//! Branch-and-bound and exhaustive solvers for the VAS subset-selection
//! problem.

use std::time::{Duration, Instant};
use vas_core::{objective, Kernel};
use vas_data::Point;

/// Result of an exact optimization run.
#[derive(Debug, Clone)]
pub struct ExactSolution {
    /// Indices (into the input slice) of the selected points.
    pub indices: Vec<usize>,
    /// The selected points themselves.
    pub points: Vec<Point>,
    /// Objective value `Σ_{i<j} κ̃(s_i, s_j)` of the selection.
    pub objective: f64,
    /// Wall-clock time the solver took.
    pub runtime: Duration,
    /// Number of search nodes explored (1 for the exhaustive solver's
    /// enumeration count).
    pub nodes_explored: u64,
}

/// Exact solver for `min_{|S| = K} Σ_{i<j} κ̃(s_i, s_j)`.
#[derive(Debug, Clone, Default)]
pub struct ExactSolver {
    /// Optional cap on explored nodes; `None` means unbounded. When the cap
    /// is hit the best incumbent found so far is returned (and is then only a
    /// heuristic solution, flagged by `nodes_explored >= cap`).
    pub node_limit: Option<u64>,
}

impl ExactSolver {
    /// Creates an unbounded exact solver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Exhaustively enumerates every K-subset. Only feasible for very small
    /// instances (it is used to validate the branch-and-bound solver).
    ///
    /// # Panics
    /// Panics if `k > points.len()` or `k == 0`.
    pub fn solve_exhaustive<K: Kernel + ?Sized>(
        &self,
        kernel: &K,
        points: &[Point],
        k: usize,
    ) -> ExactSolution {
        assert!(k > 0 && k <= points.len(), "invalid K for exhaustive solve");
        let start = Instant::now();
        let pair = PairTable::new(kernel, points);
        let mut best_obj = f64::INFINITY;
        let mut best: Vec<usize> = Vec::new();
        let mut current: Vec<usize> = Vec::new();
        let mut count = 0u64;
        enumerate(points.len(), k, 0, &mut current, &mut |subset| {
            count += 1;
            let obj = pair.objective_of(subset);
            if obj < best_obj {
                best_obj = obj;
                best = subset.to_vec();
            }
        });
        ExactSolution {
            points: best.iter().map(|&i| points[i]).collect(),
            indices: best,
            objective: best_obj,
            runtime: start.elapsed(),
            nodes_explored: count,
        }
    }

    /// Branch-and-bound search for the exact optimum.
    ///
    /// `incumbent` optionally supplies an initial feasible solution (e.g. the
    /// Interchange output) whose objective is used as the initial upper
    /// bound; a good incumbent dramatically improves pruning but never
    /// changes the returned optimum.
    ///
    /// # Panics
    /// Panics if `k > points.len()` or `k == 0`.
    pub fn solve<K: Kernel + ?Sized>(
        &self,
        kernel: &K,
        points: &[Point],
        k: usize,
        incumbent: Option<&[usize]>,
    ) -> ExactSolution {
        assert!(k > 0 && k <= points.len(), "invalid K for exact solve");
        let start = Instant::now();
        let n = points.len();
        let pair = PairTable::new(kernel, points);

        let (mut best, mut best_obj) = match incumbent {
            Some(indices) => {
                assert_eq!(indices.len(), k, "incumbent must have exactly K elements");
                (indices.to_vec(), pair.objective_of(indices))
            }
            None => {
                // Greedy incumbent: repeatedly add the point with the smallest
                // marginal cost against the current selection.
                let mut chosen: Vec<usize> = vec![0];
                while chosen.len() < k {
                    let mut best_i = usize::MAX;
                    let mut best_cost = f64::INFINITY;
                    for i in 0..n {
                        if chosen.contains(&i) {
                            continue;
                        }
                        let cost: f64 = chosen.iter().map(|&j| pair.get(i, j)).sum();
                        if cost < best_cost {
                            best_cost = cost;
                            best_i = i;
                        }
                    }
                    chosen.push(best_i);
                }
                let obj = pair.objective_of(&chosen);
                (chosen, obj)
            }
        };

        let mut state = SearchState {
            pair: &pair,
            n,
            k,
            best_obj: &mut best_obj,
            best: &mut best,
            nodes: 0,
            node_limit: self.node_limit,
        };
        let mut chosen = Vec::with_capacity(k);
        let mut mustpay = vec![0.0f64; n];
        state.dfs(0, 0.0, &mut chosen, &mut mustpay);
        let nodes = state.nodes;

        best.sort_unstable();
        ExactSolution {
            points: best.iter().map(|&i| points[i]).collect(),
            indices: best,
            objective: best_obj,
            runtime: start.elapsed(),
            nodes_explored: nodes,
        }
    }
}

/// Dense symmetric table of pairwise kernel values.
struct PairTable {
    n: usize,
    values: Vec<f64>,
}

impl PairTable {
    fn new<K: Kernel + ?Sized>(kernel: &K, points: &[Point]) -> Self {
        let n = points.len();
        let mut values = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let v = kernel.eval(&points[i], &points[j]);
                values[i * n + j] = v;
                values[j * n + i] = v;
            }
        }
        Self { n, values }
    }

    #[inline]
    fn get(&self, i: usize, j: usize) -> f64 {
        self.values[i * self.n + j]
    }

    fn objective_of(&self, subset: &[usize]) -> f64 {
        let mut total = 0.0;
        for (a, &i) in subset.iter().enumerate() {
            for &j in &subset[(a + 1)..] {
                total += self.get(i, j);
            }
        }
        total
    }
}

struct SearchState<'a> {
    pair: &'a PairTable,
    n: usize,
    k: usize,
    best_obj: &'a mut f64,
    best: &'a mut Vec<usize>,
    nodes: u64,
    node_limit: Option<u64>,
}

impl SearchState<'_> {
    /// Depth-first include/exclude search over point indices.
    ///
    /// `cost` is the pairwise objective of `chosen`; `mustpay[i]` caches
    /// `Σ_{j ∈ chosen} κ̃(i, j)` for every index (only entries `>= next` are
    /// consulted).
    fn dfs(&mut self, next: usize, cost: f64, chosen: &mut Vec<usize>, mustpay: &mut [f64]) {
        if let Some(limit) = self.node_limit {
            if self.nodes >= limit {
                return;
            }
        }
        self.nodes += 1;

        if chosen.len() == self.k {
            if cost < *self.best_obj {
                *self.best_obj = cost;
                *self.best = chosen.clone();
            }
            return;
        }
        let needed = self.k - chosen.len();
        let remaining = self.n - next;
        if remaining < needed {
            return; // not enough points left
        }

        // Lower bound: the current cost plus, for the `needed` future picks,
        // the smallest possible "must pay" contributions against the points
        // already chosen (cross terms among future picks are ≥ 0).
        let mut candidate_costs: Vec<f64> = (next..self.n).map(|i| mustpay[i]).collect();
        candidate_costs.sort_by(|a, b| a.partial_cmp(b).expect("finite kernel values"));
        let bound: f64 = cost + candidate_costs[..needed].iter().sum::<f64>();
        if bound >= *self.best_obj {
            return;
        }

        // Branch 1: include `next`.
        let add_cost = mustpay[next];
        chosen.push(next);
        let mut updated = mustpay.to_vec();
        for (i, slot) in updated.iter_mut().enumerate().skip(next + 1) {
            *slot += self.pair.get(i, next);
        }
        self.dfs(next + 1, cost + add_cost, chosen, &mut updated);
        chosen.pop();

        // Branch 2: exclude `next`.
        self.dfs(next + 1, cost, chosen, mustpay);
    }
}

/// Enumerates every `k`-subset of `0..n` in lexicographic order, invoking the
/// callback with each.
fn enumerate(
    n: usize,
    k: usize,
    start: usize,
    current: &mut Vec<usize>,
    f: &mut impl FnMut(&[usize]),
) {
    if current.len() == k {
        f(current);
        return;
    }
    let needed = k - current.len();
    for i in start..=(n - needed) {
        current.push(i);
        enumerate(n, k, i + 1, current, f);
        current.pop();
    }
}

/// Convenience wrapper: the objective of a subset of `points` under `kernel`
/// (re-exported reference implementation from `vas-core`).
pub fn subset_objective<K: Kernel + ?Sized>(kernel: &K, points: &[Point], subset: &[usize]) -> f64 {
    let selected: Vec<Point> = subset.iter().map(|&i| points[i]).collect();
    objective(kernel, &selected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use vas_core::GaussianKernel;

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)))
            .collect()
    }

    #[test]
    fn exhaustive_finds_the_obvious_optimum() {
        // Three tight clusters plus three isolated points; with K = 3 the
        // optimum is one point per far-apart location.
        let points = vec![
            Point::new(0.0, 0.0),
            Point::new(0.01, 0.0),
            Point::new(0.0, 0.01),
            Point::new(100.0, 0.0),
            Point::new(0.0, 100.0),
        ];
        let kernel = GaussianKernel::new(1.0);
        let sol = ExactSolver::new().solve_exhaustive(&kernel, &points, 3);
        let mut idx = sol.indices.clone();
        idx.sort_unstable();
        assert!(idx.contains(&3) && idx.contains(&4));
        assert!(sol.objective < 1e-6);
    }

    #[test]
    fn branch_and_bound_matches_exhaustive() {
        let kernel = GaussianKernel::new(2.0);
        for seed in 0..5u64 {
            let points = random_points(14, seed);
            for k in [2usize, 4, 6] {
                let ex = ExactSolver::new().solve_exhaustive(&kernel, &points, k);
                let bb = ExactSolver::new().solve(&kernel, &points, k, None);
                assert!(
                    (ex.objective - bb.objective).abs() < 1e-9,
                    "seed {seed} k {k}: exhaustive {} vs B&B {}",
                    ex.objective,
                    bb.objective
                );
            }
        }
    }

    #[test]
    fn branch_and_bound_explores_fewer_nodes_than_exhaustive() {
        let kernel = GaussianKernel::new(2.0);
        let points = random_points(16, 3);
        let ex = ExactSolver::new().solve_exhaustive(&kernel, &points, 6);
        let bb = ExactSolver::new().solve(&kernel, &points, 6, None);
        assert!(
            bb.nodes_explored < ex.nodes_explored * 4,
            "B&B should not blow up: {} vs {} combinations",
            bb.nodes_explored,
            ex.nodes_explored
        );
    }

    #[test]
    fn incumbent_does_not_change_the_optimum() {
        let kernel = GaussianKernel::new(1.5);
        let points = random_points(15, 9);
        let k = 5;
        let without = ExactSolver::new().solve(&kernel, &points, k, None);
        // Deliberately bad incumbent: the first K indices.
        let bad: Vec<usize> = (0..k).collect();
        let with = ExactSolver::new().solve(&kernel, &points, k, Some(&bad));
        assert!((without.objective - with.objective).abs() < 1e-9);
    }

    #[test]
    fn exact_is_no_worse_than_interchange() {
        use vas_core::{InterchangeStrategy, VasConfig, VasSampler};
        use vas_data::Dataset;
        use vas_sampling::Sampler;

        let points = random_points(40, 11);
        let dataset = Dataset::from_points("exact-vs-interchange", points.clone());
        let kernel = GaussianKernel::for_dataset(&dataset);
        let k = 8;

        let mut sampler = VasSampler::from_dataset(
            &dataset,
            VasConfig::new(k)
                .with_strategy(InterchangeStrategy::ExpandShrink)
                .with_epsilon(kernel.bandwidth()),
        );
        let approx = sampler.sample_dataset(&dataset);
        let approx_obj = objective(&kernel, &approx.points);

        let exact = ExactSolver::new().solve(&kernel, &points, k, None);
        assert!(
            exact.objective <= approx_obj + 1e-9,
            "exact {} must be ≤ approximate {}",
            exact.objective,
            approx_obj
        );
    }

    #[test]
    fn node_limit_returns_feasible_solution() {
        let kernel = GaussianKernel::new(1.0);
        let points = random_points(30, 13);
        let sol = ExactSolver {
            node_limit: Some(50),
        }
        .solve(&kernel, &points, 5, None);
        assert_eq!(sol.indices.len(), 5);
        assert!(sol.objective.is_finite());
    }

    #[test]
    fn subset_objective_matches_pair_table() {
        let kernel = GaussianKernel::new(1.0);
        let points = random_points(10, 17);
        let subset = vec![0usize, 3, 7, 9];
        let table = PairTable::new(&kernel, &points);
        assert!(
            (table.objective_of(&subset) - subset_objective(&kernel, &points, &subset)).abs()
                < 1e-12
        );
    }

    #[test]
    #[should_panic(expected = "invalid K")]
    fn rejects_oversized_k() {
        let kernel = GaussianKernel::new(1.0);
        let points = random_points(5, 0);
        let _ = ExactSolver::new().solve(&kernel, &points, 10, None);
    }

    #[test]
    fn enumerate_visits_all_combinations() {
        let mut count = 0usize;
        let mut current = Vec::new();
        enumerate(6, 3, 0, &mut current, &mut |_| count += 1);
        assert_eq!(count, 20); // C(6,3)
    }
}
