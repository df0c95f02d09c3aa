//! Summary statistics and rank correlation.
//!
//! The paper quantifies the link between its loss function and user success
//! with Spearman's rank correlation coefficient (reported as −0.85 with
//! p ≈ 5.2e-4 for the regression task). This module provides that
//! coefficient plus the elementary statistics used throughout the harness.

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median (average of the two central elements for even lengths); 0 for an
/// empty slice. Not resistant to NaN inputs — callers must pass finite data.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Pearson correlation coefficient of two equally-long series; 0 when either
/// series is constant.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn pearson(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "series must have equal length");
    if a.len() < 2 {
        return 0.0;
    }
    let ma = mean(a);
    let mb = mean(b);
    let mut cov = 0.0;
    let mut var_a = 0.0;
    let mut var_b = 0.0;
    for (x, y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        var_a += (x - ma).powi(2);
        var_b += (y - mb).powi(2);
    }
    if var_a == 0.0 || var_b == 0.0 {
        return 0.0;
    }
    cov / (var_a.sqrt() * var_b.sqrt())
}

/// Spearman's rank correlation coefficient: the Pearson correlation of the
/// ranks, with ties receiving their average rank.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "series must have equal length");
    pearson(&ranks(a), &ranks(b))
}

/// Fractional (average-of-ties) ranks of a series, 1-based.
fn ranks(values: &[f64]) -> Vec<f64> {
    let n = values.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| values[i].partial_cmp(&values[j]).expect("finite values"));
    let mut out = vec![0.0; n];
    let mut i = 0;
    while i < n {
        // Find the run of tied values.
        let mut j = i;
        while j + 1 < n && values[order[j + 1]] == values[order[i]] {
            j += 1;
        }
        // Average rank of positions i..=j (1-based ranks).
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            out[idx] = avg_rank;
        }
        i = j + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_and_median() {
        let v = [1.0, 2.0, 3.0, 4.0, 100.0];
        assert_eq!(mean(&v), 22.0);
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn pearson_perfect_correlations() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [10.0, 20.0, 30.0, 40.0];
        assert!((pearson(&a, &b) - 1.0).abs() < 1e-12);
        let c = [40.0, 30.0, 20.0, 10.0];
        assert!((pearson(&a, &c) + 1.0).abs() < 1e-12);
        // Constant series → 0.
        assert_eq!(pearson(&a, &[5.0; 4]), 0.0);
    }

    #[test]
    fn spearman_monotone_nonlinear_is_perfect() {
        // Spearman sees through monotone but non-linear relationships.
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [1.0, 8.0, 27.0, 64.0, 125.0];
        assert!((spearman(&a, &b) - 1.0).abs() < 1e-12);
        let inv: Vec<f64> = b.iter().map(|x| -x).collect();
        assert!((spearman(&a, &inv) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_handles_ties() {
        let a = [1.0, 1.0, 2.0, 3.0];
        let b = [4.0, 4.0, 5.0, 6.0];
        let rho = spearman(&a, &b);
        assert!((rho - 1.0).abs() < 1e-12);
        // Ranks with ties: the two 1.0s get rank 1.5 each.
        assert_eq!(ranks(&a), vec![1.5, 1.5, 3.0, 4.0]);
    }

    #[test]
    fn spearman_of_noise_is_small() {
        // Deterministic pseudo-random pairing with no relationship.
        let a: Vec<f64> = (0..200).map(|i| ((i * 7919) % 104729) as f64).collect();
        let b: Vec<f64> = (0..200).map(|i| ((i * 104729) % 7919) as f64).collect();
        assert!(spearman(&a, &b).abs() < 0.2);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn pearson_rejects_mismatched_lengths() {
        let _ = pearson(&[1.0], &[1.0, 2.0]);
    }

    proptest! {
        /// Correlation coefficients always lie in [-1, 1].
        #[test]
        fn correlation_is_bounded(
            pairs in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 2..50)
        ) {
            let a: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let b: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            let r = pearson(&a, &b);
            let rho = spearman(&a, &b);
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&rho));
        }

        /// The median lies between the minimum and maximum, and the mean of a
        /// shifted series shifts by the same amount.
        #[test]
        fn median_and_mean_invariants(
            values in proptest::collection::vec(-1e6f64..1e6, 1..100),
            shift in -1e3f64..1e3,
        ) {
            let med = median(&values);
            let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(med >= lo && med <= hi);
            let shifted: Vec<f64> = values.iter().map(|v| v + shift).collect();
            prop_assert!((mean(&shifted) - (mean(&values) + shift)).abs() < 1e-6);
        }

        /// Spearman is invariant under strictly monotone transforms of either
        /// input.
        #[test]
        fn spearman_monotone_invariance(
            pairs in proptest::collection::vec((0.1f64..1e3, 0.1f64..1e3), 3..40)
        ) {
            let a: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let b: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            let transformed: Vec<f64> = a.iter().map(|x| x.ln()).collect();
            let r1 = spearman(&a, &b);
            let r2 = spearman(&transformed, &b);
            prop_assert!((r1 - r2).abs() < 1e-9);
        }
    }
}
