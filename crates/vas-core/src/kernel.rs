//! Proximity kernels.
//!
//! The paper measures how well a sampled point "covers" a location of the
//! plot plane with a proximity function `κ(x, s) = exp(-‖x-s‖² / 2ε²)`
//! (Section III), and notes that any decreasing *convex* function of the
//! distance works. After the Taylor expansion, the pairwise term `κ̃(s_i,s_j)`
//! is again a proximity function of the same form, and "in practice, it is
//! sufficient to use any proximity function directly in place of κ̃".
//!
//! This module provides the Gaussian kernel used throughout the paper plus a
//! few alternatives, all behind the [`Kernel`] trait, and the ε-selection
//! rule from footnote 2 (`ε ≈ max pairwise distance / 100`).
//!
//! ## Batched evaluation and the lane-order determinism rule
//!
//! The Interchange hot loop evaluates the kernel over a rejected candidate's
//! whole neighbourhood (about 242 lanes per rejected candidate on the
//! benchmark's 1M-point Geolife build at K = 5000, perfbench's
//! `core.kernel_lanes_per_reject`), so kernels can also be evaluated over
//! flat **lanes** of squared distances:
//! [`Kernel::eval_dist2_batch`] maps `dist2[i] → out[i]` over plain `f64`
//! slices that the compiler can autovectorize, fed by the spatial layer's
//! `gather_in_radius_into` batch queries.
//!
//! Batching is only legal under the repo's bit-identical determinism
//! contract because of two rules, which every implementation and caller must
//! keep:
//!
//! 1. **Elementwise bit-identity** — `eval_dist2_batch` must produce, lane
//!    for lane, exactly the bits `eval_dist2` would produce for that input
//!    (including NaN payloads, `-0.0`, subnormals, and the Gaussian
//!    underflow early-out). Overrides may restructure control flow (e.g.
//!    branch-free select instead of an early return) but not the arithmetic.
//! 2. **Fixed lane order** — callers fill lanes in the exact visitation
//!    order of the index's visitor and fold reductions left-to-right over
//!    the lanes, so every floating-point sum associates in the same order
//!    as a scalar loop over the visitor (the reference Interchange oracle in
//!    `tests/determinism.rs` is that loop).
//!
//! The accept path's removed-neighbourhood subtraction is batched the same
//! way: it gathers the removed point's neighbourhood and maps it with one
//! `eval_dist2_batch` sweep. The scalar `eval`/`eval_dist2` path is still
//! used where batching buys nothing: the sampler's reservoir fill phase,
//! plain ES's removal step, and objective initialization.
//!
//! ## Bounded lanes: a filter, never a value
//!
//! `GaussianKernel::eval_dist2_batch_bounded` approximates the Gaussian
//! without libm, within a proven relative error of the libm value (see
//! `BOUNDED_LANE_DELTA`). Its rule: **approximate lanes may only certify
//! a rejection; everything stored comes from libm.** The Interchange Shrink
//! step uses them to prove, with the lane error and the fold rounding
//! bounded, that the exact test would reject a candidate; every candidate
//! it cannot prove that for runs the exact `eval_dist2_batch` lanes. No
//! approximate value ever reaches a responsibility, the objective or the
//! sample, so the determinism contract above is untouched.

use serde::{Deserialize, Serialize};
use vas_data::{Dataset, Point};

/// A symmetric proximity function over pairs of 2-D points.
///
/// Implementations must be positive, equal to their maximum at distance zero,
/// and non-increasing in the distance. The Interchange locality optimization
/// additionally relies on [`effective_radius`](Kernel::effective_radius):
/// beyond that distance the kernel value is negligible and pairs can be
/// skipped without materially changing the objective.
pub trait Kernel: Send + Sync {
    /// Kernel value for the pair `(a, b)`.
    ///
    /// Provided: computes the squared distance once and defers to
    /// [`eval_dist2`](Self::eval_dist2), which is the single place each
    /// kernel family's arithmetic lives.
    #[inline]
    fn eval(&self, a: &Point, b: &Point) -> f64 {
        self.eval_dist2(a.dist2(b))
    }

    /// Kernel value as a function of squared distance (hot path used by the
    /// Interchange inner loops, avoids recomputing the subtraction).
    fn eval_dist2(&self, dist2: f64) -> f64;

    /// Evaluates the kernel over a flat batch of squared distances, writing
    /// `out[i] = eval_dist2(dist2[i])` for every lane.
    ///
    /// Each output lane must be **bit-identical** to the corresponding
    /// scalar [`eval_dist2`](Self::eval_dist2) call — see the module docs
    /// for the lane-order determinism rule. The default is the scalar loop;
    /// implementations may override it with a branch-free body that
    /// autovectorizes, as [`GaussianKernel`] does.
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    #[inline]
    fn eval_dist2_batch(&self, dist2: &[f64], out: &mut [f64]) {
        assert_eq!(
            dist2.len(),
            out.len(),
            "kernel batch lanes must line up: {} dist2 vs {} out",
            dist2.len(),
            out.len()
        );
        for (o, &d2) in out.iter_mut().zip(dist2) {
            *o = self.eval_dist2(d2);
        }
    }

    /// Distance beyond which the kernel value drops below `threshold`.
    /// Returns `f64::INFINITY` if the kernel never drops below it.
    fn effective_radius(&self, threshold: f64) -> f64;

    /// The bandwidth parameter ε of the kernel.
    fn bandwidth(&self) -> f64;
}

/// Which kernel family to use; all are parameterized by a bandwidth ε.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KernelKind {
    /// `exp(-d² / 2ε²)` — the kernel used in the paper.
    Gaussian,
    /// `exp(-d / ε)` — heavier tails than the Gaussian.
    Laplacian,
    /// `max(0, 1 - d²/ε²)` — compact support, zero beyond ε.
    Epanechnikov,
    /// `1 / (1 + d²/ε²)` — heavy polynomial tail.
    InverseQuadratic,
}

/// The Gaussian proximity kernel `exp(-d² / 2ε²)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GaussianKernel {
    epsilon: f64,
    inv_two_eps2: f64,
}

/// Exponents beyond which `exp(-x)` underflows to exactly `0.0` in `f64`
/// (the true cutover is ≈745.2, where the result drops below the smallest
/// subnormal; 750 leaves a safety margin). Pairs this far apart can skip the
/// `exp` call entirely **without changing the result by a single bit** —
/// which is what lets the Interchange hot loop use the early-out while the
/// determinism suite still demands bit-identical samples.
const GAUSSIAN_UNDERFLOW_EXPONENT: f64 = 750.0;

/// Relative error the Shrink filter assumes for every lane of
/// [`GaussianKernel::eval_dist2_batch_bounded`]: each lane `a` of an
/// in-range batch and the libm value `e = eval_dist2(dist2)` satisfy
/// `|a − e| ≤ δ·a`.
///
/// The proven bound is below `δ/10 = 1e-8`. Against the true exponential
/// `t`, `|a − t|` and `|e − t|` together stay below `7.96e-9·t`, and
/// `t < 1.0001·a`. The terms are:
/// - truncating the degree-7 Taylor polynomial of `exp(r)` on
///   `|r| ≤ ln2/2 + 1e-12`: the Lagrange remainder is at most
///   `e^{0.35}·0.35⁸/8! < 7.95e-9` relative;
/// - the range reduction: `k·LN2_HI` is exact (`LN2_HI` has 32 significant
///   bits, `|k| ≤ 1021`) and its subtraction from `−x` is exact by
///   Sterbenz's lemma, so `r` is off by under `u·|r| + 1e-22` (`u = 2⁻⁵³`),
///   under `4e-17` relative on `exp(r)`;
/// - Horner's rule with rounded coefficients: under `32u` relative, since
///   `Σ|rᵏ/k!| ≤ e^{0.35}` while the polynomial stays above `e^{−0.35}`;
/// - scaling by `2^k`: exact, because the supported range keeps every
///   result normal;
/// - libm's own error against the true exponential: under one ulp.
///
/// `kernel::tests::bounded_lanes_stay_ten_times_inside_delta` sweeps the
/// whole supported range to check that headroom.
pub(crate) const BOUNDED_LANE_DELTA: f64 = 1e-7;

/// Largest exponent `x = dist2 / 2ε²` the bounded evaluator supports:
/// `exp(−708)` ≈ 3.3e-308 is still a normal `f64`, so the `2^k` scaling
/// stays exact. Lanes beyond it (and NaN lanes) are reported out of range.
const BOUNDED_MAX_EXPONENT: f64 = 708.0;

/// `1.5·2⁵²`: adding it rounds a value below 2⁵¹ in magnitude to the
/// nearest integer and leaves that integer in the low mantissa bits.
const ROUND_SHIFT: f64 = 6_755_399_441_055_744.0;

/// Cody–Waite split of ln 2 (the fdlibm constants): `LN2_HI` has its low 21
/// mantissa bits zero, so `k·LN2_HI` is exact for `|k| < 2²¹`.
const LN2_HI: f64 = 6.931_471_803_691_238e-1;
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;

impl GaussianKernel {
    /// Creates a Gaussian kernel with bandwidth `epsilon`.
    ///
    /// # Panics
    /// Panics unless `epsilon` is finite and positive.
    pub fn new(epsilon: f64) -> Self {
        assert!(
            epsilon.is_finite() && epsilon > 0.0,
            "kernel bandwidth must be positive and finite, got {epsilon}"
        );
        Self {
            epsilon,
            inv_two_eps2: 1.0 / (2.0 * epsilon * epsilon),
        }
    }

    /// Bandwidth selection rule from the paper (footnote 2):
    /// `ε ≈ max pairwise distance / 100`, where the maximum pairwise distance
    /// is approximated by the diagonal of the dataset's bounding box.
    ///
    /// Points with a NaN or infinite coordinate are left out of the extent
    /// (`BoundingBox::extend_finite`): the sampler never admits them, and
    /// one of them would otherwise make the diagonal infinite.
    ///
    /// Falls back to `ε = 1` for datasets with fewer than two distinct
    /// finite positions (the kernel value is then constant anyway).
    pub fn for_dataset(dataset: &Dataset) -> Self {
        Self::for_points(&dataset.points)
    }

    /// Same as [`for_dataset`](Self::for_dataset) for a raw point slice.
    pub fn for_points(points: &[Point]) -> Self {
        let mut bounds = vas_data::BoundingBox::EMPTY;
        for p in points {
            bounds.extend_finite(p);
        }
        Self::for_bounds(&bounds)
    }

    /// Same as [`for_dataset`](Self::for_dataset) for a pre-computed extent.
    ///
    /// This is the entry point the streaming pipeline uses: a one-pass
    /// bounds scan over a `PointSource` folds the finite extent in stream
    /// order (bit-identical to the fold [`for_points`](Self::for_points)
    /// makes), so streaming and in-memory builds resolve bit-identical
    /// bandwidths.
    pub fn for_bounds(bounds: &vas_data::BoundingBox) -> Self {
        let diag = bounds.diagonal();
        if diag.is_finite() && diag > 0.0 {
            Self::new(diag / 100.0)
        } else {
            Self::new(1.0)
        }
    }

    /// The bandwidth ε this kernel was constructed with (used by the
    /// checkpoint codec to reconstruct the kernel bit-identically).
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The convolved kernel `κ̃` obtained by integrating `κ(x,a)·κ(x,b)` over
    /// the plane: another Gaussian with bandwidth `√2·ε`. The paper notes the
    /// original kernel can be used directly; this constructor is provided for
    /// callers that want the mathematically exact pairwise term.
    pub fn convolved(&self) -> Self {
        Self::new(self.epsilon * std::f64::consts::SQRT_2)
    }

    /// Bounded approximation of [`eval_dist2_batch`](Kernel::eval_dist2_batch):
    /// writes each `out[i]` within relative error [`BOUNDED_LANE_DELTA`] of
    /// the libm value, without calling libm.
    ///
    /// `exp(−x)` is reduced to `2^k·exp(r)` with `k = round(−x/ln2)` (the
    /// shift trick) and `|r| ≤ ln2/2`, and `exp(r)` is a degree-7 Taylor
    /// polynomial. Returns `false` when some lane's exponent
    /// `x = dist2/2ε²` is NaN or outside `[0, 708]`; the lane values are then
    /// unspecified and the caller must fall back to the exact kernel.
    ///
    /// These lanes may only certify a rejection (see the module docs).
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub(crate) fn eval_dist2_batch_bounded(&self, dist2: &[f64], out: &mut [f64]) -> bool {
        assert_eq!(
            dist2.len(),
            out.len(),
            "kernel batch lanes must line up: {} dist2 vs {} out",
            dist2.len(),
            out.len()
        );
        let inv_two_eps2 = self.inv_two_eps2;
        let mut in_range = true;
        for (o, &d2) in out.iter_mut().zip(dist2) {
            let x = d2 * inv_two_eps2;
            in_range &= (0.0..=BOUNDED_MAX_EXPONENT).contains(&x);
            let shifted = -x * std::f64::consts::LOG2_E + ROUND_SHIFT;
            let k = shifted - ROUND_SHIFT;
            let r = (-x - k * LN2_HI) - k * LN2_LO;
            let p = 1.0
                + r * (1.0
                    + r * (1.0 / 2.0
                        + r * (1.0 / 6.0
                            + r * (1.0 / 24.0
                                + r * (1.0 / 120.0 + r * (1.0 / 720.0 + r * (1.0 / 5040.0)))))));
            // The low bits of `shifted` hold `k` in two's complement; adding
            // the exponent bias and shifting them into the exponent field
            // builds `2^k` exactly for `k` in `[-1022, 0]`.
            let scale = f64::from_bits(shifted.to_bits().wrapping_add(1023) << 52);
            *o = p * scale;
        }
        in_range
    }
}

impl Kernel for GaussianKernel {
    #[inline]
    fn eval_dist2(&self, dist2: f64) -> f64 {
        let x = dist2 * self.inv_two_eps2;
        // Early-out for pairs beyond the kernel's support: `exp(-x)` is
        // exactly 0.0 there, so skipping the (expensive) exp call is
        // value-preserving. This is the hot-path guard for the full-scan
        // (`ES`/`Naive`) Interchange variants, where far pairs dominate.
        if x > GAUSSIAN_UNDERFLOW_EXPONENT {
            return 0.0;
        }
        (-x).exp()
    }

    #[inline]
    fn eval_dist2_batch(&self, dist2: &[f64], out: &mut [f64]) {
        assert_eq!(
            dist2.len(),
            out.len(),
            "kernel batch lanes must line up: {} dist2 vs {} out",
            dist2.len(),
            out.len()
        );
        let inv_two_eps2 = self.inv_two_eps2;
        for (o, &d2) in out.iter_mut().zip(dist2) {
            // Branch-free form of the scalar early-out: compute the exp
            // unconditionally, then select. Bit-identical to `eval_dist2` on
            // every lane: past the threshold `exp(-x)` is exactly 0.0 anyway
            // (so the select changes nothing but spares the scalar path's
            // branch), and on a NaN lane the comparison is false, letting
            // the NaN from `exp` through just like the scalar early return.
            // Crucially `x` itself is never clamped — `f64::min(NaN, c)`
            // would have laundered NaN lanes into finite values.
            let x = d2 * inv_two_eps2;
            let e = (-x).exp();
            *o = if x > GAUSSIAN_UNDERFLOW_EXPONENT {
                0.0
            } else {
                e
            };
        }
    }

    fn effective_radius(&self, threshold: f64) -> f64 {
        assert!(
            threshold > 0.0 && threshold < 1.0,
            "threshold must be in (0, 1)"
        );
        // exp(-r²/2ε²) = t  ⇒  r = ε·√(2·ln(1/t))
        self.epsilon * (2.0 * (1.0 / threshold).ln()).sqrt()
    }

    fn bandwidth(&self) -> f64 {
        self.epsilon
    }
}

/// A kernel of any [`KernelKind`] with a fixed bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GenericKernel {
    kind: KernelKind,
    epsilon: f64,
}

impl GenericKernel {
    /// Creates a kernel of the given family and bandwidth.
    ///
    /// # Panics
    /// Panics unless `epsilon` is finite and positive.
    pub fn new(kind: KernelKind, epsilon: f64) -> Self {
        assert!(
            epsilon.is_finite() && epsilon > 0.0,
            "kernel bandwidth must be positive and finite, got {epsilon}"
        );
        Self { kind, epsilon }
    }

    /// The kernel family.
    pub fn kind(&self) -> KernelKind {
        self.kind
    }
}

impl Kernel for GenericKernel {
    #[inline]
    fn eval_dist2(&self, dist2: f64) -> f64 {
        let e = self.epsilon;
        match self.kind {
            KernelKind::Gaussian => (-dist2 / (2.0 * e * e)).exp(),
            KernelKind::Laplacian => (-(dist2.sqrt()) / e).exp(),
            KernelKind::Epanechnikov => (1.0 - dist2 / (e * e)).max(0.0),
            KernelKind::InverseQuadratic => 1.0 / (1.0 + dist2 / (e * e)),
        }
    }

    fn effective_radius(&self, threshold: f64) -> f64 {
        assert!(
            threshold > 0.0 && threshold < 1.0,
            "threshold must be in (0, 1)"
        );
        let e = self.epsilon;
        match self.kind {
            KernelKind::Gaussian => e * (2.0 * (1.0 / threshold).ln()).sqrt(),
            KernelKind::Laplacian => e * (1.0 / threshold).ln(),
            KernelKind::Epanechnikov => e, // exactly zero beyond ε
            KernelKind::InverseQuadratic => e * (1.0 / threshold - 1.0).max(0.0).sqrt(),
        }
    }

    fn bandwidth(&self) -> f64 {
        self.epsilon
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_values() {
        let k = GaussianKernel::new(1.0);
        let a = Point::new(0.0, 0.0);
        assert_eq!(k.eval(&a, &a), 1.0);
        // distance 1: exp(-1/2)
        let b = Point::new(1.0, 0.0);
        assert!((k.eval(&a, &b) - (-0.5f64).exp()).abs() < 1e-12);
        // symmetric
        assert_eq!(k.eval(&a, &b), k.eval(&b, &a));
    }

    #[test]
    fn gaussian_is_monotone_decreasing_in_distance() {
        let k = GaussianKernel::new(0.5);
        let a = Point::new(0.0, 0.0);
        let mut prev = f64::INFINITY;
        for i in 0..20 {
            let d = i as f64 * 0.3;
            let v = k.eval(&a, &Point::new(d, 0.0));
            assert!(v <= prev);
            assert!(v > 0.0);
            prev = v;
        }
    }

    #[test]
    fn effective_radius_bounds_kernel_value() {
        for kind in [
            KernelKind::Gaussian,
            KernelKind::Laplacian,
            KernelKind::Epanechnikov,
            KernelKind::InverseQuadratic,
        ] {
            let k = GenericKernel::new(kind, 2.0);
            let threshold = 1e-6;
            let r = k.effective_radius(threshold);
            assert!(r.is_finite());
            let just_outside = r * 1.001;
            assert!(
                k.eval_dist2(just_outside * just_outside) <= threshold * 1.01,
                "{kind:?}: value beyond effective radius too large"
            );
        }
    }

    #[test]
    fn underflow_early_out_is_bit_identical_to_exp() {
        let k = GaussianKernel::new(1.0);
        // Straddle the early-out threshold (x = d²/2 here): everywhere the
        // shortcut fires, a direct exp call must produce the same bits.
        for x in [
            0.0, 1.0, 100.0, 700.0, 744.0, 745.0, 746.0, 749.9, 750.0, 750.1, 800.0, 1e6, 1e300,
        ] {
            let dist2: f64 = 2.0 * x;
            let direct = f64::exp(-(dist2 * 0.5));
            let fast = k.eval_dist2(dist2);
            assert_eq!(
                fast.to_bits(),
                direct.to_bits(),
                "x = {x}: {fast} vs {direct}"
            );
        }
        // And beyond the threshold the value really is exactly zero.
        assert_eq!(k.eval_dist2(2.0 * 751.0), 0.0);
    }

    /// Squared-distance edge cases the batch path must reproduce bit-for-bit:
    /// NaN (payload preserved through `exp`), signed zero, subnormals, both
    /// infinities, and a dense straddle of the Gaussian underflow early-out
    /// boundary (`x = dist2 / 2ε²` around 750 at ε = 1).
    fn edge_dist2_values() -> Vec<f64> {
        let mut v = vec![
            f64::NAN,
            -0.0,
            0.0,
            5e-324, // smallest positive subnormal
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e300,
            -1.0,
        ];
        for x in [700.0, 744.0, 745.0, 746.0, 749.9, 750.0, 750.1, 800.0] {
            v.push(2.0 * x);
        }
        v
    }

    fn assert_batch_matches_scalar<K: Kernel>(k: &K, dist2: &[f64], what: &str) {
        let mut out = vec![f64::NAN; dist2.len()];
        k.eval_dist2_batch(dist2, &mut out);
        for (i, (&d2, &got)) in dist2.iter().zip(&out).enumerate() {
            let want = k.eval_dist2(d2);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{what}: lane {i} (dist2 = {d2:?}): batch {got:?} vs scalar {want:?}"
            );
        }
    }

    #[test]
    fn batch_eval_matches_scalar_on_edge_inputs() {
        let edges = edge_dist2_values();
        assert_batch_matches_scalar(&GaussianKernel::new(1.0), &edges, "gaussian ε=1");
        assert_batch_matches_scalar(&GaussianKernel::new(0.013), &edges, "gaussian ε=0.013");
        for kind in [
            KernelKind::Gaussian,
            KernelKind::Laplacian,
            KernelKind::Epanechnikov,
            KernelKind::InverseQuadratic,
        ] {
            assert_batch_matches_scalar(&GenericKernel::new(kind, 1.7), &edges, "generic");
        }
    }

    #[test]
    fn batch_eval_handles_empty_and_preserves_untouched_capacity() {
        let k = GaussianKernel::new(1.0);
        let mut out: Vec<f64> = Vec::new();
        k.eval_dist2_batch(&[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "kernel batch lanes must line up")]
    fn batch_eval_rejects_mismatched_lanes() {
        let k = GaussianKernel::new(1.0);
        let mut out = vec![0.0; 3];
        k.eval_dist2_batch(&[1.0, 2.0], &mut out);
    }

    proptest::proptest! {
        /// The batched Gaussian lane body (branch-free select) is bit-identical
        /// to the scalar `eval_dist2` for arbitrary squared distances mixed
        /// with hand-picked edge lanes at arbitrary positions — the property
        /// the entire batched Interchange path rests on.
        #[test]
        fn gaussian_batch_is_bitwise_scalar_prop(
            dist2 in proptest::collection::vec(-1.0e4f64..1.0e4, 1..64),
            eps in 0.01f64..10.0,
            scale in -300.0f64..300.0,
        ) {
            let k = GaussianKernel::new(eps);
            // Random lanes spanning many binades (including values whose
            // exponent `x` straddles the underflow early-out for this ε),
            // plus every hand-picked edge value spliced in.
            let mut lanes: Vec<f64> = dist2
                .iter()
                .map(|&d| d * (scale / 100.0).exp2())
                .collect();
            lanes.extend(edge_dist2_values());
            // Lanes right at the early-out boundary for THIS bandwidth.
            let two_eps2 = 2.0 * eps * eps;
            for x in [749.0, 750.0, 751.0] {
                lanes.push(x * two_eps2);
            }
            assert_batch_matches_scalar(&k, &lanes, "prop");
        }
    }

    /// Largest `|a − e| / a` of the bounded lanes against the libm lanes over
    /// `dist2`, asserting that every lane is in range.
    fn bounded_max_rel_error(k: &GaussianKernel, dist2: &[f64]) -> f64 {
        let mut approx = vec![f64::NAN; dist2.len()];
        assert!(k.eval_dist2_batch_bounded(dist2, &mut approx));
        let mut exact = vec![f64::NAN; dist2.len()];
        k.eval_dist2_batch(dist2, &mut exact);
        approx
            .iter()
            .zip(&exact)
            .map(|(&a, &e)| (a - e).abs() / a)
            .fold(0.0, f64::max)
    }

    #[test]
    fn bounded_lanes_stay_ten_times_inside_delta() {
        // The whole supported exponent range `x ∈ [0, 708]`: an even sweep,
        // plus both sides of every reduction boundary `(j + ½)·ln2`, where
        // `|r|` and so the truncation error peak.
        let mut xs: Vec<f64> = (0..=200_000)
            .map(|i| i as f64 * (707.9 / 200_000.0))
            .collect();
        for j in 0..1_021 {
            let edge = (j as f64 + 0.5) * std::f64::consts::LN_2;
            xs.extend([edge * (1.0 - 1e-15), edge, edge * (1.0 + 1e-15)]);
        }
        for eps in [1.0, 0.013, 37.5] {
            let k = GaussianKernel::new(eps);
            let dist2: Vec<f64> = xs.iter().map(|&x| x * 2.0 * eps * eps).collect();
            let worst = bounded_max_rel_error(&k, &dist2);
            assert!(
                worst <= BOUNDED_LANE_DELTA / 10.0,
                "ε = {eps}: worst relative lane error {worst:e} leaves less than 10× \
                 headroom under δ = {BOUNDED_LANE_DELTA:e}"
            );
        }
    }

    #[test]
    fn bounded_lanes_flag_nan_and_out_of_range_exponents() {
        // ε = 1, so the exponent is x = dist2 / 2.
        let k = GaussianKernel::new(1.0);
        let good = [0.0, -0.0, 1.0, 2.0 * 13.8, 2.0 * 708.0];
        let mut out = vec![0.0; good.len() + 1];
        assert!(k.eval_dist2_batch_bounded(&good, &mut out[..good.len()]));
        for bad in [
            f64::NAN,
            -1.0,
            2.0 * 708.5,
            2.0 * 750.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            // The offending lane at every position of the batch.
            for at in 0..=good.len() {
                let mut lanes = good.to_vec();
                lanes.insert(at, bad);
                assert!(
                    !k.eval_dist2_batch_bounded(&lanes, &mut out),
                    "dist2 = {bad:?} at lane {at} must force the exact path"
                );
            }
        }
    }

    #[test]
    fn paper_footnote_locality_example() {
        // The paper quotes 1.12e-7 at distance 4 for its kernel (ε = 1 and no
        // factor 2 in the denominator); with our exp(-d²/2ε²) convention the
        // same point is reached at ε = 1/√2.
        let k = GaussianKernel::new(std::f64::consts::FRAC_1_SQRT_2);
        let v = k.eval(&Point::new(0.0, 0.0), &Point::new(4.0, 0.0));
        assert!((v - 1.12e-7).abs() < 0.02e-7, "got {v}");
    }

    #[test]
    fn bandwidth_selection_follows_footnote_rule() {
        let points = vec![Point::new(0.0, 0.0), Point::new(30.0, 40.0)];
        let d = Dataset::from_points("two", points);
        let k = GaussianKernel::for_dataset(&d);
        // diagonal = 50 ⇒ ε = 0.5
        assert!((k.bandwidth() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_selection_degenerate_dataset() {
        let d = Dataset::from_points("one", vec![Point::new(3.0, 3.0)]);
        assert_eq!(GaussianKernel::for_dataset(&d).bandwidth(), 1.0);
        let empty = Dataset::from_points("none", vec![]);
        assert_eq!(GaussianKernel::for_dataset(&empty).bandwidth(), 1.0);
    }

    #[test]
    fn convolved_kernel_has_wider_bandwidth() {
        let k = GaussianKernel::new(2.0);
        let c = k.convolved();
        assert!((c.bandwidth() - 2.0 * std::f64::consts::SQRT_2).abs() < 1e-12);
        // Wider bandwidth ⇒ larger value at the same non-zero distance.
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 0.0);
        assert!(c.eval(&a, &b) > k.eval(&a, &b));
    }

    #[test]
    fn epanechnikov_has_compact_support() {
        let k = GenericKernel::new(KernelKind::Epanechnikov, 1.5);
        let a = Point::new(0.0, 0.0);
        assert_eq!(k.eval(&a, &Point::new(1.6, 0.0)), 0.0);
        assert!(k.eval(&a, &Point::new(1.0, 0.0)) > 0.0);
    }

    #[test]
    fn all_kernels_peak_at_zero_distance() {
        for kind in [
            KernelKind::Gaussian,
            KernelKind::Laplacian,
            KernelKind::Epanechnikov,
            KernelKind::InverseQuadratic,
        ] {
            let k = GenericKernel::new(kind, 1.0);
            assert_eq!(k.eval_dist2(0.0), 1.0, "{kind:?}");
            assert!(k.eval_dist2(4.0) < 1.0, "{kind:?}");
        }
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn rejects_zero_bandwidth() {
        let _ = GaussianKernel::new(0.0);
    }

    #[test]
    #[should_panic(expected = "threshold must be in")]
    fn rejects_bad_threshold() {
        let _ = GaussianKernel::new(1.0).effective_radius(2.0);
    }
}
