//! Block-max tracking of the maximum of a caller-owned array of scores.
//!
//! The Interchange Shrink step must find the element with the **largest
//! responsibility** in the expanded sample for every candidate tuple. A
//! linear scan makes every candidate — including the overwhelmingly common
//! *rejected* ones — cost `O(K)`. [`MaxTracker`] caches the position of the
//! maximum instead, so the read is `O(1)` and rejected candidates cost only
//! their neighbourhood kernel evaluations.
//!
//! The tracker holds no copy of the array. The caller owns it (the
//! sampler's `rsp`), writes it in place, reports every write with its
//! value — [`raised`](MaxTracker::raised) for a slot that went up,
//! [`lowered`](MaxTracker::lowered) for one that went down — and hands the
//! array to [`flush`](MaxTracker::flush) and [`max`](MaxTracker::max). Each
//! responsibility delta is therefore written once.
//!
//! ## Cost of an update
//!
//! Slots are grouped into fixed blocks of `BLOCK` (64) slots, and each block
//! keeps its maximum **value**. An accepted replacement changes about
//! 2·|neighbourhood| responsibilities (about 500 on dense data): the
//! candidate's neighbours go up, the removed point's neighbours go down.
//! Slot ids follow stream order, not space, so those slots are scattered
//! over the whole array, and a block-granular dirty bit would mark nearly
//! every block. The updates are value-aware instead:
//! - a raise is absorbed in place: the block maximum becomes the larger of
//!   itself and the new value, which is exact while the block is clean;
//! - a lowering only matters when the slot *was* its block's maximum, so
//!   only then is the block's bit set in a dirty bitmask.
//!
//! [`flush`](MaxTracker::flush) recomputes each dirty block's maximum once,
//! a contiguous reduction over at most `BLOCK` values with independent
//! accumulators (it vectorizes, unlike an argmax scan), then reduces the
//! `⌈K/BLOCK⌉` block maxima the same way and locates the winning slot by
//! equality. A flush after `D` updates therefore costs `O(D)` for the
//! updates, `O(BLOCK)` per block whose maximum fell (usually a handful)
//! and `O(K/BLOCK + BLOCK)` for the winner, with no sort and no pointer
//! chasing.
//!
//! ## Tie-breaking contract
//!
//! [`max`](MaxTracker::max) returns the **lowest index** attaining the
//! maximum value. This mirrors a first-wins linear scan (`v > best`), which
//! is exactly the Shrink step of the reference Interchange oracle in
//! `tests/oracle/mod.rs` — the contract that keeps the ES+Loc loop
//! bit-identical to it even when responsibilities tie (e.g. many isolated
//! slots at 0.0). The winner is the first slot equal to the overall maximum
//! in the first block whose maximum equals it; since `==` also equates
//! `-0.0` and `+0.0`, that is the slot a first-wins scan keeps. Values must
//! never be NaN (kernel sums of finite points are finite and non-negative).

/// Slots per block: one dirty bit per block, reduced whole on flush.
const BLOCK: usize = 64;

/// Block-max argmax over a caller-owned dense array of `f64` scores.
///
/// Slots are addressed `0..len`. The structure is rebuilt in `O(len)`;
/// updates are batched per [`flush`](Self::flush).
#[derive(Debug, Clone, Default)]
pub struct MaxTracker {
    /// Number of slots in the tracked array.
    len: usize,
    /// `block_max[b]` is the largest value in block `b`.
    block_max: Vec<f64>,
    /// One bit per block whose maximum was [`lowered`](Self::lowered) since
    /// the last flush.
    dirty: Vec<u64>,
    /// The lowest index attaining the maximum, valid when nothing is dirty.
    best: usize,
}

impl MaxTracker {
    /// An empty tracker (no slots).
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds the block maxima over `values` in `O(len)`.
    pub fn rebuild(&mut self, values: &[f64]) {
        self.len = values.len();
        self.block_max.clear();
        self.block_max.extend(values.chunks(BLOCK).map(max_of));
        self.dirty.clear();
        self.dirty.resize(self.block_max.len().div_ceil(64), 0);
        self.best = self.winner(values);
    }

    /// Reports that slot `i` was raised to `new` (the value now in the
    /// caller's array, at least the one it replaced): its block's maximum
    /// absorbs `new` in place.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn raised(&mut self, i: usize, new: f64) {
        assert!(i < self.len, "slot {i} out of bounds (len {})", self.len);
        let m = &mut self.block_max[i / BLOCK];
        if new > *m {
            *m = new;
        }
    }

    /// Reports that slot `i` was lowered from `before`: if `before` was its
    /// block's maximum, the block's reduction is deferred to the next
    /// [`flush`](Self::flush); otherwise the maximum still stands. A slot
    /// overwritten with an arbitrary value is `lowered` from its old value
    /// and then `raised` to its new one.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn lowered(&mut self, i: usize, before: f64) {
        assert!(i < self.len, "slot {i} out of bounds (len {})", self.len);
        let b = i / BLOCK;
        if before == self.block_max[b] {
            self.dirty[b / 64] |= 1 << (b % 64);
        }
    }

    /// Recomputes the maximum of every block whose maximum was lowered since
    /// the last flush (or rebuild) from `values`, then re-picks the overall
    /// winner.
    pub fn flush(&mut self, values: &[f64]) {
        debug_assert_eq!(
            values.len(),
            self.len,
            "MaxTracker flushed over another array"
        );
        for w in 0..self.dirty.len() {
            let mut bits = std::mem::take(&mut self.dirty[w]);
            while bits != 0 {
                let b = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let end = (b * BLOCK + BLOCK).min(values.len());
                self.block_max[b] = max_of(&values[b * BLOCK..end]);
            }
        }
        self.best = self.winner(values);
    }

    /// The `(index, value)` of the maximum slot of `values`, ties resolved to
    /// the lowest index; `None` when empty.
    ///
    /// # Panics
    /// Debug-panics if lowered maxima have not been flushed.
    pub fn max(&self, values: &[f64]) -> Option<(usize, f64)> {
        debug_assert!(
            self.dirty.iter().all(|&w| w == 0),
            "MaxTracker::max read with unflushed updates"
        );
        (self.len > 0).then(|| (self.best, values[self.best]))
    }

    /// The first slot equal to the overall maximum, found in the first block
    /// whose maximum equals it; 0 when empty.
    fn winner(&self, values: &[f64]) -> usize {
        let top = max_of(&self.block_max);
        let Some(b) = self.block_max.iter().position(|&m| m == top) else {
            return 0;
        };
        let block = &values[b * BLOCK..];
        b * BLOCK + block.iter().position(|&v| v == top).unwrap_or(0)
    }
}

/// Maximum of `values` (`NEG_INFINITY` when empty), reduced over independent
/// accumulators in a select form that vectorizes.
#[inline]
fn max_of(values: &[f64]) -> f64 {
    const LANES: usize = 8;
    let mut acc = [f64::NEG_INFINITY; LANES];
    let mut chunks = values.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (m, &v) in acc.iter_mut().zip(chunk) {
            *m = if v > *m { v } else { *m };
        }
    }
    for (m, &v) in acc.iter_mut().zip(chunks.remainder()) {
        *m = if v > *m { v } else { *m };
    }
    acc.into_iter()
        .fold(f64::NEG_INFINITY, |m, v| if v > m { v } else { m })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: first-wins linear argmax, exactly the scan the reference
    /// Interchange oracle's Shrink step performs.
    fn linear_argmax(values: &[f64]) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (i, &v) in values.iter().enumerate() {
            if best.is_none_or(|(_, b)| v > b) {
                best = Some((i, v));
            }
        }
        best
    }

    /// Writes `value` into slot `i` of the caller's array and reports it as
    /// the sampler does: `raised` when it went up (or stayed), `lowered`
    /// when it went down.
    fn write(t: &mut MaxTracker, values: &mut [f64], i: usize, value: f64) {
        let before = values[i];
        values[i] = value;
        if value >= before {
            t.raised(i, value);
        } else {
            t.lowered(i, before);
        }
    }

    /// [`write`], then restores the maximum at once, as an eager
    /// single-slot update.
    fn set(t: &mut MaxTracker, values: &mut [f64], i: usize, value: f64) {
        write(t, values, i, value);
        t.flush(values);
    }

    #[test]
    fn empty_tracker() {
        let t = MaxTracker::new();
        assert_eq!(t.max(&[]), None);
    }

    #[test]
    fn single_slot() {
        let mut values = [3.5];
        let mut t = MaxTracker::new();
        t.rebuild(&values);
        assert_eq!(t.max(&values), Some((0, 3.5)));
        set(&mut t, &mut values, 0, -1.0);
        assert_eq!(t.max(&values), Some((0, -1.0)));
    }

    #[test]
    fn ties_resolve_to_the_lowest_index() {
        let mut values = [0.0, 1.0, 1.0, 0.5, 1.0];
        let mut t = MaxTracker::new();
        t.rebuild(&values);
        assert_eq!(t.max(&values), Some((1, 1.0)));
        // Raising a later slot to the same value must not steal the win.
        set(&mut t, &mut values, 4, 1.0);
        assert_eq!(t.max(&values), Some((1, 1.0)));
        // A strictly greater later slot does win.
        set(&mut t, &mut values, 4, 1.0 + 1e-12);
        assert_eq!(t.max(&values).unwrap().0, 4);
        // Dropping it hands the win back to the earliest of the tied slots.
        set(&mut t, &mut values, 4, 0.0);
        assert_eq!(t.max(&values), Some((1, 1.0)));
    }

    #[test]
    fn signed_zero_ties_resolve_to_the_lowest_index() {
        // `-0.0` early, `+0.0` in a later block, everything else negative:
        // the two zeros compare equal, so a first-wins scan keeps the `-0.0`
        // slot and the equality search must find it too, whichever zero the
        // block reductions carry.
        let mut values = vec![-1.0; 200];
        values[5] = -0.0;
        values[130] = 0.0;
        let mut t = MaxTracker::new();
        t.rebuild(&values);
        let (i, v) = t.max(&values).unwrap();
        assert_eq!(i, 5);
        assert!(v == 0.0 && v.is_sign_negative());
        assert_eq!(Some(i), linear_argmax(&values).map(|(i, _)| i));
        // Same after both zeros are overwritten with themselves (lowered,
        // then raised) and their blocks reduced again.
        for i in [130, 5] {
            t.lowered(i, values[i]);
            t.raised(i, values[i]);
        }
        t.flush(&values);
        assert_eq!(t.max(&values).unwrap().0, 5);
    }

    #[test]
    fn all_equal_values_pick_slot_zero() {
        let values = vec![0.0; 37];
        let mut t = MaxTracker::new();
        t.rebuild(&values);
        assert_eq!(t.max(&values), Some((0, 0.0)));
    }

    #[test]
    fn non_power_of_two_lengths() {
        for n in [1usize, 2, 3, 5, 7, 9, 31, 33, 100] {
            let values: Vec<f64> = (0..n).map(|i| ((i * 7919) % 101) as f64).collect();
            let mut t = MaxTracker::new();
            t.rebuild(&values);
            assert_eq!(t.max(&values), linear_argmax(&values), "n = {n}");
        }
    }

    #[test]
    fn rebuild_replaces_previous_contents() {
        let mut t = MaxTracker::new();
        t.rebuild(&[9.0, 1.0, 2.0]);
        assert_eq!(t.max(&[9.0, 1.0, 2.0]), Some((0, 9.0)));
        t.rebuild(&[1.0, 2.0]);
        assert_eq!(t.max(&[1.0, 2.0]), Some((1, 2.0)));
        t.rebuild(&[]);
        assert_eq!(t.max(&[]), None);
    }

    #[test]
    fn lengths_at_block_boundaries() {
        for n in [63usize, 64, 65, 129] {
            let mut values: Vec<f64> = (0..n).map(|i| ((i * 7919) % 61) as f64).collect();
            let mut t = MaxTracker::new();
            t.rebuild(&values);
            assert_eq!(t.max(&values), linear_argmax(&values), "n = {n}");
            // The last slot sits alone in a partial block for n = 65 and 129.
            set(&mut t, &mut values, n - 1, 100.0);
            assert_eq!(t.max(&values), Some((n - 1, 100.0)), "n = {n}");
            set(&mut t, &mut values, n - 1, -1.0);
            assert_eq!(t.max(&values), linear_argmax(&values), "n = {n}");
        }
    }

    #[test]
    fn equal_maxima_in_different_blocks_resolve_to_the_lower_index() {
        let mut values = vec![0.0; 200];
        let mut t = MaxTracker::new();
        t.rebuild(&values);
        // Marked high block first, so the later block is not just the one
        // flushed first.
        write(&mut t, &mut values, 150, 5.0);
        write(&mut t, &mut values, 70, 5.0);
        t.flush(&values);
        assert_eq!(t.max(&values), Some((70, 5.0)));
        set(&mut t, &mut values, 10, 5.0);
        assert_eq!(t.max(&values), Some((10, 5.0)));
        set(&mut t, &mut values, 10, 0.0);
        set(&mut t, &mut values, 70, 0.0);
        assert_eq!(t.max(&values), Some((150, 5.0)));
    }

    #[test]
    fn scattered_accept_batches_over_many_dirty_words() {
        // 5000 slots are 79 blocks, so the dirty mask spans two words. Each
        // batch mimics an accepted replacement: ~500 scattered additive
        // deltas (candidate neighbours up, removed-point neighbours down),
        // then one flush.
        let n = 5_000;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Quantized values keep exact ties frequent.
        let mut values: Vec<f64> = (0..n).map(|_| (next() % 64) as f64 / 8.0).collect();
        let mut t = MaxTracker::new();
        t.rebuild(&values);
        for batch in 0..200 {
            for _ in 0..500 {
                let i = next() as usize % n;
                let new = values[i] + (next() % 17) as f64 / 8.0 - 1.0;
                write(&mut t, &mut values, i, new);
            }
            t.flush(&values);
            assert_eq!(t.max(&values), linear_argmax(&values), "batch {batch}");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn raised_checks_bounds() {
        let mut t = MaxTracker::new();
        t.rebuild(&[1.0, 2.0]);
        t.raised(2, 3.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn lowered_checks_bounds() {
        let mut t = MaxTracker::new();
        t.rebuild(&[1.0, 2.0]);
        t.lowered(2, 3.0);
    }

    proptest::proptest! {
        /// The tracker always agrees with a first-wins linear argmax scan
        /// under an arbitrary interleaving of rebuilds and sparse updates —
        /// the exact access pattern of the Interchange inner loop (rebuild on
        /// fill, sparse deltas on accept, slot replacement on swap).
        #[test]
        fn agrees_with_linear_argmax_under_interleaved_ops(
            initial in proptest::collection::vec(-100.0f64..100.0, 1..130),
            ops in proptest::collection::vec(
                (0usize..130, -100.0f64..100.0, proptest::bool::ANY),
                0..200,
            ),
        ) {
            let mut values = initial.clone();
            let mut tracker = MaxTracker::new();
            tracker.rebuild(&values);
            proptest::prop_assert_eq!(tracker.max(&values), linear_argmax(&values));
            for (slot, value, additive) in ops {
                let i = slot % values.len();
                // Model both update flavours the sampler performs: additive
                // responsibility deltas and outright slot replacement.
                let new = if additive { values[i] + value } else { value };
                set(&mut tracker, &mut values, i, new);
                proptest::prop_assert_eq!(tracker.max(&values), linear_argmax(&values));
            }
        }

        /// Batches (D reported writes, then one `flush`) reach the same
        /// state as eager per-slot updates — the lazy reduction an accepted
        /// replacement relies on.
        #[test]
        fn batched_updates_match_eager_updates(
            initial in proptest::collection::vec(-100.0f64..100.0, 1..100),
            batches in proptest::collection::vec(
                proptest::collection::vec((0usize..100, -100.0f64..100.0), 1..25),
                0..25,
            ),
        ) {
            let (mut eager_values, mut lazy_values) = (initial.clone(), initial.clone());
            let mut eager = MaxTracker::new();
            let mut lazy = MaxTracker::new();
            eager.rebuild(&eager_values);
            lazy.rebuild(&lazy_values);
            for batch in batches {
                for (slot, value) in batch {
                    let i = slot % initial.len();
                    // Duplicate slots within a batch are allowed: the last
                    // write must win, exactly as with eager updates.
                    set(&mut eager, &mut eager_values, i, value);
                    write(&mut lazy, &mut lazy_values, i, value);
                }
                lazy.flush(&lazy_values);
                proptest::prop_assert_eq!(lazy.max(&lazy_values), eager.max(&eager_values));
            }
        }

        /// Accept-shaped batches — raises, then lowerings, sometimes of the
        /// standing maximum, then one flush — over a tie-heavy alphabet that
        /// holds both zeros agree with a first-wins linear scan.
        #[test]
        fn raise_and_lower_batches_agree_with_linear_argmax(
            initial in proptest::collection::vec(0usize..6, 1..200),
            batches in proptest::collection::vec(
                (
                    proptest::collection::vec((0usize..200, 0usize..6), 0..20),
                    proptest::bool::ANY,
                    proptest::collection::vec((0usize..200, 0usize..6), 0..20),
                ),
                0..30,
            ),
        ) {
            const LEVELS: [f64; 6] = [-1.0, -0.0, 0.0, 0.5, 1.0, 2.0];
            let mut values: Vec<f64> = initial.iter().map(|&l| LEVELS[l]).collect();
            let n = values.len();
            let mut tracker = MaxTracker::new();
            tracker.rebuild(&values);
            for (ups, lower_the_max, downs) in batches {
                for (slot, level) in ups {
                    let i = slot % n;
                    let new = if LEVELS[level] >= values[i] { LEVELS[level] } else { values[i] };
                    values[i] = new;
                    tracker.raised(i, new);
                }
                if lower_the_max {
                    let (i, top) = linear_argmax(&values).unwrap();
                    values[i] = top - 1.0;
                    tracker.lowered(i, top);
                }
                for (slot, level) in downs {
                    let i = slot % n;
                    let before = values[i];
                    values[i] = if LEVELS[level] <= before { LEVELS[level] } else { before - 0.5 };
                    tracker.lowered(i, before);
                }
                tracker.flush(&values);
                proptest::prop_assert_eq!(tracker.max(&values), linear_argmax(&values));
            }
        }

        /// Duplicated (tied) values never break the lowest-index contract.
        #[test]
        fn tie_heavy_streams_keep_lowest_index(
            picks in proptest::collection::vec((0usize..40, 0u8..4), 1..120),
        ) {
            // Values drawn from a 4-value alphabet force constant ties.
            let mut values = vec![0.0f64; 40];
            let mut tracker = MaxTracker::new();
            tracker.rebuild(&values);
            for (slot, level) in picks {
                set(&mut tracker, &mut values, slot, level as f64);
                proptest::prop_assert_eq!(tracker.max(&values), linear_argmax(&values));
            }
        }
    }
}
