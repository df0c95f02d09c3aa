//! Block-max tracking of the maximum of a mutable array of scores.
//!
//! The Interchange Shrink step must find the element with the **largest
//! responsibility** in the expanded sample for every candidate tuple. A
//! linear scan makes every candidate — including the overwhelmingly common
//! *rejected* ones — cost `O(K)`. [`MaxTracker`] caches the maximum instead,
//! so the read is `O(1)` and rejected candidates cost only their
//! neighbourhood kernel evaluations.
//!
//! ## Cost of an update
//!
//! Slots are grouped into fixed blocks of [`BLOCK`] slots, and each block
//! keeps its own argmax. An accepted replacement changes about
//! 2·|neighbourhood| responsibilities (about 500 on dense data). Slot ids
//! follow stream order, not space, so those slots are scattered over the
//! whole array. [`set_deferred`](MaxTracker::set_deferred) only writes the
//! value and marks its block dirty in a bitmask; [`flush`](MaxTracker::flush)
//! rescans each dirty block once, a contiguous pass over at most [`BLOCK`]
//! values, then re-picks the winner among the `⌈K/BLOCK⌉` block winners.
//! One flush of `D` scattered writes therefore costs
//! `O(BLOCK·min(D, K/BLOCK) + K/BLOCK)` sequential comparisons, with no
//! sort and no pointer chasing.
//!
//! ## Tie-breaking contract
//!
//! [`max`](MaxTracker::max) returns the **lowest index** attaining the
//! maximum value. This mirrors a first-wins linear scan (`v > best`), which
//! is exactly what the pre-existing Interchange implementation did — the
//! contract that keeps the optimized inner loop bit-identical to the legacy
//! one even when responsibilities tie (e.g. many isolated slots at 0.0).
//! Blocks and the scan over block winners are both first-wins, so their
//! composition is too. Values must never be NaN (kernel sums of finite
//! points are finite and non-negative).

/// Slots per block: one dirty bit per block, rescanned whole on flush.
const BLOCK: usize = 64;

/// Block-max argmax over a dense array of `f64` scores.
///
/// Slots are addressed `0..len`. The structure is rebuilt in `O(len)`;
/// updates are batched per [`flush`](Self::flush).
#[derive(Debug, Clone, Default)]
pub struct MaxTracker {
    /// Slot values; `values.len()` is the number of live slots.
    values: Vec<f64>,
    /// `block_best[b]` is the first-wins argmax (a slot index) of block `b`.
    block_best: Vec<usize>,
    /// One bit per block written by [`set_deferred`](Self::set_deferred)
    /// since the last flush.
    dirty: Vec<u64>,
    /// The first-wins argmax over all slots, valid when nothing is dirty.
    best: usize,
}

impl MaxTracker {
    /// An empty tracker (no slots).
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds the block winners over `values` in `O(len)`.
    pub fn rebuild(&mut self, values: &[f64]) {
        let blocks = values.len().div_ceil(BLOCK);
        self.values.clear();
        self.values.extend_from_slice(values);
        self.dirty.clear();
        self.dirty.resize(blocks.div_ceil(64), 0);
        self.block_best.clear();
        let values = &self.values;
        self.block_best
            .extend((0..blocks).map(|b| block_argmax(values, b)));
        self.best = self.winner_of_blocks();
    }

    /// Number of live slots.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when the tracker holds no slots.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Current value of slot `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> f64 {
        assert!(
            i < self.len(),
            "slot {i} out of bounds (len {})",
            self.len()
        );
        self.values[i]
    }

    /// Sets slot `i` to `value` and restores the maximum at once: a
    /// [`set_deferred`](Self::set_deferred) followed by a
    /// [`flush`](Self::flush).
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize, value: f64) {
        self.set_deferred(i, value);
        self.flush();
    }

    /// Writes `value` into slot `i` and marks its block dirty, deferring the
    /// block rescan to the next [`flush`](Self::flush). An accepted
    /// Interchange replacement writes all its responsibility deltas this
    /// way, so a block hit by many of them is rescanned once.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn set_deferred(&mut self, i: usize, value: f64) {
        assert!(
            i < self.len(),
            "slot {i} out of bounds (len {})",
            self.len()
        );
        self.values[i] = value;
        let b = i / BLOCK;
        self.dirty[b / 64] |= 1 << (b % 64);
    }

    /// Rescans every block written by [`set_deferred`](Self::set_deferred)
    /// since the last flush (or rebuild), then re-picks the overall winner
    /// among the block winners.
    pub fn flush(&mut self) {
        for w in 0..self.dirty.len() {
            let mut bits = std::mem::take(&mut self.dirty[w]);
            while bits != 0 {
                let b = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.block_best[b] = block_argmax(&self.values, b);
            }
        }
        self.best = self.winner_of_blocks();
    }

    /// The `(index, value)` of the maximum slot, ties resolved to the lowest
    /// index; `None` when empty.
    ///
    /// # Panics
    /// Debug-panics if deferred writes have not been flushed.
    pub fn max(&self) -> Option<(usize, f64)> {
        debug_assert!(
            self.dirty.iter().all(|&w| w == 0),
            "MaxTracker::max read with unflushed deferred writes"
        );
        (!self.is_empty()).then(|| (self.best, self.values[self.best]))
    }

    /// First-wins argmax over the block winners; 0 when empty. Blocks are
    /// in slot order, so a tie between blocks goes to the lower slot.
    fn winner_of_blocks(&self) -> usize {
        let winners = self.block_best.iter().map(|&i| self.values[i]);
        self.block_best
            .get(first_wins_argmax(winners))
            .copied()
            .unwrap_or(0)
    }
}

/// First-wins argmax of block `b` of `values`, as a slot index.
fn block_argmax(values: &[f64], b: usize) -> usize {
    let start = b * BLOCK;
    let end = (start + BLOCK).min(values.len());
    start + first_wins_argmax(values[start..end].iter().copied())
}

/// Position of the first maximum of `values` (`v > best`, so a later equal
/// value never wins); 0 when empty.
#[inline]
fn first_wins_argmax(values: impl Iterator<Item = f64>) -> usize {
    let mut best = (0, f64::NEG_INFINITY);
    for (i, v) in values.enumerate() {
        if v > best.1 {
            best = (i, v);
        }
    }
    best.0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: first-wins linear argmax, exactly the scan the legacy
    /// Interchange Shrink step performed.
    fn linear_argmax(values: &[f64]) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (i, &v) in values.iter().enumerate() {
            if best.is_none_or(|(_, b)| v > b) {
                best = Some((i, v));
            }
        }
        best
    }

    #[test]
    fn empty_tracker() {
        let t = MaxTracker::new();
        assert!(t.is_empty());
        assert_eq!(t.max(), None);
    }

    #[test]
    fn single_slot() {
        let mut t = MaxTracker::new();
        t.rebuild(&[3.5]);
        assert_eq!(t.max(), Some((0, 3.5)));
        t.set(0, -1.0);
        assert_eq!(t.max(), Some((0, -1.0)));
    }

    #[test]
    fn ties_resolve_to_the_lowest_index() {
        let mut t = MaxTracker::new();
        t.rebuild(&[0.0, 1.0, 1.0, 0.5, 1.0]);
        assert_eq!(t.max(), Some((1, 1.0)));
        // Raising a later slot to the same value must not steal the win.
        t.set(4, 1.0);
        assert_eq!(t.max(), Some((1, 1.0)));
        // A strictly greater later slot does win.
        t.set(4, 1.0 + 1e-12);
        assert_eq!(t.max().unwrap().0, 4);
        // Dropping it hands the win back to the earliest of the tied slots.
        t.set(4, 0.0);
        assert_eq!(t.max(), Some((1, 1.0)));
    }

    #[test]
    fn all_equal_values_pick_slot_zero() {
        let mut t = MaxTracker::new();
        t.rebuild(&vec![0.0; 37]);
        assert_eq!(t.max(), Some((0, 0.0)));
    }

    #[test]
    fn non_power_of_two_lengths() {
        for n in [1usize, 2, 3, 5, 7, 9, 31, 33, 100] {
            let values: Vec<f64> = (0..n).map(|i| ((i * 7919) % 101) as f64).collect();
            let mut t = MaxTracker::new();
            t.rebuild(&values);
            assert_eq!(t.len(), n);
            assert_eq!(t.max(), linear_argmax(&values), "n = {n}");
        }
    }

    #[test]
    fn rebuild_replaces_previous_contents() {
        let mut t = MaxTracker::new();
        t.rebuild(&[9.0, 1.0, 2.0]);
        assert_eq!(t.max(), Some((0, 9.0)));
        t.rebuild(&[1.0, 2.0]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.max(), Some((1, 2.0)));
        t.rebuild(&[]);
        assert_eq!(t.max(), None);
    }

    #[test]
    fn lengths_at_block_boundaries() {
        for n in [63usize, 64, 65, 129] {
            let mut values: Vec<f64> = (0..n).map(|i| ((i * 7919) % 61) as f64).collect();
            let mut t = MaxTracker::new();
            t.rebuild(&values);
            assert_eq!(t.max(), linear_argmax(&values), "n = {n}");
            // The last slot sits alone in a partial block for n = 65 and 129.
            values[n - 1] = 100.0;
            t.set_deferred(n - 1, 100.0);
            t.flush();
            assert_eq!(t.max(), Some((n - 1, 100.0)), "n = {n}");
            values[n - 1] = -1.0;
            t.set(n - 1, -1.0);
            assert_eq!(t.max(), linear_argmax(&values), "n = {n}");
        }
    }

    #[test]
    fn equal_maxima_in_different_blocks_resolve_to_the_lower_index() {
        let mut t = MaxTracker::new();
        t.rebuild(&vec![0.0; 200]);
        // Written high block first, so the later block's winner is not just
        // the one flushed first.
        t.set_deferred(150, 5.0);
        t.set_deferred(70, 5.0);
        t.flush();
        assert_eq!(t.max(), Some((70, 5.0)));
        t.set(10, 5.0);
        assert_eq!(t.max(), Some((10, 5.0)));
        t.set(10, 0.0);
        t.set(70, 0.0);
        assert_eq!(t.max(), Some((150, 5.0)));
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
        let mut reference: Vec<f64> = (0..n).map(|_| (next() % 64) as f64 / 8.0).collect();
        let mut t = MaxTracker::new();
        t.rebuild(&reference);
        for batch in 0..200 {
            for _ in 0..500 {
                let i = next() as usize % n;
                let delta = (next() % 17) as f64 / 8.0 - 1.0;
                reference[i] += delta;
                t.set_deferred(i, reference[i]);
            }
            t.flush();
            assert_eq!(t.max(), linear_argmax(&reference), "batch {batch}");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn set_checks_bounds() {
        let mut t = MaxTracker::new();
        t.rebuild(&[1.0, 2.0]);
        t.set(2, 0.0);
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
            let mut reference = initial.clone();
            let mut tracker = MaxTracker::new();
            tracker.rebuild(&initial);
            proptest::prop_assert_eq!(tracker.max(), linear_argmax(&reference));
            for (slot, value, additive) in ops {
                let i = slot % reference.len();
                // Model both update flavours the sampler performs: additive
                // responsibility deltas and outright slot replacement.
                let new = if additive { reference[i] + value } else { value };
                reference[i] = new;
                tracker.set(i, new);
                proptest::prop_assert_eq!(tracker.max(), linear_argmax(&reference));
                proptest::prop_assert_eq!(tracker.get(i), new);
            }
        }

        /// Deferred batches (`set_deferred` × D then one `flush`) reach the
        /// same state as eager per-slot `set` calls — the lazy re-heapify an
        /// accepted replacement relies on.
        #[test]
        fn deferred_batches_match_eager_sets(
            initial in proptest::collection::vec(-100.0f64..100.0, 1..100),
            batches in proptest::collection::vec(
                proptest::collection::vec((0usize..100, -100.0f64..100.0), 1..25),
                0..25,
            ),
        ) {
            let mut eager = MaxTracker::new();
            let mut lazy = MaxTracker::new();
            eager.rebuild(&initial);
            lazy.rebuild(&initial);
            for batch in batches {
                for (slot, value) in batch {
                    let i = slot % initial.len();
                    // Duplicate slots within a batch are allowed: the last
                    // write must win, exactly as with eager sets.
                    eager.set(i, value);
                    lazy.set_deferred(i, value);
                }
                lazy.flush();
                proptest::prop_assert_eq!(lazy.max(), eager.max());
            }
        }

        /// Duplicated (tied) values never break the lowest-index contract.
        #[test]
        fn tie_heavy_streams_keep_lowest_index(
            picks in proptest::collection::vec((0usize..40, 0u8..4), 1..120),
        ) {
            // Values drawn from a 4-value alphabet force constant ties.
            let mut reference = vec![0.0f64; 40];
            let mut tracker = MaxTracker::new();
            tracker.rebuild(&reference);
            for (slot, level) in picks {
                reference[slot] = level as f64;
                tracker.set(slot, level as f64);
                proptest::prop_assert_eq!(tracker.max(), linear_argmax(&reference));
            }
        }
    }
}
