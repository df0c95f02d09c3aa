//! A dynamic spatial hash over cutoff-sized cells.
//!
//! Profiling after the PR 2 inner-loop rebuild showed the R-tree radius
//! query dominating the cost of a *rejected* Interchange candidate (~5µs of
//! ~8µs at 1M points / K = 10K), and a uniform grid with cells sized to the
//! kernel's cutoff radius answers the same fixed-radius query ~1.6× faster:
//! a query walks a small block of cells — each a flat slice of candidates,
//! clipped per row to the query circle — with no tree descent and no
//! bounding-box arithmetic. [`LocalityIndex::reset`] sizes cells at the
//! hinted radius exactly: a query then probes at most a 3×3 block (~7 cells
//! after row clipping) and scans ≈ `πr² + 4rc` worth of entries, robust
//! across sample densities from sparse (K = 500, ~1 entry per cell —
//! probe-bound) to dense (K = 10K, dozens per cell — scan-bound).
//!
//! [`HashGrid`] is that grid made dynamic and unbounded:
//!
//! * Cells are stored **sparsely** in an open-addressed hash table keyed by
//!   integer cell coordinates, so the grid covers an unbounded domain with
//!   memory proportional to the number of *occupied* cells.
//! * Cell coordinates are **clamped** to ±2³⁰, so astronomically distant
//!   points (GPS glitches, sentinel values) land in border cells instead of
//!   overflowing — the exact-distance filter still decides membership, so
//!   queries stay correct.
//! * `insert`/`remove` are O(1) amortized: removal `swap_remove`s within the
//!   cell's entry list, and a drained cell keeps its slot (and its list's
//!   capacity) instead of leaving a tombstone — probe chains never break, and
//!   the periodic table growth is the garbage-collection moment at which
//!   drained cells are dropped.
//! * Queries whose cell range would exceed the table size fall back to a
//!   table scan, so a pathologically wide radius degrades to the brute-force
//!   cost instead of iterating empty cells forever.
//!
//! Visitation order — row-major over the queried cell block, insertion order
//! (as modified by `swap_remove`) within a cell — is deterministic for a
//! given operation history, which the Interchange determinism contract
//! relies on.

use crate::locality::same_bits;
use crate::{snapshot, LocalityIndex, NeighborBatch};
use vas_data::Point;

/// Cell coordinates are clamped to this magnitude; at the default cell size
/// of 1.0 that covers a domain of ±2³⁰ before border-cell clamping kicks in.
const CELL_COORD_LIMIT: f64 = (1u64 << 30) as f64;

/// Initial hash-table capacity (power of two).
const INITIAL_CAPACITY: usize = 64;

/// Relative slack added to the row-clipping geometry so floating-point
/// rounding at cell boundaries can never exclude a cell that holds an
/// in-radius point. Scaled by the magnitude of the coordinates involved
/// (plus the cell size), so it stays many orders of magnitude above the
/// ~1-ulp discrepancy between cell assignment (`p · inv_cell_size`) and
/// band geometry (`cy · cell_size`) even for data stored far from the
/// origin (e.g. projected UTM coordinates at ~1e7). Costs at most a
/// handful of extra probed cells per query.
const ROW_CLIP_SLACK: f64 = 1e-9;

/// A snapshot of how points spread across a [`HashGrid`]'s cells — the
/// measured signal behind the density-adaptive cell-sizing decision (see
/// [`HashGrid::occupancy`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridOccupancy {
    /// Number of cells currently holding at least one point.
    pub cells_occupied: usize,
    /// Total points in the grid.
    pub points: usize,
    /// `points / cells_occupied` (0.0 for an empty grid).
    pub mean_points_per_cell: f64,
    /// Largest per-cell point count.
    pub max_points_per_cell: usize,
}

/// One open-addressing slot: a cell's integer coordinates plus its entries.
#[derive(Debug, Clone, Default)]
struct Slot {
    key: (i32, i32),
    occupied: bool,
    items: Vec<(usize, Point)>,
}

/// A dynamic spatial-hash index mapping caller-chosen `usize` identifiers to
/// points, optimized for fixed-radius neighbourhood queries at a known
/// typical radius (the cell size).
///
/// Duplicate ids and points are permitted (the grid is a multiset);
/// [`remove`](LocalityIndex::remove) deletes one matching entry.
#[derive(Debug, Clone)]
pub struct HashGrid {
    cell_size: f64,
    inv_cell_size: f64,
    /// Open-addressed table; capacity is always a power of two.
    slots: Vec<Slot>,
    /// Slots with `occupied == true`, including drained cells awaiting the
    /// next rehash. Governs the load factor.
    occupied_slots: usize,
    /// Cells currently holding at least one entry (diagnostics).
    nonempty_cells: usize,
    len: usize,
}

impl Default for HashGrid {
    fn default() -> Self {
        Self::new()
    }
}

impl HashGrid {
    /// Creates an empty grid with a placeholder cell size of 1.0; call
    /// [`reset`](LocalityIndex::reset) (or use
    /// [`with_cell_size`](Self::with_cell_size)) to size cells to the radius
    /// the workload will query at.
    pub fn new() -> Self {
        Self::with_cell_size(1.0)
    }

    /// Creates an empty grid whose cells are `cell_size` wide. Queries are
    /// correct at any radius, but fastest when the radius is close to the
    /// cell size (a small row-clipped cell block per query). Non-finite or
    /// non-positive sizes fall back to 1.0.
    pub fn with_cell_size(cell_size: f64) -> Self {
        let cell_size = Self::sanitize_cell_size(cell_size);
        Self {
            cell_size,
            inv_cell_size: 1.0 / cell_size,
            slots: vec![Slot::default(); INITIAL_CAPACITY],
            occupied_slots: 0,
            nonempty_cells: 0,
            len: 0,
        }
    }

    /// Builds a grid from `(id, point)` pairs.
    pub fn from_entries(cell_size: f64, entries: impl IntoIterator<Item = (usize, Point)>) -> Self {
        let mut grid = Self::with_cell_size(cell_size);
        for (id, p) in entries {
            LocalityIndex::insert(&mut grid, id, p);
        }
        grid
    }

    /// The configured cell side length.
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    /// Number of distinct non-empty cells (diagnostics; drained cells that
    /// still hold a table slot are not counted).
    pub fn occupied_cells(&self) -> usize {
        self.nonempty_cells
    }

    /// Hash-table capacity (diagnostics).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Occupancy statistics over the live cell table: how many cells hold
    /// points and how the points spread across them. This is the measurement
    /// the density-adaptive cell-sizing decision needs (halving cells bought
    /// ~15% dense but regressed sparse ~30%; without an occupancy signal the
    /// trade-off cannot be made per dataset). Pure read — no sizing behavior
    /// changes here. `VasSampler` records it through `vas-obs` when
    /// observability is attached.
    pub fn occupancy(&self) -> GridOccupancy {
        let mut cells_occupied = 0usize;
        let mut max_points_per_cell = 0usize;
        for slot in &self.slots {
            if slot.occupied && !slot.items.is_empty() {
                cells_occupied += 1;
                max_points_per_cell = max_points_per_cell.max(slot.items.len());
            }
        }
        let mean_points_per_cell = if cells_occupied > 0 {
            self.len as f64 / cells_occupied as f64
        } else {
            0.0
        };
        GridOccupancy {
            cells_occupied,
            points: self.len,
            mean_points_per_cell,
            max_points_per_cell,
        }
    }

    pub(crate) fn sanitize_cell_size(cell_size: f64) -> f64 {
        if cell_size.is_finite() && cell_size > 0.0 {
            cell_size
        } else {
            1.0
        }
    }

    /// Maps one scaled coordinate (`value / cell_size`) to a clamped integer
    /// cell coordinate. Total by construction: the `f64 → i32` cast
    /// saturates, so NaN lands in cell 0 and ±∞ in the clamp-border cells —
    /// every representable point has a cell. Shared with the deterministic
    /// shard partitioner (`crate::partition`), whose cell → shard mapping is
    /// derived from exactly this decomposition.
    #[inline]
    pub(crate) fn coord(scaled: f64) -> i32 {
        scaled.floor().clamp(-CELL_COORD_LIMIT, CELL_COORD_LIMIT) as i32
    }

    #[inline]
    pub(crate) fn cell_of(&self, p: &Point) -> (i32, i32) {
        (
            Self::coord(p.x * self.inv_cell_size),
            Self::coord(p.y * self.inv_cell_size),
        )
    }

    /// Mixes the two cell coordinates into a table hash (splitmix64 finalizer
    /// over the packed key). Also the hash the shard partitioner reduces
    /// modulo the shard count, so shard assignment inherits this mix's
    /// avalanche behaviour.
    #[inline]
    pub(crate) fn hash_key(key: (i32, i32)) -> usize {
        let packed = ((key.0 as u32 as u64) << 32) | key.1 as u32 as u64;
        let mut h = packed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 32;
        h = h.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        h ^= h >> 32;
        h as usize
    }

    /// Index of the slot holding `key`, if that cell has ever been claimed
    /// since the last rehash/reset.
    #[inline]
    fn find_slot(&self, key: (i32, i32)) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut i = Self::hash_key(key) & mask;
        loop {
            let slot = &self.slots[i];
            if !slot.occupied {
                return None;
            }
            if slot.key == key {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// Index of the slot for `key`, claiming a fresh slot (and growing the
    /// table) as needed.
    fn slot_for_insert(&mut self, key: (i32, i32)) -> usize {
        // Grow before probing so the claimed slot survives the rehash.
        if (self.occupied_slots + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = Self::hash_key(key) & mask;
        loop {
            let slot = &mut self.slots[i];
            if !slot.occupied {
                slot.occupied = true;
                slot.key = key;
                self.occupied_slots += 1;
                return i;
            }
            if slot.key == key {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// The shared traversal under both radius-query forms: hands `visit_cell`
    /// the item slice of every cell that can intersect the query circle, in
    /// the deterministic order the visitation contract promises — row-major
    /// over the clipped cell block in the typical case, table order under the
    /// wide-radius fallback. Entries are *not* distance-filtered here; the
    /// caller applies the exact `dist2 <= r²` filter per item.
    fn for_each_candidate_cell(
        &self,
        center: &Point,
        radius: f64,
        mut visit_cell: impl FnMut(&[(usize, Point)]),
    ) {
        if self.len == 0 || radius.is_nan() || radius < 0.0 {
            return;
        }
        let r2 = radius * radius;
        let min_cx = Self::coord((center.x - radius) * self.inv_cell_size);
        let max_cx = Self::coord((center.x + radius) * self.inv_cell_size);
        let min_cy = Self::coord((center.y - radius) * self.inv_cell_size);
        let max_cy = Self::coord((center.y + radius) * self.inv_cell_size);
        let cells = (max_cx as i64 - min_cx as i64 + 1) * (max_cy as i64 - min_cy as i64 + 1);
        if cells <= 2 * self.slots.len() as i64 {
            // Typical case: walk the (small) cell block row-major, clipping
            // each row's column range to the circle: a row whose y-band is
            // `dy` away from the center only needs columns within
            // `±sqrt(r² − dy²)`. Skipped when any coordinate clamped (the
            // band arithmetic is meaningless for border cells holding
            // faraway points).
            let limit = CELL_COORD_LIMIT as i32;
            let clamped =
                min_cx <= -limit || max_cx >= limit || min_cy <= -limit || max_cy >= limit;
            let slack_y = (center.y.abs() + radius + self.cell_size) * ROW_CLIP_SLACK;
            let slack_x = (center.x.abs() + radius + self.cell_size) * ROW_CLIP_SLACK;
            for cy in min_cy..=max_cy {
                let (row_min_cx, row_max_cx) = if clamped {
                    (min_cx, max_cx)
                } else {
                    let band_lo = cy as f64 * self.cell_size - slack_y;
                    let band_hi = band_lo + self.cell_size + 2.0 * slack_y;
                    let dy = (band_lo - center.y).max(center.y - band_hi).max(0.0);
                    let dy2 = dy * dy;
                    if dy2 > r2 {
                        continue;
                    }
                    let rx = (r2 - dy2).sqrt() + slack_x;
                    (
                        Self::coord((center.x - rx) * self.inv_cell_size).max(min_cx),
                        Self::coord((center.x + rx) * self.inv_cell_size).min(max_cx),
                    )
                };
                for cx in row_min_cx..=row_max_cx {
                    if let Some(i) = self.find_slot((cx, cy)) {
                        visit_cell(&self.slots[i].items);
                    }
                }
            }
        } else {
            // The cell block is larger than the table: scanning every
            // occupied slot is cheaper than probing mostly-empty cells.
            for slot in &self.slots {
                if !slot.occupied
                    || slot.key.0 < min_cx
                    || slot.key.0 > max_cx
                    || slot.key.1 < min_cy
                    || slot.key.1 > max_cy
                {
                    continue;
                }
                visit_cell(&slot.items);
            }
        }
    }

    /// Doubles the table, re-placing live cells and dropping drained ones
    /// (this is the only moment a claimed slot is ever given back).
    fn grow(&mut self) {
        let new_cap = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![Slot::default(); new_cap]);
        self.occupied_slots = 0;
        let mask = new_cap - 1;
        for slot in old {
            if !slot.occupied || slot.items.is_empty() {
                continue;
            }
            let mut i = Self::hash_key(slot.key) & mask;
            while self.slots[i].occupied {
                i = (i + 1) & mask;
            }
            self.slots[i] = Slot {
                key: slot.key,
                occupied: true,
                items: slot.items,
            };
            self.occupied_slots += 1;
        }
    }
}

impl LocalityIndex for HashGrid {
    fn len(&self) -> usize {
        self.len
    }

    fn reset(&mut self, radius_hint: f64) {
        let cell_size = Self::sanitize_cell_size(radius_hint);
        self.cell_size = cell_size;
        self.inv_cell_size = 1.0 / cell_size;
        for slot in &mut self.slots {
            slot.occupied = false;
            slot.items.clear();
        }
        self.occupied_slots = 0;
        self.nonempty_cells = 0;
        self.len = 0;
    }

    fn insert(&mut self, id: usize, point: Point) {
        let key = self.cell_of(&point);
        let i = self.slot_for_insert(key);
        let items = &mut self.slots[i].items;
        if items.is_empty() {
            self.nonempty_cells += 1;
        }
        items.push((id, point));
        self.len += 1;
    }

    fn remove(&mut self, id: usize, point: &Point) -> bool {
        let key = self.cell_of(point);
        let Some(i) = self.find_slot(key) else {
            return false;
        };
        let items = &mut self.slots[i].items;
        match items
            .iter()
            .position(|(eid, ep)| *eid == id && same_bits(ep, point))
        {
            Some(pos) => {
                items.swap_remove(pos);
                if items.is_empty() {
                    self.nonempty_cells -= 1;
                }
                self.len -= 1;
                true
            }
            None => false,
        }
    }

    fn for_each_in_radius_with_dist2(
        &self,
        center: &Point,
        radius: f64,
        mut visit: impl FnMut(usize, &Point, f64),
    ) {
        let r2 = radius * radius;
        self.for_each_candidate_cell(center, radius, |items| {
            for &(id, ref p) in items {
                let d2 = p.dist2(center);
                if d2 <= r2 {
                    visit(id, p, d2);
                }
            }
        });
    }

    fn gather_in_radius_into(&self, center: &Point, radius: f64, out: &mut NeighborBatch) {
        out.clear();
        let r2 = radius * radius;
        self.for_each_candidate_cell(center, radius, |items| {
            // Cell-by-cell lane fill: one reservation per cell, then a tight
            // push loop over the cell's flat entry slice. Same traversal and
            // same per-item `d2 <= r²` filter as the visitor path, so lanes
            // land in exactly the visitation order.
            out.ids.reserve(items.len());
            out.dist2.reserve(items.len());
            for &(id, ref p) in items {
                let d2 = p.dist2(center);
                if d2 <= r2 {
                    out.ids.push(id);
                    out.dist2.push(d2);
                }
            }
        });
    }

    fn occupancy_stats(&self) -> Option<GridOccupancy> {
        Some(self.occupancy())
    }
}

/// Checkpoint snapshot codec — see [`crate::snapshot`].
impl HashGrid {
    /// Serializes the grid: cell-size bits, entry count, then every entry in
    /// cell-grouped table-scan order.
    ///
    /// The table layout itself (slot positions, drained cells, growth
    /// history) is deliberately **not** stored: replaying the inserts in the
    /// recorded order reproduces each cell's item vector exactly, and every
    /// observable traversal — the geometric query path walks cells row-major
    /// by coordinates, per-cell items in insertion order — depends only on
    /// that, not on where cells landed in the open-addressed table.
    pub fn snapshot_into(&self, out: &mut Vec<u8>) {
        snapshot::put_f64(out, self.cell_size);
        snapshot::put_usize(out, self.len);
        for slot in &self.slots {
            if !slot.occupied {
                continue;
            }
            for &(id, ref p) in &slot.items {
                snapshot::put_usize(out, id);
                snapshot::put_f64(out, p.x);
                snapshot::put_f64(out, p.y);
                snapshot::put_f64(out, p.value);
            }
        }
    }

    /// Restores a grid from [`snapshot_into`](Self::snapshot_into) bytes by
    /// replaying the recorded inserts into a fresh table.
    pub fn restore_snapshot(
        r: &mut snapshot::SnapshotReader<'_>,
    ) -> Result<Self, snapshot::SnapshotError> {
        let cell_size = r.take_f64("hashgrid cell size")?;
        if !cell_size.is_finite() || cell_size <= 0.0 {
            return Err(snapshot::SnapshotError::new(format!(
                "hashgrid cell size {cell_size} is not finite positive"
            )));
        }
        let n = r.take_usize("hashgrid entry count")?;
        let mut grid = HashGrid::with_cell_size(cell_size);
        debug_assert_eq!(grid.cell_size.to_bits(), cell_size.to_bits());
        for i in 0..n {
            let id = r.take_usize("hashgrid entry id")?;
            let x = r.take_f64("hashgrid entry x")?;
            let y = r.take_f64("hashgrid entry y")?;
            let value = r.take_f64("hashgrid entry value")?;
            if !x.is_finite() || !y.is_finite() {
                return Err(snapshot::SnapshotError::new(format!(
                    "hashgrid entry {i} has non-finite coordinates ({x}, {y})"
                )));
            }
            LocalityIndex::insert(&mut grid, id, Point::with_value(x, y, value));
        }
        Ok(grid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen_range(-100.0..100.0), rng.gen_range(-100.0..100.0)))
            .collect()
    }

    fn brute_force(pts: &[Point], center: &Point, radius: f64) -> Vec<usize> {
        let mut ids: Vec<usize> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| p.dist(center) <= radius)
            .map(|(i, _)| i)
            .collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn empty_grid_behaviour() {
        let g = HashGrid::new();
        assert!(g.is_empty());
        assert_eq!(LocalityIndex::len(&g), 0);
        assert!(g.query_radius(&Point::new(0.0, 0.0), 10.0).is_empty());
        assert_eq!(g.occupied_cells(), 0);
    }

    #[test]
    fn degenerate_cell_sizes_are_sanitized() {
        for bad in [0.0, -3.0, f64::NAN, f64::INFINITY] {
            let g = HashGrid::with_cell_size(bad);
            assert_eq!(g.cell_size(), 1.0, "cell size {bad} not sanitized");
        }
        let mut g = HashGrid::with_cell_size(2.0);
        g.reset(f64::NEG_INFINITY);
        assert_eq!(g.cell_size(), 1.0);
    }

    #[test]
    fn radius_query_matches_brute_force_across_cell_sizes() {
        let pts = random_points(1_000, 3);
        let center = Point::new(5.0, -5.0);
        // Cell sizes far from the query radius must stay correct (only the
        // constant factor changes).
        for cell in [0.5, 4.0, 40.0, 500.0] {
            let g = HashGrid::from_entries(cell, pts.iter().copied().enumerate());
            assert_eq!(LocalityIndex::len(&g), pts.len());
            for radius in [1.0, 10.0, 40.0] {
                let mut got: Vec<usize> = g
                    .query_radius(&center, radius)
                    .into_iter()
                    .map(|(id, _)| id)
                    .collect();
                got.sort_unstable();
                assert_eq!(
                    got,
                    brute_force(&pts, &center, radius),
                    "cell {cell}, radius {radius}"
                );
            }
        }
    }

    #[test]
    fn wide_query_takes_the_table_scan_path() {
        let pts = random_points(300, 5);
        // Tiny cells + huge radius forces the cell block past the table size.
        let g = HashGrid::from_entries(1e-3, pts.iter().copied().enumerate());
        let center = Point::new(0.0, 0.0);
        let mut got: Vec<usize> = g
            .query_radius(&center, 150.0)
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        got.sort_unstable();
        assert_eq!(got, brute_force(&pts, &center, 150.0));
    }

    #[test]
    fn table_scan_fallback_is_pinned_against_brute_force() {
        // Dedicated coverage for the wide-radius fallback: tiny cells and a
        // huge radius make the candidate cell block vastly larger than the
        // hash table, which must flip the query into the occupied-slot scan.
        let pts = random_points(400, 29);
        let g = HashGrid::from_entries(1e-3, pts.iter().copied().enumerate());
        let block_cells = (2.0 * 120.0 / 1e-3) as i64; // cells per axis at r=120
        assert!(
            block_cells * block_cells > 2 * g.capacity() as i64,
            "test no longer reaches the table-scan fallback"
        );
        for (radius, center) in [
            (120.0, Point::new(0.0, 0.0)),
            (90.0, Point::new(30.0, -60.0)),
            (250.0, Point::new(-80.0, 80.0)),
        ] {
            // The visitor path: ids and exact squared distances both match a
            // brute-force scan.
            let mut got: Vec<(usize, u64)> = Vec::new();
            g.for_each_in_radius_with_dist2(&center, radius, |id, _, d2| {
                got.push((id, d2.to_bits()));
            });
            got.sort_unstable();
            let mut expected: Vec<(usize, u64)> = pts
                .iter()
                .enumerate()
                .filter(|(_, p)| p.dist(&center) <= radius)
                .map(|(i, p)| (i, p.dist2(&center).to_bits()))
                .collect();
            expected.sort_unstable();
            assert_eq!(got, expected, "radius {radius}");
            assert!(!got.is_empty(), "radius {radius} found nothing");
            // The gather path produces the same lanes in the same order as
            // the (unsorted) visitor sequence.
            let mut seq: Vec<(usize, u64)> = Vec::new();
            g.for_each_in_radius_with_dist2(&center, radius, |id, _, d2| {
                seq.push((id, d2.to_bits()));
            });
            let mut batch = NeighborBatch::new();
            g.gather_in_radius_into(&center, radius, &mut batch);
            let lanes: Vec<(usize, u64)> = batch
                .ids
                .iter()
                .zip(&batch.dist2)
                .map(|(&id, d2)| (id, d2.to_bits()))
                .collect();
            assert_eq!(lanes, seq, "radius {radius}: gather diverged from visitor");
        }
    }

    #[test]
    fn interleaved_insert_remove_matches_brute_force() {
        // The Interchange access pattern: constant insert/remove churn.
        let mut rng = StdRng::seed_from_u64(8);
        let mut g = HashGrid::with_cell_size(7.0);
        let mut reference: Vec<(usize, Point)> = Vec::new();
        let mut next_id = 0usize;
        for step in 0..3_000 {
            if reference.is_empty() || rng.gen_bool(0.6) {
                let p = Point::new(rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0));
                LocalityIndex::insert(&mut g, next_id, p);
                reference.push((next_id, p));
                next_id += 1;
            } else {
                let idx = rng.gen_range(0..reference.len());
                let (id, p) = reference.swap_remove(idx);
                assert!(LocalityIndex::remove(&mut g, id, &p), "step {step}");
            }
            assert_eq!(LocalityIndex::len(&g), reference.len(), "step {step}");
        }
        let center = Point::new(0.0, 0.0);
        let mut got: Vec<usize> = g
            .query_radius(&center, 25.0)
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        got.sort_unstable();
        let mut expected: Vec<usize> = reference
            .iter()
            .filter(|(_, p)| p.dist(&center) <= 25.0)
            .map(|(id, _)| *id)
            .collect();
        expected.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn drained_cells_are_reused_and_collected_on_growth() {
        let mut g = HashGrid::with_cell_size(1.0);
        // Fill and drain a single cell repeatedly: the slot (and its list
        // capacity) must be reused, not tombstoned.
        let p = Point::new(0.5, 0.5);
        for round in 0..100 {
            LocalityIndex::insert(&mut g, round, p);
            assert!(LocalityIndex::remove(&mut g, round, &p));
        }
        assert_eq!(g.capacity(), INITIAL_CAPACITY, "drained cell leaked slots");
        // Touch many distinct cells to force growth; the drained cell is
        // dropped during the rehash.
        for i in 0..200 {
            LocalityIndex::insert(&mut g, 1_000 + i, Point::new(i as f64 * 10.0, 0.0));
        }
        assert_eq!(LocalityIndex::len(&g), 200);
        assert_eq!(g.occupied_cells(), 200);
        let mut found: Vec<usize> = g
            .query_radius(&Point::new(995.0, 0.0), 1_000.0)
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        found.sort_unstable();
        assert_eq!(found.len(), 200);
    }

    #[test]
    fn duplicate_points_are_supported() {
        let p = Point::new(1.0, 1.0);
        let mut g = HashGrid::with_cell_size(2.0);
        for id in 0..20 {
            LocalityIndex::insert(&mut g, id, p);
        }
        assert_eq!(LocalityIndex::len(&g), 20);
        assert_eq!(g.query_radius(&p, 0.1).len(), 20);
        assert!(LocalityIndex::remove(&mut g, 7, &p));
        assert_eq!(LocalityIndex::len(&g), 19);
        assert!(!LocalityIndex::remove(&mut g, 7, &p));
    }

    #[test]
    fn far_out_points_clamp_into_border_cells_without_breaking_queries() {
        let mut g = HashGrid::with_cell_size(1.0);
        // Well beyond the ±2³⁰ clamp at cell size 1.0.
        let glitch_a = Point::new(1e18, 1e18);
        let glitch_b = Point::new(1.5e18, 1.5e18);
        let normal = Point::new(3.0, 4.0);
        LocalityIndex::insert(&mut g, 0, glitch_a);
        LocalityIndex::insert(&mut g, 1, glitch_b);
        LocalityIndex::insert(&mut g, 2, normal);
        // A local query never sees the glitches.
        let near: Vec<usize> = g
            .query_radius(&Point::new(3.0, 4.0), 5.0)
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        assert_eq!(near, vec![2]);
        // A query centred on a glitch finds exactly the glitches in range
        // (both clamp to the same border cell; the distance filter decides).
        let at_glitch: Vec<usize> = g
            .query_radius(&glitch_a, 1e18)
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        assert_eq!(at_glitch, vec![0, 1]);
        // And the glitches can be removed again.
        assert!(LocalityIndex::remove(&mut g, 0, &glitch_a));
        assert!(LocalityIndex::remove(&mut g, 1, &glitch_b));
        assert_eq!(LocalityIndex::len(&g), 1);
    }

    #[test]
    fn query_radius_into_reuses_buffer_capacity() {
        let pts = random_points(300, 12);
        let g = HashGrid::from_entries(50.0, pts.iter().copied().enumerate());
        let mut buf = Vec::new();
        g.query_radius_into(&Point::new(0.0, 0.0), 400.0, &mut buf);
        assert_eq!(buf.len(), 300);
        let cap = buf.capacity();
        g.query_radius_into(&Point::new(0.0, 0.0), 1.0, &mut buf);
        assert!(buf.len() < 300);
        assert_eq!(buf.capacity(), cap);
    }

    #[test]
    fn queries_far_from_the_origin_match_brute_force() {
        // Projected coordinates (UTM-style ~1e7) with metre-scale cells: the
        // discrepancy between cell assignment and row-band geometry reaches
        // many ulps here, which the magnitude-scaled clipping slack must
        // absorb (a fixed cell-relative slack silently dropped neighbours).
        let mut rng = StdRng::seed_from_u64(17);
        let origin = Point::new(5.43e6, 9.87e6);
        let pts: Vec<Point> = (0..800)
            .map(|_| {
                Point::new(
                    origin.x + rng.gen_range(-40.0..40.0),
                    origin.y + rng.gen_range(-40.0..40.0),
                )
            })
            .collect();
        let g = HashGrid::from_entries(1.0, pts.iter().copied().enumerate());
        for _ in 0..50 {
            let q = Point::new(
                origin.x + rng.gen_range(-45.0..45.0),
                origin.y + rng.gen_range(-45.0..45.0),
            );
            for radius in [1.0, 3.0, 12.0] {
                let mut got: Vec<usize> = g
                    .query_radius(&q, radius)
                    .into_iter()
                    .map(|(id, _)| id)
                    .collect();
                got.sort_unstable();
                assert_eq!(got, brute_force(&pts, &q, radius), "radius {radius}");
            }
        }
    }

    #[test]
    fn reset_retunes_the_cell_size_to_the_hint() {
        let mut g = HashGrid::with_cell_size(3.0);
        assert_eq!(g.cell_size(), 3.0);
        g.reset(10.0);
        assert_eq!(g.cell_size(), 10.0);
        // Steady churn (the Interchange accept pattern) never changes the
        // cell geometry.
        let mut rng = StdRng::seed_from_u64(33);
        let pts: Vec<Point> = (0..2_000)
            .map(|_| Point::new(rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0)))
            .collect();
        for (i, p) in pts.iter().enumerate() {
            LocalityIndex::insert(&mut g, i, *p);
        }
        for i in 0..2_000 {
            let j = i % pts.len();
            assert!(LocalityIndex::remove(&mut g, j, &pts[j]));
            LocalityIndex::insert(&mut g, j, pts[j]);
        }
        assert_eq!(g.cell_size(), 10.0);
        assert_eq!(LocalityIndex::len(&g), pts.len());
    }

    #[test]
    fn visitation_order_is_stable_for_identical_histories() {
        // Two grids fed the same operation sequence must visit neighbours in
        // the same order — the property the Interchange determinism contract
        // depends on.
        let pts = random_points(500, 21);
        let build = |_: ()| {
            let mut g = HashGrid::with_cell_size(9.0);
            for (i, p) in pts.iter().enumerate() {
                LocalityIndex::insert(&mut g, i, *p);
            }
            for (i, p) in pts.iter().enumerate().take(200) {
                if i % 3 == 0 {
                    assert!(LocalityIndex::remove(&mut g, i, p));
                }
            }
            g
        };
        let (a, b) = (build(()), build(()));
        let center = Point::new(1.0, 2.0);
        let mut seq_a = Vec::new();
        let mut seq_b = Vec::new();
        a.for_each_in_radius(&center, 30.0, |id, _| seq_a.push(id));
        b.for_each_in_radius(&center, 30.0, |id, _| seq_b.push(id));
        assert_eq!(seq_a, seq_b);
        assert!(!seq_a.is_empty());
    }

    proptest::proptest! {
        /// Radius queries agree with a brute-force scan for arbitrary point
        /// sets — including exact duplicates, points exactly on cell
        /// boundaries, and points far beyond the clamped coordinate range —
        /// and arbitrary cell-size/radius combinations.
        #[test]
        fn radius_query_matches_brute_force_prop(
            pts in proptest::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 1..200),
            dup_mask in proptest::collection::vec(proptest::bool::ANY, 1..200),
            boundary_count in 0usize..8,
            glitch_count in 0usize..3,
            qx in -120.0f64..120.0,
            qy in -120.0f64..120.0,
            radius in 0.1f64..80.0,
            cell in 0.05f64..200.0,
            shift in -1.0f64..1.0,
        ) {
            // A large shared offset moves the whole scene far from the
            // origin, exercising the coordinate regime where cell-boundary
            // rounding is many ulps wide.
            let offset = (shift * 3.0).trunc() * 5e6;
            let mut points: Vec<Point> =
                pts.iter().map(|&(x, y)| Point::new(x + offset, y + offset)).collect();
            // Exact duplicates of a prefix of the set.
            for (i, dup) in dup_mask.iter().enumerate() {
                if *dup && i < points.len() {
                    let p = points[i];
                    points.push(p);
                }
            }
            // Points exactly on cell boundaries (integer multiples of the
            // cell size).
            for i in 0..boundary_count {
                points.push(Point::new(offset + cell * i as f64, offset - cell * (i as f64)));
            }
            // Points far outside the clamped coordinate range.
            for i in 0..glitch_count {
                let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
                points.push(Point::new(sign * 3e18, sign * 2e18));
            }
            let grid = HashGrid::from_entries(cell, points.iter().copied().enumerate());
            proptest::prop_assert_eq!(LocalityIndex::len(&grid), points.len());
            let q = Point::new(qx + offset, qy + offset);
            let mut got: Vec<usize> = grid
                .query_radius(&q, radius)
                .into_iter()
                .map(|(id, _)| id)
                .collect();
            got.sort_unstable();
            proptest::prop_assert_eq!(got, brute_force(&points, &q, radius));
        }

        /// After removing an arbitrary subset of entries, the grid contains
        /// exactly the remaining ones.
        #[test]
        fn removal_leaves_exactly_the_remaining_entries(
            pts in proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 1..120),
            removal_mask in proptest::collection::vec(proptest::bool::ANY, 1..120),
            cell in 0.5f64..40.0,
        ) {
            let points: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let mut grid = HashGrid::from_entries(cell, points.iter().copied().enumerate());
            let mut kept = Vec::new();
            for (i, p) in points.iter().enumerate() {
                if removal_mask.get(i).copied().unwrap_or(false) {
                    proptest::prop_assert!(LocalityIndex::remove(&mut grid, i, p));
                } else {
                    kept.push(i);
                }
            }
            proptest::prop_assert_eq!(LocalityIndex::len(&grid), kept.len());
            let mut found: Vec<usize> = grid
                .query_radius(&Point::new(0.0, 0.0), 1_000.0)
                .into_iter()
                .map(|(id, _)| id)
                .collect();
            found.sort_unstable();
            proptest::prop_assert_eq!(found, kept);
        }
    }
}
