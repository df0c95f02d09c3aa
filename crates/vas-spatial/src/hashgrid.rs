//! A dynamic spatial hash over cutoff-sized cells: the locality index of
//! the `ES+Loc` Interchange variant.
//!
//! `ES+Loc` (paper Section IV-B) asks its index one question, millions of
//! times, against a sample that churns under constant insert/remove
//! replacement traffic: *"which sample points lie within the kernel's
//! cutoff radius of this location?"* The paper answers it with an R-tree;
//! any exact range index gives the same sample. A uniform grid with cells
//! sized to the cutoff radius answers the fixed-radius query with no tree
//! descent and no bounding-box arithmetic: a query walks a small block of
//! cells, each a flat run of candidates, clipped per row to the query
//! circle. [`HashGrid::reset`] sizes cells at the hinted radius exactly: a
//! query then probes at most a 3×3 block (~7 cells after row clipping) and
//! scans ≈ `πr² + 4rc` worth of entries, robust across sample densities
//! from sparse (K = 500, ~1 entry per cell — probe-bound) to dense
//! (K = 10K, dozens per cell — scan-bound). Measured against an R-tree on
//! 1M-point builds (Geolife at K = 5000, a Gaussian mixture at K = 1000),
//! the grid was as fast or faster and gave the same samples bit for bit.
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
//! * Each cell stores its entries as **columns**: ids, `x`s, `y`s and
//!   values, four contiguous runs in one allocation. The radius scan reads
//!   only the three it needs, each contiguous, instead of striding over
//!   32-byte `(id, Point)` rows; the values are read back only to hand a
//!   visitor its point, to match a removal bit for bit, and to write a
//!   snapshot.
//! * The batch gather ([`HashGrid::gather_in_radius_into`]) has no
//!   data-dependent branch and no per-cell allocation: for each entry it
//!   writes the id and `d2` at a cursor into the batch's spare lanes and
//!   advances the cursor by `(d2 <= r²) as usize`, so an out-of-radius
//!   entry is simply overwritten by the next one. The batch's storage grows
//!   only at a new high-water mark.
//! * `insert`/`remove` are O(1) amortized: removal `swap_remove`s within the
//!   cell's columns, and a drained cell keeps its slot (and its columns'
//!   capacity) instead of leaving a tombstone — probe chains never break, and
//!   the periodic table growth is the garbage-collection moment at which
//!   drained cells are dropped.
//! * Queries whose cell range would exceed the table size fall back to a
//!   table scan, so a pathologically wide radius degrades to the brute-force
//!   cost instead of iterating empty cells forever.
//!
//! Visitation order — row-major over the queried cell block, insertion order
//! (as modified by `swap_remove`) within a cell — is deterministic for a
//! given operation history. The Interchange determinism contract
//! (`tests/determinism.rs`) lock-steps the sampler against a reference
//! oracle bit for bit, which only holds when both fold neighbours in the
//! same order.

use crate::snapshot;
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

/// Reusable struct-of-arrays scratch for batch-gather neighbourhood queries
/// ([`HashGrid::gather_in_radius_into`]).
///
/// Ids and squared distances live in two parallel flat arrays
/// ([`ids`](Self::ids)`[i]` belongs to [`dist2`](Self::dist2)`[i]`), so a
/// consumer can hand the `dist2` lanes straight to a vectorizable kernel loop
/// (`Kernel::eval_dist2_batch` in `vas-core`) instead of evaluating
/// point-at-a-time inside a visitor callback. The lane order is exactly the
/// grid's deterministic visitation order, which is what keeps the batched
/// Interchange path bit-identical to a scalar fold over the visitor.
///
/// The batch counts its live lanes separately from its storage: the storage
/// only grows when a gather reaches a new high-water mark and is never
/// shrunk, so a reused batch makes the gather allocation-free in the steady
/// state, and the grid can write every scanned entry at a cursor and keep it
/// by advancing the cursor. Lanes past the live count are stale scratch:
/// neither the accessors nor `Debug` show them.
#[derive(Clone, Default)]
pub struct NeighborBatch {
    ids: Vec<usize>,
    dist2: Vec<f64>,
    len: usize,
}

impl NeighborBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Removes all lanes, keeping the storage.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Number of gathered lanes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no lanes are gathered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entry ids, in visitation order.
    pub fn ids(&self) -> &[usize] {
        &self.ids[..self.len]
    }

    /// Squared distance of each entry to the query center, lane-parallel to
    /// [`ids`](Self::ids).
    pub fn dist2(&self) -> &[f64] {
        &self.dist2[..self.len]
    }

    /// The `m` writable lanes after the live ones, growing the storage only
    /// when `len + m` is a new high-water mark. A writer fills a prefix of
    /// them and then [`commit`](Self::commit)s its length.
    fn spare(&mut self, m: usize) -> (&mut [usize], &mut [f64]) {
        let end = self.len + m;
        if end > self.ids.len() {
            self.ids.resize(end, 0);
            self.dist2.resize(end, 0.0);
        }
        (&mut self.ids[self.len..end], &mut self.dist2[self.len..end])
    }

    /// Makes the first `w` lanes written through [`spare`](Self::spare) live.
    fn commit(&mut self, w: usize) {
        debug_assert!(self.len + w <= self.ids.len());
        self.len += w;
    }
}

impl std::fmt::Debug for NeighborBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NeighborBatch")
            .field("ids", &self.ids())
            .field("dist2", &self.dist2())
            .finish()
    }
}

/// Entries a cell has room for when its first entry arrives.
const FRESH_CELL_CAPACITY: usize = 4;

/// One cell's entries as four columns in a single allocation: `cols` holds
/// `cap` ids, then the bits of `cap` `x`s, `cap` `y`s and `cap` values, and
/// the first `len` of each column are live. Entry `k` is
/// `(ids[k], Point { x: xs[k], y: ys[k], value: values[k] })`. The gather
/// reads only the id, `x` and `y` columns; the values are read back only by
/// the visitor, `remove` and the snapshot codec. A cell allocates once per
/// growth, not once per column, which keeps grid construction (mostly
/// fresh cells) cheap; [`HashGrid::from_entries`] sizes each cell once.
#[derive(Debug, Clone, Default)]
struct Cell {
    cols: Vec<u64>,
    len: usize,
}

impl Cell {
    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn cap(&self) -> usize {
        self.cols.len() / 4
    }

    /// The live parts of the four columns: ids, `x` bits, `y` bits and
    /// value bits.
    #[inline]
    fn columns(&self) -> [&[u64]; 4] {
        let (cap, len) = (self.cap(), self.len);
        let (ids, rest) = self.cols.split_at(cap);
        let (xs, rest) = rest.split_at(cap);
        let (ys, values) = rest.split_at(cap);
        [&ids[..len], &xs[..len], &ys[..len], &values[..len]]
    }

    fn push(&mut self, id: usize, p: Point) {
        if self.len == self.cap() {
            self.resize((2 * self.cap()).max(FRESH_CELL_CAPACITY));
        }
        let (cap, k) = (self.cap(), self.len);
        let entry = [id as u64, p.x.to_bits(), p.y.to_bits(), p.value.to_bits()];
        for (c, bits) in entry.into_iter().enumerate() {
            self.cols[c * cap + k] = bits;
        }
        self.len += 1;
    }

    /// Moves the live entries into one new allocation with room for `cap`
    /// entries (at least `len`).
    fn resize(&mut self, cap: usize) {
        let old = self.cap();
        let mut cols = vec![0; 4 * cap];
        for c in 0..4 {
            cols[c * cap..c * cap + self.len]
                .copy_from_slice(&self.cols[c * old..c * old + self.len]);
        }
        self.cols = cols;
    }

    /// Removes entry `k`, moving the last entry into its place (the order
    /// `Vec::swap_remove` leaves).
    fn swap_remove(&mut self, k: usize) {
        let (cap, last) = (self.cap(), self.len - 1);
        for c in 0..4 {
            self.cols[c * cap + k] = self.cols[c * cap + last];
        }
        self.len = last;
    }

    fn clear(&mut self) {
        self.len = 0;
    }

    /// The entries as `(id, point)` rows, in cell order.
    #[inline]
    fn entries(&self) -> impl Iterator<Item = (usize, Point)> + '_ {
        let [ids, xs, ys, values] = self.columns();
        ids.iter()
            .zip(xs)
            .zip(ys)
            .zip(values)
            .map(|(((&id, &x), &y), &value)| {
                let p =
                    Point::with_value(f64::from_bits(x), f64::from_bits(y), f64::from_bits(value));
                (id as usize, p)
            })
    }
}

/// One open-addressing slot: a cell's integer coordinates plus its entries.
#[derive(Debug, Clone, Default)]
struct Slot {
    key: (i32, i32),
    occupied: bool,
    cell: Cell,
}

/// A dynamic spatial-hash index mapping caller-chosen `usize` identifiers to
/// points, optimized for fixed-radius neighbourhood queries at a known
/// typical radius (the cell size).
///
/// Duplicate ids and points are permitted (the grid is a multiset);
/// [`remove`](Self::remove) deletes one matching entry.
///
/// The grid is plain owned data with no interior mutability, so it is
/// `Send + Sync`: a sampler and its grid move onto a shard worker or a
/// catalog-ladder worker, and the loss estimator's probe fan-out shares one
/// grid across scoped worker threads.
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
    /// [`reset`](Self::reset) (or use
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

    /// Builds a grid from `(id, point)` pairs, inserted in iteration order.
    ///
    /// The entries are walked twice: first to claim every cell and count
    /// its entries, so that each cell is allocated once at its final size,
    /// then to insert them. A bulk build thus never regrows a cell, and a
    /// large grid holds no spare capacity and never holds a cell's old and
    /// new columns at once.
    pub fn from_entries<I>(cell_size: f64, entries: I) -> Self
    where
        I: IntoIterator<Item = (usize, Point)>,
        I::IntoIter: Clone,
    {
        let entries = entries.into_iter();
        let mut grid = Self::with_cell_size(cell_size);
        // The counts live in each cell's `len` until the cell is sized.
        for (_, p) in entries.clone() {
            let i = grid.slot_for_insert(grid.cell_of(&p));
            grid.slots[i].cell.len += 1;
        }
        for slot in &mut grid.slots {
            let count = std::mem::take(&mut slot.cell.len);
            if count > 0 {
                slot.cell.resize(count);
            }
        }
        for (id, p) in entries {
            grid.insert(id, p);
        }
        grid
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the grid holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every entry and sizes the cells at `radius_hint`, the radius
    /// that future queries will typically use. A non-finite or non-positive
    /// hint falls back to 1.0.
    pub fn reset(&mut self, radius_hint: f64) {
        let cell_size = Self::sanitize_cell_size(radius_hint);
        self.cell_size = cell_size;
        self.inv_cell_size = 1.0 / cell_size;
        for slot in &mut self.slots {
            slot.occupied = false;
            slot.cell.clear();
        }
        self.occupied_slots = 0;
        self.nonempty_cells = 0;
        self.len = 0;
    }

    /// Inserts an entry.
    pub fn insert(&mut self, id: usize, point: Point) {
        let key = self.cell_of(&point);
        let i = self.slot_for_insert(key);
        let cell = &mut self.slots[i].cell;
        if cell.is_empty() {
            self.nonempty_cells += 1;
        }
        cell.push(id, point);
        self.len += 1;
    }

    /// Removes one entry matching `(id, point)` exactly — bit for bit in
    /// `x`, `y` and `value`, so a point whose `value` is NaN can still be
    /// removed. Returns `true` if an entry was removed.
    pub fn remove(&mut self, id: usize, point: &Point) -> bool {
        let key = self.cell_of(point);
        let Some(i) = self.find_slot(key) else {
            return false;
        };
        let cell = &mut self.slots[i].cell;
        let Some(pos) = cell
            .entries()
            .position(|(eid, ep)| eid == id && ep.same_bits(point))
        else {
            return false;
        };
        cell.swap_remove(pos);
        if cell.is_empty() {
            self.nonempty_cells -= 1;
        }
        self.len -= 1;
        true
    }

    /// Calls `visit(id, point, dist2)` for every entry within Euclidean
    /// distance `radius` of `center`, without allocating, handing the visitor
    /// the squared distance its filter computed. The visitation order is
    /// deterministic for a given operation history (see the module docs).
    pub fn for_each_in_radius_with_dist2(
        &self,
        center: &Point,
        radius: f64,
        mut visit: impl FnMut(usize, &Point, f64),
    ) {
        let r2 = radius * radius;
        self.for_each_candidate_cell(center, radius, |cell| {
            for (id, p) in cell.entries() {
                let d2 = p.dist2(center);
                if d2 <= r2 {
                    visit(id, &p, d2);
                }
            }
        });
    }

    /// Writes every entry within Euclidean distance `radius` of `center`
    /// into `out` as `(id, dist2)` lanes, clearing `out` first. The lanes
    /// are **exactly** the visitor's
    /// ([`for_each_in_radius_with_dist2`](Self::for_each_in_radius_with_dist2)),
    /// in its order and with its `dist2` bits, which is what lets
    /// gather-then-batch-evaluate consumers reproduce a scalar fold over the
    /// visitor bit for bit.
    pub fn gather_in_radius_into(&self, center: &Point, radius: f64, out: &mut NeighborBatch) {
        out.clear();
        let r2 = radius * radius;
        self.for_each_candidate_cell(center, radius, |cell| {
            // Branch-free lane fill: every entry's id and `d2` are written at
            // the cursor, and the cursor advances only past the ones within
            // the radius, so a rejected entry is overwritten by the next.
            // Same traversal, same `d2` bits and same `d2 <= r²` filter as
            // the visitor path, so lanes land in exactly the visitation
            // order.
            let (ids, dist2) = out.spare(cell.len());
            let mut w = 0;
            let [cell_ids, xs, ys, _] = cell.columns();
            for ((&id, &x), &y) in cell_ids.iter().zip(xs).zip(ys) {
                // `Point::dist2`'s operand order, so the bits match the
                // visitor's `entry.dist2(center)`.
                let dx = f64::from_bits(x) - center.x;
                let dy = f64::from_bits(y) - center.y;
                let d2 = dx * dx + dy * dy;
                ids[w] = id as usize;
                dist2[w] = d2;
                w += (d2 <= r2) as usize;
            }
            out.commit(w);
        });
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
            if slot.occupied && !slot.cell.is_empty() {
                cells_occupied += 1;
                max_points_per_cell = max_points_per_cell.max(slot.cell.len());
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
    /// every cell that can intersect the query circle, in the deterministic
    /// order the visitation contract promises — row-major over the clipped
    /// cell block in the typical case, table order under the wide-radius
    /// fallback. Entries are *not* distance-filtered here; the
    /// caller applies the exact `dist2 <= r²` filter per item.
    fn for_each_candidate_cell(
        &self,
        center: &Point,
        radius: f64,
        mut visit_cell: impl FnMut(&Cell),
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
                        visit_cell(&self.slots[i].cell);
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
                visit_cell(&slot.cell);
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
            if !slot.occupied || slot.cell.is_empty() {
                continue;
            }
            let mut i = Self::hash_key(slot.key) & mask;
            while self.slots[i].occupied {
                i = (i + 1) & mask;
            }
            self.slots[i] = Slot {
                key: slot.key,
                occupied: true,
                cell: slot.cell,
            };
            self.occupied_slots += 1;
        }
    }
}

/// Checkpoint snapshot codec — see [`crate::snapshot`].
impl HashGrid {
    /// Serializes the grid: cell-size bits, entry count, then every entry in
    /// cell-grouped table-scan order.
    ///
    /// The table layout itself (slot positions, drained cells, growth
    /// history) is deliberately **not** stored: replaying the inserts in the
    /// recorded order reproduces each cell's columns exactly, and every
    /// observable traversal — the geometric query path walks cells row-major
    /// by coordinates, per-cell items in insertion order — depends only on
    /// that, not on where cells landed in the open-addressed table.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        snapshot::put_f64(&mut out, self.cell_size);
        snapshot::put_usize(&mut out, self.len);
        for slot in &self.slots {
            if !slot.occupied {
                continue;
            }
            for (id, p) in slot.cell.entries() {
                snapshot::put_usize(&mut out, id);
                snapshot::put_f64(&mut out, p.x);
                snapshot::put_f64(&mut out, p.y);
                snapshot::put_f64(&mut out, p.value);
            }
        }
        out
    }

    /// Restores a grid from [`snapshot`](Self::snapshot) bytes by replaying
    /// the recorded inserts into a fresh table. The buffer must hold exactly
    /// one snapshot: trailing bytes are rejected.
    pub fn restore(bytes: &[u8]) -> Result<Self, snapshot::SnapshotError> {
        let mut r = snapshot::SnapshotReader::new(bytes);
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
            grid.insert(id, Point::with_value(x, y, value));
        }
        r.expect_end()?;
        Ok(grid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        random_points_within(n, seed, 100.0)
    }

    /// `n` seeded points, uniform over `[-half, half)²`.
    fn random_points_within(n: usize, seed: u64, half: f64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen_range(-half..half), rng.gen_range(-half..half)))
            .collect()
    }

    /// The ids the visitor reports within `radius` of `center`, sorted.
    fn ids_within(g: &HashGrid, center: &Point, radius: f64) -> Vec<usize> {
        let mut ids = Vec::new();
        g.for_each_in_radius_with_dist2(center, radius, |id, _, _| ids.push(id));
        ids.sort_unstable();
        ids
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
        assert_eq!(g.len(), 0);
        assert!(ids_within(&g, &Point::new(0.0, 0.0), 10.0).is_empty());
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
            assert_eq!(g.len(), pts.len());
            for radius in [1.0, 10.0, 40.0] {
                let got = ids_within(&g, &center, radius);
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
        let got = ids_within(&g, &center, 150.0);
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
                .ids()
                .iter()
                .zip(batch.dist2())
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
                g.insert(next_id, p);
                reference.push((next_id, p));
                next_id += 1;
            } else {
                let idx = rng.gen_range(0..reference.len());
                let (id, p) = reference.swap_remove(idx);
                assert!(g.remove(id, &p), "step {step}");
            }
            assert_eq!(g.len(), reference.len(), "step {step}");
        }
        let center = Point::new(0.0, 0.0);
        let got = ids_within(&g, &center, 25.0);
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
            g.insert(round, p);
            assert!(g.remove(round, &p));
        }
        assert_eq!(g.capacity(), INITIAL_CAPACITY, "drained cell leaked slots");
        // Touch many distinct cells to force growth; the drained cell is
        // dropped during the rehash.
        for i in 0..200 {
            g.insert(1_000 + i, Point::new(i as f64 * 10.0, 0.0));
        }
        assert_eq!(g.len(), 200);
        assert_eq!(g.occupied_cells(), 200);
        let found = ids_within(&g, &Point::new(995.0, 0.0), 1_000.0);
        assert_eq!(found.len(), 200);
    }

    #[test]
    fn duplicate_points_are_supported() {
        let p = Point::new(1.0, 1.0);
        let mut g = HashGrid::with_cell_size(2.0);
        for id in 0..20 {
            g.insert(id, p);
        }
        assert_eq!(g.len(), 20);
        assert_eq!(ids_within(&g, &p, 0.1).len(), 20);
        assert!(g.remove(7, &p));
        assert_eq!(g.len(), 19);
        assert!(!g.remove(7, &p));
    }

    #[test]
    fn far_out_points_clamp_into_border_cells_without_breaking_queries() {
        let mut g = HashGrid::with_cell_size(1.0);
        // Well beyond the ±2³⁰ clamp at cell size 1.0.
        let glitch_a = Point::new(1e18, 1e18);
        let glitch_b = Point::new(1.5e18, 1.5e18);
        let normal = Point::new(3.0, 4.0);
        g.insert(0, glitch_a);
        g.insert(1, glitch_b);
        g.insert(2, normal);
        // A local query never sees the glitches.
        let near = ids_within(&g, &Point::new(3.0, 4.0), 5.0);
        assert_eq!(near, vec![2]);
        // A query centred on a glitch finds exactly the glitches in range
        // (both clamp to the same border cell; the distance filter decides).
        let at_glitch = ids_within(&g, &glitch_a, 1e18);
        assert_eq!(at_glitch, vec![0, 1]);
        // And the glitches can be removed again.
        assert!(g.remove(0, &glitch_a));
        assert!(g.remove(1, &glitch_b));
        assert_eq!(g.len(), 1);
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
                let got = ids_within(&g, &q, radius);
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
            g.insert(i, *p);
        }
        for i in 0..2_000 {
            let j = i % pts.len();
            assert!(g.remove(j, &pts[j]));
            g.insert(j, pts[j]);
        }
        assert_eq!(g.cell_size(), 10.0);
        assert_eq!(g.len(), pts.len());
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
                g.insert(i, *p);
            }
            for (i, p) in pts.iter().enumerate().take(200) {
                if i % 3 == 0 {
                    assert!(g.remove(i, p));
                }
            }
            g
        };
        let (a, b) = (build(()), build(()));
        let center = Point::new(1.0, 2.0);
        let mut seq_a = Vec::new();
        let mut seq_b = Vec::new();
        a.for_each_in_radius_with_dist2(&center, 30.0, |id, _, _| seq_a.push(id));
        b.for_each_in_radius_with_dist2(&center, 30.0, |id, _, _| seq_b.push(id));
        assert_eq!(seq_a, seq_b);
        assert!(!seq_a.is_empty());
    }

    #[test]
    fn bulk_build_matches_one_insert_at_a_time() {
        // `from_entries` sizes each cell before filling it; the grid it
        // builds must be the one the same inserts build one at a time, down
        // to the snapshot bytes and the gather's lane order. Some cells hold
        // many entries, so the incremental build regrows them.
        let mut pts = random_points(2_000, 5);
        pts.extend((0..300).map(|i| Point::new(1.0 + i as f64 * 1e-3, -2.0)));
        let bulk = HashGrid::from_entries(7.0, pts.iter().copied().enumerate());
        let mut incremental = HashGrid::with_cell_size(7.0);
        for (i, p) in pts.iter().enumerate() {
            incremental.insert(i, *p);
        }
        assert_eq!(bulk.snapshot(), incremental.snapshot());
        let (mut a, mut b) = (NeighborBatch::new(), NeighborBatch::new());
        for center in pts.iter().step_by(97) {
            bulk.gather_in_radius_into(center, 7.0, &mut a);
            incremental.gather_in_radius_into(center, 7.0, &mut b);
            assert_eq!(a.ids(), b.ids());
        }
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
            proptest::prop_assert_eq!(grid.len(), points.len());
            let q = Point::new(qx + offset, qy + offset);
            let got = ids_within(&grid, &q, radius);
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
                    proptest::prop_assert!(grid.remove(i, p));
                } else {
                    kept.push(i);
                }
            }
            proptest::prop_assert_eq!(grid.len(), kept.len());
            let found = ids_within(&grid, &Point::new(0.0, 0.0), 1_000.0);
            proptest::prop_assert_eq!(found, kept);
        }
    }

    /// Compile-time audit: the grid and its gather scratch must be shareable
    /// across the scoped worker threads of the parallel subsystem. A field
    /// gaining an `Rc`/`RefCell` would turn this into a compile error rather
    /// than a distant trait-bound failure.
    #[test]
    fn grid_and_batch_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<HashGrid>();
        assert_send_sync::<NeighborBatch>();
    }

    #[test]
    fn churn_then_reset_leaves_an_empty_usable_grid() {
        let pts = random_points_within(200, 11, 50.0);
        let mut g = HashGrid::new();
        for (i, p) in pts.iter().enumerate() {
            g.insert(i, *p);
        }
        // Remove half the entries.
        for (i, p) in pts.iter().enumerate() {
            if i % 2 == 0 {
                assert!(g.remove(i, p), "remove {i}");
            }
        }
        assert_eq!(g.len(), pts.len() / 2);
        // Removed entries are gone, kept entries still found.
        let found = ids_within(&g, &Point::new(0.0, 0.0), 1_000.0);
        assert!(found.iter().all(|id| id % 2 == 1));
        assert_eq!(found.len(), pts.len() / 2);
        // Reset empties the grid and it stays usable.
        g.reset(5.0);
        assert!(g.is_empty());
        g.insert(7, Point::new(1.0, 1.0));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn removes_entries_whose_value_is_nan() {
        let p = Point::with_value(1.0, 2.0, f64::NAN);
        let mut g = HashGrid::with_cell_size(1.0);
        g.insert(3, p);
        assert!(g.remove(3, &p));
        assert!(g.is_empty());
    }

    /// Full observable state of a radius query: ids, point bits and distance
    /// bits, **in visitation order**.
    fn query_trace(g: &HashGrid, center: &Point, radius: f64) -> Vec<(usize, [u64; 4])> {
        let mut out = Vec::new();
        g.for_each_in_radius_with_dist2(center, radius, |id, p, d2| {
            out.push((
                id,
                [
                    p.x.to_bits(),
                    p.y.to_bits(),
                    p.value.to_bits(),
                    d2.to_bits(),
                ],
            ));
        });
        out
    }

    /// The property the sampler's checkpoint/resume path is built on: a
    /// restored grid is not merely set-equal to the original — it must
    /// reproduce the original's **future behaviour** exactly, because the
    /// determinism contract pins visitation order, and order is
    /// history-dependent state. So after snapshot/restore, both copies are
    /// driven through an identical gauntlet of interleaved churn and
    /// queries, and every visitation sequence must match bit for bit.
    #[test]
    fn snapshot_restore_reproduces_future_behaviour() {
        let radius = 7.0;
        let centers = [
            Point::new(0.0, 0.0),
            Point::new(13.0, -22.0),
            Point::new(-40.0, 40.0),
        ];
        let pts = random_points_within(500, 17, 50.0);
        let mut original = HashGrid::with_cell_size(radius);
        // History with churn: bulk insert, then remove a third — the
        // removals leave reordered and drained cells behind, which is
        // exactly the state a naive rebuild would lose.
        for (i, p) in pts.iter().enumerate() {
            original.insert(i, *p);
        }
        for (i, p) in pts.iter().enumerate() {
            if i % 3 == 0 {
                assert!(original.remove(i, p), "remove {i}");
            }
        }

        let mut restored = HashGrid::restore(&original.snapshot()).expect("restore");
        assert_eq!(restored.len(), original.len());

        // Identical futures: alternate churn and queries on both copies.
        let future = random_points_within(300, 23, 50.0);
        for (step, p) in future.iter().enumerate() {
            let id = 1_000 + step;
            original.insert(id, *p);
            restored.insert(id, *p);
            if step % 5 == 0 {
                let victim = step % pts.len();
                let a = original.remove(victim, &pts[victim]);
                let b = restored.remove(victim, &pts[victim]);
                assert_eq!(a, b, "remove outcome at step {step}");
            }
            if step % 7 == 0 {
                for center in &centers {
                    assert_eq!(
                        query_trace(&original, center, radius),
                        query_trace(&restored, center, radius),
                        "query trace diverged at step {step}"
                    );
                }
            }
        }
        assert_eq!(restored.len(), original.len());
        for center in &centers {
            for r in [0.5, radius, 60.0] {
                assert_eq!(
                    query_trace(&original, center, r),
                    query_trace(&restored, center, r),
                    "final trace, radius {r}"
                );
            }
        }
    }

    /// `-0.0`, subnormal coordinates and NaN values must survive the
    /// snapshot byte-exactly (the sampler compares sample bits).
    #[test]
    fn snapshot_preserves_special_float_bits() {
        let specials = [
            Point::with_value(-0.0, 5e-324, f64::NAN),
            Point::with_value(f64::MIN_POSITIVE, -f64::MIN_POSITIVE, -0.0),
            Point::with_value(1e-308, -1e-308, f64::INFINITY),
        ];
        let mut g = HashGrid::with_cell_size(1.0);
        for (i, p) in specials.iter().enumerate() {
            g.insert(i, *p);
        }
        let restored = HashGrid::restore(&g.snapshot()).expect("restore");
        let trace = query_trace(&restored, &Point::new(0.0, 0.0), 1.0);
        assert_eq!(trace, query_trace(&g, &Point::new(0.0, 0.0), 1.0));
        assert!(!trace.is_empty());
    }

    #[test]
    fn snapshot_decode_rejects_malformed_bytes() {
        let g = HashGrid::from_entries(
            2.0,
            random_points_within(50, 31, 50.0).into_iter().enumerate(),
        );
        let bytes = g.snapshot();

        // Truncation anywhere strictly inside the buffer fails.
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                HashGrid::restore(&bytes[..cut]).is_err(),
                "cut at {cut} accepted"
            );
        }
        // A cell size that is not finite and positive.
        for bad in [f64::NAN, 0.0, -2.0, f64::INFINITY] {
            let mut b = bytes.clone();
            b[..8].copy_from_slice(&bad.to_bits().to_le_bytes());
            let err = HashGrid::restore(&b).unwrap_err();
            assert!(err.to_string().contains("cell size"), "{err}");
        }
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        let err = HashGrid::restore(&long).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
        // The pristine buffer still restores.
        assert!(HashGrid::restore(&bytes).is_ok());
    }

    /// A batch's live lanes as `(id, dist2 bits)` pairs.
    fn lanes(batch: &NeighborBatch) -> Vec<(usize, u64)> {
        assert_eq!(batch.ids().len(), batch.len());
        assert_eq!(batch.dist2().len(), batch.len());
        batch
            .ids()
            .iter()
            .zip(batch.dist2())
            .map(|(&id, d2)| (id, d2.to_bits()))
            .collect()
    }

    /// The visitor's `(id, dist2 bits)` sequence, in visitation order.
    fn visitor_lanes(g: &HashGrid, center: &Point, radius: f64) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        g.for_each_in_radius_with_dist2(center, radius, |id, _, d2| {
            out.push((id, d2.to_bits()));
        });
        out
    }

    #[test]
    fn batch_gather_matches_the_visitor_lane_for_lane() {
        // The contract the batched kernel path is built on: the SoA gather
        // must reproduce the visitor's (id, dist2) sequence bit-for-bit, in
        // the same order — including after churn, and when the reused batch
        // previously held a larger result. The visitor's `dist2` is the
        // entry's squared distance to the center.
        let pts = random_points_within(400, 29, 50.0);
        let mut g = HashGrid::from_entries(9.0, pts.iter().copied().enumerate());
        for (i, p) in pts.iter().enumerate().take(150) {
            if i % 4 == 0 {
                assert!(g.remove(i, p));
            }
        }
        let mut batch = NeighborBatch::new();
        for (radius, center) in [
            (9.0, Point::new(2.0, -3.0)),
            (25.0, Point::new(-10.0, 10.0)),
            (0.5, Point::new(0.0, 0.0)),
        ] {
            g.for_each_in_radius_with_dist2(&center, radius, |_, p, d2| {
                assert_eq!(d2.to_bits(), p.dist2(&center).to_bits());
            });
            let visited = visitor_lanes(&g, &center, radius);
            g.gather_in_radius_into(&center, radius, &mut batch);
            assert_eq!(batch.len(), visited.len());
            assert_eq!(batch.is_empty(), visited.is_empty());
            assert_eq!(lanes(&batch), visited, "radius {radius}");
        }
    }

    #[test]
    fn reused_batch_reports_only_the_new_lanes() {
        // Many lanes, then few, then none: the storage keeps its high-water
        // lanes, and none of them may leak into a later, shorter result.
        let pts = random_points_within(400, 37, 50.0);
        // Centered on an entry, so even the zero radius keeps one lane.
        let center = pts[0];
        let g = HashGrid::from_entries(6.0, pts.iter().copied().enumerate());
        let mut batch = NeighborBatch::new();
        let mut sizes = Vec::new();
        for (radius, query) in [
            (60.0, center),
            (6.0, center),
            (0.0, center),
            (5.0, Point::new(1e6, 1e6)),
        ] {
            g.gather_in_radius_into(&query, radius, &mut batch);
            assert_eq!(
                lanes(&batch),
                visitor_lanes(&g, &query, radius),
                "radius {radius}"
            );
            sizes.push(batch.len());
        }
        assert!(
            sizes[0] > sizes[1] && sizes[1] > sizes[2] && sizes[2] > 0 && sizes[3] == 0,
            "lane counts {sizes:?}"
        );
        assert_eq!(
            format!("{batch:?}"),
            format!("{:?}", NeighborBatch::new()),
            "Debug shows stale lanes"
        );
    }

    proptest::proptest! {
        /// After random insert/remove churn — which reorders cells through
        /// `swap_remove` — the gather's `(id, dist2 bits)` lanes equal the
        /// visitor sequence at half, one and two cell sizes, and at a radius
        /// wide enough to take the table-scan fallback.
        #[test]
        fn gather_matches_the_visitor_after_churn(
            ops in proptest::collection::vec(
                (proptest::bool::ANY, -30.0f64..30.0, -30.0f64..30.0, 0usize..1_000),
                1..300,
            ),
            cell in 0.5f64..8.0,
            qx in -30.0f64..30.0,
            qy in -30.0f64..30.0,
        ) {
            let mut g = HashGrid::with_cell_size(cell);
            let mut live: Vec<(usize, Point)> = Vec::new();
            for (step, &(insert, x, y, pick)) in ops.iter().enumerate() {
                if insert || live.is_empty() {
                    let p = Point::with_value(x, y, step as f64);
                    g.insert(step, p);
                    live.push((step, p));
                } else {
                    let (id, p) = live.swap_remove(pick % live.len());
                    proptest::prop_assert!(g.remove(id, &p));
                }
            }
            let center = Point::new(qx, qy);
            let mut batch = NeighborBatch::new();
            for radius in [0.5 * cell, cell, 2.0 * cell, 1e4 * cell] {
                g.gather_in_radius_into(&center, radius, &mut batch);
                proptest::prop_assert_eq!(
                    lanes(&batch),
                    visitor_lanes(&g, &center, radius),
                    "radius {}", radius
                );
            }
            // The widest radius's cell block dwarfs the table.
            let per_axis = 2.0 * 1e4;
            proptest::prop_assert!(per_axis * per_axis > 2.0 * g.capacity() as f64);
        }
    }
}
