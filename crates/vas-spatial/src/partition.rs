//! Deterministic spatial shard partitioner derived from the [`HashGrid`]
//! cell decomposition.
//!
//! The sharded sampling subsystem (`vas-core::shard`) splits a point stream
//! into `S` sub-streams, runs one independent Interchange sampler per shard,
//! and merges the shard samples in ordered fan-in. The whole scheme is only
//! deterministic if the *assignment* step is: every point must land on the
//! same shard regardless of how the stream was chunked, which thread saw it,
//! or how many times the source was rescanned. [`ShardPartitioner`]
//! guarantees that by being a **pure per-point function** with no internal
//! state:
//!
//! 1. the point is snapped to a `HashGrid` cell (`floor(coord / cell_size)`,
//!    clamped to ±2³⁰ exactly like the grid itself), then
//! 2. the cell key is mixed through the grid's splitmix64 hash and reduced
//!    modulo the shard count.
//!
//! Mapping *cells*, not raw points, keeps each shard spatially coherent at
//! the cell granularity (neighbours within a kernel cutoff usually share a
//! cell), which is what makes the per-shard `HashGrid` effective; the
//! hash reduction spreads cells evenly so no shard starves.
//!
//! **Totality.** The assignment never fails or branches on data quality:
//! the `f64 → i32` cell-coordinate cast saturates, so `NaN` lands in cell
//! `0`, `±∞` and out-of-clamp coordinates land in the clamp-border cells,
//! and `-0.0` hashes identically to `+0.0`. Garbage input degrades shard
//! *balance*, never determinism.

use crate::HashGrid;
use vas_data::Point;

/// A stateless, deterministic `Point → shard` assignment over the
/// [`HashGrid`] cell decomposition.
///
/// Two partitioners constructed with the same `(shards, cell_size)` are
/// interchangeable: the assignment depends only on those parameters and the
/// point's coordinates, never on observation order, chunking, or thread
/// count. See the [module docs](self) for the contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardPartitioner {
    shards: usize,
    cell_size: f64,
    inv_cell_size: f64,
}

impl ShardPartitioner {
    /// Creates a partitioner mapping points into `shards` shards over cells
    /// of `cell_size` (typically the kernel's effective radius, matching the
    /// per-shard `HashGrid` geometry). A non-finite or non-positive
    /// `cell_size` is replaced by the grid's default, exactly as
    /// [`HashGrid::with_cell_size`] would.
    ///
    /// # Panics
    /// Panics when `shards == 0`.
    pub fn new(shards: usize, cell_size: f64) -> Self {
        assert!(shards > 0, "shard count must be at least 1");
        let cell_size = HashGrid::sanitize_cell_size(cell_size);
        Self {
            shards,
            cell_size,
            inv_cell_size: 1.0 / cell_size,
        }
    }

    /// Number of shards points are assigned into.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The (sanitized) cell size of the underlying decomposition.
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    /// The grid cell `point` falls into — identical to the cell a
    /// [`HashGrid`] with the same cell size would use.
    pub fn cell_of(&self, point: &Point) -> (i32, i32) {
        (
            HashGrid::coord(point.x * self.inv_cell_size),
            HashGrid::coord(point.y * self.inv_cell_size),
        )
    }

    /// The shard `point` is assigned to, in `0..shards()`. Total: every
    /// representable point (including `NaN`/`±∞` coordinates) gets a shard.
    pub fn shard_of(&self, point: &Point) -> usize {
        HashGrid::hash_key(self.cell_of(point)) % self.shards
    }

    /// Appends each point of `chunk` to `parts[shard_of(point)]`, preserving
    /// stream order within every shard. `parts` must hold exactly
    /// [`shards()`](Self::shards) buckets; existing contents are kept, so a
    /// caller can scatter a whole stream chunk by chunk.
    pub fn scatter_chunk(&self, chunk: &[Point], parts: &mut [Vec<Point>]) {
        assert_eq!(
            parts.len(),
            self.shards,
            "scatter_chunk needs one bucket per shard"
        );
        for p in chunk {
            parts[self.shard_of(p)].push(*p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points() -> Vec<Point> {
        let mut pts = Vec::new();
        for i in 0..40 {
            for j in 0..40 {
                pts.push(Point::with_value(
                    i as f64 * 0.73 - 10.0,
                    j as f64 * 0.51 - 7.0,
                    (i * 40 + j) as f64,
                ));
            }
        }
        pts
    }

    #[test]
    fn zero_shards_is_rejected() {
        let result = std::panic::catch_unwind(|| ShardPartitioner::new(0, 1.0));
        assert!(result.is_err(), "shards == 0 must panic");
    }

    #[test]
    fn assignment_is_total_and_in_range() {
        let part = ShardPartitioner::new(4, 0.9);
        let specials = [
            Point::new(f64::NAN, f64::NAN),
            Point::new(f64::NAN, 3.0),
            Point::new(f64::INFINITY, f64::NEG_INFINITY),
            Point::new(-0.0, -0.0),
            Point::new(0.0, 0.0),
            Point::new(1e300, -1e300),
            Point::new(f64::MAX, f64::MIN),
        ];
        for p in specials.iter().chain(grid_points().iter()) {
            assert!(part.shard_of(p) < 4, "shard out of range for {p:?}");
        }
    }

    #[test]
    fn negative_zero_matches_positive_zero() {
        let part = ShardPartitioner::new(7, 0.3);
        assert_eq!(part.cell_of(&Point::new(-0.0, -0.0)), (0, 0));
        assert_eq!(
            part.shard_of(&Point::new(-0.0, 0.0)),
            part.shard_of(&Point::new(0.0, -0.0)),
        );
    }

    #[test]
    fn out_of_clamp_coordinates_land_in_border_cells() {
        let part = ShardPartitioner::new(3, 1.0);
        let limit = 1i32 << 30;
        assert_eq!(part.cell_of(&Point::new(1e300, -1e300)), (limit, -limit));
        assert_eq!(
            part.cell_of(&Point::new(f64::INFINITY, f64::NEG_INFINITY)),
            (limit, -limit)
        );
        // NaN saturates to 0 — the same cell as the origin.
        assert_eq!(part.cell_of(&Point::new(f64::NAN, f64::NAN)), (0, 0));
        // Border cells are still valid shard inputs.
        assert!(part.shard_of(&Point::new(1e300, 1e300)) < 3);
    }

    #[test]
    fn all_points_in_one_cell_map_to_one_shard() {
        // cell_size 100 ⇒ every point below fits in cell (0, 0): one shard
        // receives everything, the others are legitimately empty.
        let part = ShardPartitioner::new(4, 100.0);
        let pts: Vec<Point> = (0..50)
            .map(|i| Point::new(i as f64 * 0.1, i as f64 * 0.2))
            .collect();
        let first = part.shard_of(&pts[0]);
        for p in &pts {
            assert_eq!(part.cell_of(p), (0, 0));
            assert_eq!(part.shard_of(p), first);
        }
    }

    #[test]
    fn empty_shards_are_allowed() {
        // More shards than occupied cells forces some shards empty; the
        // scatter must still produce a bucket per shard and lose nothing.
        let part = ShardPartitioner::new(16, 1.0);
        let pts = [Point::new(0.5, 0.5), Point::new(0.6, 0.4)];
        let mut parts: Vec<Vec<Point>> = (0..16).map(|_| Vec::new()).collect();
        part.scatter_chunk(&pts, &mut parts);
        let total: usize = parts.iter().map(Vec::len).sum();
        assert_eq!(total, pts.len());
        assert!(parts.iter().filter(|b| b.is_empty()).count() >= 14);
    }

    #[test]
    fn assignment_is_stable_across_calls_chunkings_and_instances() {
        let part = ShardPartitioner::new(4, 0.8);
        let pts = grid_points();
        let reference: Vec<usize> = pts.iter().map(|p| part.shard_of(p)).collect();

        // Rescan (same instance, e.g. after a source `reset`).
        let rescan: Vec<usize> = pts.iter().map(|p| part.shard_of(p)).collect();
        assert_eq!(reference, rescan, "rescan must not move any point");

        // A fresh instance with the same parameters agrees.
        let twin = ShardPartitioner::new(4, 0.8);
        let from_twin: Vec<usize> = pts.iter().map(|p| twin.shard_of(p)).collect();
        assert_eq!(reference, from_twin, "assignment must be instance-free");

        // Chunking must not matter: scatter in chunks of 1, 7, and all-at-
        // once and compare the resulting buckets.
        let mut whole: Vec<Vec<Point>> = (0..4).map(|_| Vec::new()).collect();
        part.scatter_chunk(&pts, &mut whole);
        for chunk_len in [1usize, 7] {
            let mut chunked: Vec<Vec<Point>> = (0..4).map(|_| Vec::new()).collect();
            for chunk in pts.chunks(chunk_len) {
                part.scatter_chunk(chunk, &mut chunked);
            }
            assert_eq!(whole, chunked, "chunk size {chunk_len} changed a shard");
        }
    }

    #[test]
    fn matches_hashgrid_cell_geometry() {
        // The partitioner must agree with the grid it is derived from, so a
        // shard's points stay cell-coherent in that shard's own HashGrid.
        let part = ShardPartitioner::new(2, 0.37);
        let mut grid = HashGrid::with_cell_size(0.37);
        for (i, p) in grid_points().iter().enumerate() {
            grid.insert(i, *p);
            assert_eq!(part.cell_of(p), grid.cell_of(p));
        }
    }

    #[test]
    fn sanitizes_degenerate_cell_sizes() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let part = ShardPartitioner::new(2, bad);
            assert!(part.cell_size().is_finite() && part.cell_size() > 0.0);
            assert!(part.shard_of(&Point::new(1.0, 2.0)) < 2);
        }
    }
}
