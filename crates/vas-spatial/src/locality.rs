//! The [`LocalityIndex`] trait: a pluggable fixed-radius neighbourhood
//! backend.
//!
//! The `ES+Loc` variant of the Interchange algorithm (paper Section IV-B)
//! only ever asks one spatial question: *"which sample points lie within the
//! kernel's effective radius of this location?"* — millions of times, against
//! an index that churns under constant insert/remove replacement traffic.
//! This module captures that access pattern as a trait so the Interchange
//! loop (and the loss estimator in `vas-eval`) can be compiled against any
//! backend:
//!
//! * [`RTree`] — the paper's original choice; good all-rounder, also serves
//!   region and nearest-neighbour queries.
//! * [`HashGrid`] — a dynamic spatial hash over cutoff-sized cells; the
//!   fastest backend for the fixed-radius query the Interchange loop performs
//!   (the bench crate's `timing_gates` holds it to at least 0.9× the
//!   `RTree`'s rejected-candidate throughput).
//!
//! Every backend must produce a **deterministic visitation order** for a
//! given operation history: the Interchange determinism contract
//! (`tests/determinism.rs`) lock-steps the sampler against a reference
//! oracle bit-for-bit, which only holds when both fold neighbours in the
//! same order.
//!
//! The visitor methods take `impl FnMut`, so the trait is not object-safe;
//! runtime backend selection goes through the [`AnyLocalityIndex`] enum
//! instead of trait objects (the dispatch cost is one `match` per query call,
//! not per visited entry).

use crate::{snapshot, GridOccupancy, HashGrid, RTree};
use vas_data::Point;

/// Reusable struct-of-arrays scratch for batch-gather neighbourhood queries
/// ([`LocalityIndex::gather_in_radius_into`]).
///
/// Ids and squared distances live in two parallel flat arrays
/// ([`ids`](Self::ids)`[i]` belongs to [`dist2`](Self::dist2)`[i]`), so a
/// consumer can hand the `dist2` lanes straight to a vectorizable kernel loop
/// (`Kernel::eval_dist2_batch` in `vas-core`) instead of evaluating
/// point-at-a-time inside a visitor callback. The lane order is exactly the
/// backend's deterministic visitation order, which is what keeps the batched
/// Interchange path bit-identical to a scalar fold over the visitor.
///
/// The batch counts its live lanes separately from its storage: the storage
/// only grows when a gather reaches a new high-water mark and is never
/// shrunk, so a reused batch makes the gather allocation-free in the steady
/// state, and the [`HashGrid`] can write every scanned entry at a cursor and
/// keep it by advancing the cursor. Lanes past the live count are stale
/// scratch: neither the accessors nor `Debug` show them.
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

    /// Appends one lane.
    pub(crate) fn push(&mut self, id: usize, dist2: f64) {
        let (ids, d2) = self.spare(1);
        ids[0] = id;
        d2[0] = dist2;
        self.commit(1);
    }

    /// The `m` writable lanes after the live ones, growing the storage only
    /// when `len + m` is a new high-water mark. A writer fills a prefix of
    /// them and then [`commit`](Self::commit)s its length.
    pub(crate) fn spare(&mut self, m: usize) -> (&mut [usize], &mut [f64]) {
        let end = self.len + m;
        if end > self.ids.len() {
            self.ids.resize(end, 0);
            self.dist2.resize(end, 0.0);
        }
        (&mut self.ids[self.len..end], &mut self.dist2[self.len..end])
    }

    /// Makes the first `w` lanes written through [`spare`](Self::spare) live.
    pub(crate) fn commit(&mut self, w: usize) {
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

/// A dynamic index over `(id, Point)` entries answering fixed-radius
/// neighbourhood queries.
///
/// Duplicate ids and duplicate points are permitted (the index is a
/// multiset); [`remove`](Self::remove) deletes one matching entry.
///
/// `Send + Sync` are supertraits: a sampler and its index move onto a
/// shard worker or a catalog-ladder worker, and the loss estimator's probe
/// fan-out shares one index across scoped worker threads, so a backend must
/// be safe to reference concurrently while no `&mut` method runs. Every
/// backend here is plain owned data with no interior mutability, so the
/// bounds are automatic.
pub trait LocalityIndex: Send + Sync {
    /// Number of stored entries.
    fn len(&self) -> usize;

    /// `true` when the index holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes every entry and re-tunes internal geometry to `radius_hint`,
    /// the radius that future [`for_each_in_radius`](Self::for_each_in_radius)
    /// calls will typically use (the [`HashGrid`] sizes its cells from it;
    /// tree backends ignore it). A non-finite or non-positive hint is
    /// replaced by a backend default.
    fn reset(&mut self, radius_hint: f64);

    /// Inserts an entry.
    fn insert(&mut self, id: usize, point: Point);

    /// Removes one entry matching `(id, point)` exactly — bit for bit in
    /// `x`, `y` and `value`, so a point whose `value` is NaN can still be
    /// removed.
    /// Returns `true` if an entry was removed.
    fn remove(&mut self, id: usize, point: &Point) -> bool;

    /// Calls `visit(id, point, dist2)` for every entry within Euclidean
    /// distance `radius` of `center`, without allocating, handing the visitor
    /// the squared distance the traversal already computed for its filter.
    ///
    /// The visitation order is implementation-defined but deterministic for a
    /// given operation history.
    fn for_each_in_radius_with_dist2(
        &self,
        center: &Point,
        radius: f64,
        visit: impl FnMut(usize, &Point, f64),
    );

    /// Writes every entry within Euclidean distance `radius` of `center`
    /// into `out` as struct-of-arrays lanes (`(id, dist2)` pairs split across
    /// two flat buffers), clearing `out` first. Afterwards `out` holds exactly
    /// this query's lanes, whatever it held before.
    ///
    /// The lane order is **exactly** the visitation order of
    /// [`for_each_in_radius_with_dist2`](Self::for_each_in_radius_with_dist2)
    /// — gather-then-batch-evaluate consumers rely on that to reproduce the
    /// scalar visitor path bit-for-bit. Backends may specialize this for a
    /// tighter fill loop (the [`HashGrid`] fills lanes cell-by-cell with a
    /// branch-free cursor), but must preserve the order.
    fn gather_in_radius_into(&self, center: &Point, radius: f64, out: &mut NeighborBatch) {
        out.clear();
        self.for_each_in_radius_with_dist2(center, radius, |id, _, d2| out.push(id, d2));
    }

    /// Clears the index (see [`reset`](Self::reset)) and bulk-loads
    /// `entries`.
    fn rebuild(&mut self, radius_hint: f64, entries: &[(usize, Point)]) {
        self.reset(radius_hint);
        for &(id, p) in entries {
            self.insert(id, p);
        }
    }

    /// Calls `visit(id, point)` for every entry within Euclidean distance
    /// `radius` of `center`, in the order of
    /// [`for_each_in_radius_with_dist2`](Self::for_each_in_radius_with_dist2),
    /// without allocating.
    fn for_each_in_radius(
        &self,
        center: &Point,
        radius: f64,
        mut visit: impl FnMut(usize, &Point),
    ) {
        self.for_each_in_radius_with_dist2(center, radius, |id, p, _| visit(id, p));
    }

    /// Writes all entries within `radius` of `center` into `out`, clearing it
    /// first. The buffer's capacity is retained across calls, so a reused
    /// buffer makes the query allocation-free in the steady state.
    fn query_radius_into(&self, center: &Point, radius: f64, out: &mut Vec<(usize, Point)>) {
        out.clear();
        self.for_each_in_radius(center, radius, |id, p| out.push((id, *p)));
    }

    /// All entries within Euclidean distance `radius` of `center`. Thin
    /// allocating wrapper over [`query_radius_into`](Self::query_radius_into);
    /// hot paths should use the buffer or visitor form.
    fn query_radius(&self, center: &Point, radius: f64) -> Vec<(usize, Point)> {
        let mut out = Vec::new();
        self.query_radius_into(center, radius, &mut out);
        out
    }

    /// Occupancy statistics of the backend's cell decomposition, when it has
    /// one (the [`HashGrid`] does; the tree backends return `None`).
    ///
    /// This is the measurement signal behind the density-adaptive
    /// cell-sizing decision: it reports how full the decomposition actually
    /// is without changing sizing behaviour. The scan is `O(table)`, so
    /// instrumented callers should only take it at phase boundaries, never
    /// inside the query loop.
    fn occupancy_stats(&self) -> Option<GridOccupancy> {
        None
    }
}

/// Which [`LocalityIndex`] implementation a runtime-configured consumer (the
/// Interchange sampler, the benchmark harness) should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LocalityBackend {
    /// Guttman R-tree ([`RTree`]): the paper's original ES+Loc index.
    RTree,
    /// Dynamic spatial hash over cutoff-sized cells ([`HashGrid`]) — the
    /// default, fastest on the Interchange fixed-radius workload.
    #[default]
    HashGrid,
}

impl LocalityBackend {
    /// Every selectable backend, in benchmark-sweep order.
    pub const ALL: [LocalityBackend; 2] = [LocalityBackend::RTree, LocalityBackend::HashGrid];

    /// Stable lower-case label used in CLI flags and benchmark reports.
    pub fn label(&self) -> &'static str {
        match self {
            LocalityBackend::RTree => "rtree",
            LocalityBackend::HashGrid => "hashgrid",
        }
    }
}

impl std::fmt::Display for LocalityBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for LocalityBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "rtree" | "r-tree" => Ok(LocalityBackend::RTree),
            "hashgrid" | "hash-grid" | "grid" => Ok(LocalityBackend::HashGrid),
            other => Err(format!(
                "unknown locality backend {other:?} (expected rtree or hashgrid)"
            )),
        }
    }
}

/// Runtime-selected [`LocalityIndex`]: one `match` per query call dispatches
/// to the concrete backend, after which the inner loop is monomorphic.
#[derive(Debug, Clone)]
pub enum AnyLocalityIndex {
    /// R-tree backend.
    RTree(RTree),
    /// Spatial-hash backend.
    HashGrid(HashGrid),
}

impl AnyLocalityIndex {
    /// Creates an empty index of the chosen backend.
    pub fn new(backend: LocalityBackend) -> Self {
        match backend {
            LocalityBackend::RTree => AnyLocalityIndex::RTree(RTree::new()),
            LocalityBackend::HashGrid => AnyLocalityIndex::HashGrid(HashGrid::new()),
        }
    }

    /// The backend this index dispatches to.
    pub fn backend(&self) -> LocalityBackend {
        match self {
            AnyLocalityIndex::RTree(_) => LocalityBackend::RTree,
            AnyLocalityIndex::HashGrid(_) => LocalityBackend::HashGrid,
        }
    }

    /// Appends a byte-exact snapshot of this index — a backend tag followed
    /// by the backend's own encoding (see [`crate::snapshot`]). A restored
    /// index reproduces the original's future behaviour bit for bit:
    /// visitation orders, insert/remove outcomes, everything the sampler's
    /// per-backend determinism contract observes.
    pub fn snapshot_into(&self, out: &mut Vec<u8>) {
        match self {
            AnyLocalityIndex::RTree(t) => {
                snapshot::put_u8(out, 0);
                t.snapshot_into(out);
            }
            AnyLocalityIndex::HashGrid(g) => {
                snapshot::put_u8(out, 2);
                g.snapshot_into(out);
            }
        }
    }

    /// The snapshot as an owned buffer ([`snapshot_into`](Self::snapshot_into)).
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.snapshot_into(&mut out);
        out
    }

    /// Restores an index from a reader positioned at a
    /// [`snapshot_into`](Self::snapshot_into) encoding.
    pub fn restore_snapshot(
        r: &mut snapshot::SnapshotReader<'_>,
    ) -> Result<Self, snapshot::SnapshotError> {
        match r.take_u8("locality backend tag")? {
            0 => Ok(AnyLocalityIndex::RTree(RTree::restore_snapshot(r)?)),
            2 => Ok(AnyLocalityIndex::HashGrid(HashGrid::restore_snapshot(r)?)),
            other => Err(snapshot::SnapshotError::new(format!(
                "unknown locality backend tag {other}"
            ))),
        }
    }

    /// Restores an index from a buffer that must contain exactly one
    /// snapshot — trailing bytes are rejected.
    pub fn restore(bytes: &[u8]) -> Result<Self, snapshot::SnapshotError> {
        let mut r = snapshot::SnapshotReader::new(bytes);
        let index = Self::restore_snapshot(&mut r)?;
        r.expect_end()?;
        Ok(index)
    }
}

impl Default for AnyLocalityIndex {
    fn default() -> Self {
        Self::new(LocalityBackend::default())
    }
}

impl LocalityIndex for AnyLocalityIndex {
    fn len(&self) -> usize {
        match self {
            AnyLocalityIndex::RTree(t) => LocalityIndex::len(t),
            AnyLocalityIndex::HashGrid(g) => LocalityIndex::len(g),
        }
    }

    fn reset(&mut self, radius_hint: f64) {
        match self {
            AnyLocalityIndex::RTree(t) => t.reset(radius_hint),
            AnyLocalityIndex::HashGrid(g) => g.reset(radius_hint),
        }
    }

    fn insert(&mut self, id: usize, point: Point) {
        match self {
            AnyLocalityIndex::RTree(t) => LocalityIndex::insert(t, id, point),
            AnyLocalityIndex::HashGrid(g) => LocalityIndex::insert(g, id, point),
        }
    }

    fn remove(&mut self, id: usize, point: &Point) -> bool {
        match self {
            AnyLocalityIndex::RTree(t) => LocalityIndex::remove(t, id, point),
            AnyLocalityIndex::HashGrid(g) => LocalityIndex::remove(g, id, point),
        }
    }

    fn for_each_in_radius_with_dist2(
        &self,
        center: &Point,
        radius: f64,
        visit: impl FnMut(usize, &Point, f64),
    ) {
        match self {
            AnyLocalityIndex::RTree(t) => t.for_each_in_radius_with_dist2(center, radius, visit),
            AnyLocalityIndex::HashGrid(g) => g.for_each_in_radius_with_dist2(center, radius, visit),
        }
    }

    fn gather_in_radius_into(&self, center: &Point, radius: f64, out: &mut NeighborBatch) {
        match self {
            AnyLocalityIndex::RTree(t) => t.gather_in_radius_into(center, radius, out),
            AnyLocalityIndex::HashGrid(g) => g.gather_in_radius_into(center, radius, out),
        }
    }

    fn occupancy_stats(&self) -> Option<GridOccupancy> {
        match self {
            AnyLocalityIndex::RTree(t) => LocalityIndex::occupancy_stats(t),
            AnyLocalityIndex::HashGrid(g) => LocalityIndex::occupancy_stats(g),
        }
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
            .map(|_| Point::new(rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0)))
            .collect()
    }

    /// Compile-time audit: every backend (and the runtime-dispatch enum)
    /// must be shareable across the scoped worker threads of the parallel
    /// subsystem. A backend gaining an `Rc`/`RefCell` field would turn this
    /// into a compile error rather than a distant trait-bound failure.
    #[test]
    fn every_backend_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::RTree>();
        assert_send_sync::<crate::HashGrid>();
        assert_send_sync::<AnyLocalityIndex>();
    }

    #[test]
    fn backend_labels_round_trip() {
        for backend in LocalityBackend::ALL {
            let parsed: LocalityBackend = backend.label().parse().unwrap();
            assert_eq!(parsed, backend);
            assert_eq!(backend.to_string(), backend.label());
        }
        assert!("voronoi".parse::<LocalityBackend>().is_err());
        assert_eq!(LocalityBackend::default(), LocalityBackend::HashGrid);
    }

    #[test]
    fn every_backend_answers_radius_queries_identically_as_a_set() {
        let pts = random_points(400, 9);
        let center = Point::new(3.0, -7.0);
        let radius = 12.0;
        let mut expected: Vec<usize> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| p.dist(&center) <= radius)
            .map(|(i, _)| i)
            .collect();
        expected.sort_unstable();
        assert!(!expected.is_empty());
        for backend in LocalityBackend::ALL {
            let mut index = AnyLocalityIndex::new(backend);
            assert_eq!(index.backend(), backend);
            index.rebuild(radius, &pts.iter().copied().enumerate().collect::<Vec<_>>());
            assert_eq!(index.len(), pts.len());
            let mut got: Vec<usize> = index
                .query_radius(&center, radius)
                .into_iter()
                .map(|(id, _)| id)
                .collect();
            got.sort_unstable();
            assert_eq!(got, expected, "backend {backend}");
        }
    }

    #[test]
    fn every_backend_supports_churn_and_reset() {
        let pts = random_points(200, 11);
        for backend in LocalityBackend::ALL {
            let mut index = AnyLocalityIndex::new(backend);
            for (i, p) in pts.iter().enumerate() {
                index.insert(i, *p);
            }
            // Remove half the entries.
            for (i, p) in pts.iter().enumerate() {
                if i % 2 == 0 {
                    assert!(index.remove(i, p), "backend {backend}: remove {i}");
                }
            }
            assert_eq!(index.len(), pts.len() / 2, "backend {backend}");
            // Removed entries are gone, kept entries still found.
            let found: Vec<usize> = index
                .query_radius(&Point::new(0.0, 0.0), 1_000.0)
                .into_iter()
                .map(|(id, _)| id)
                .collect();
            assert!(found.iter().all(|id| id % 2 == 1), "backend {backend}");
            assert_eq!(found.len(), pts.len() / 2, "backend {backend}");
            // Reset empties the index and it stays usable.
            index.reset(5.0);
            assert!(index.is_empty(), "backend {backend}");
            index.insert(7, Point::new(1.0, 1.0));
            assert_eq!(index.len(), 1, "backend {backend}");
        }
    }

    #[test]
    fn visitor_buffer_and_allocating_queries_agree_per_backend() {
        let pts = random_points(300, 13);
        let center = Point::new(-4.0, 4.0);
        for backend in LocalityBackend::ALL {
            let mut index = AnyLocalityIndex::new(backend);
            index.rebuild(8.0, &pts.iter().copied().enumerate().collect::<Vec<_>>());
            let allocated = index.query_radius(&center, 8.0);
            let mut buf = Vec::new();
            index.query_radius_into(&center, 8.0, &mut buf);
            assert_eq!(buf, allocated, "backend {backend}");
            let mut visited = Vec::new();
            index.for_each_in_radius(&center, 8.0, |id, p| visited.push((id, *p)));
            assert_eq!(visited, allocated, "backend {backend}");
            let mut with_d2 = Vec::new();
            index.for_each_in_radius_with_dist2(&center, 8.0, |id, p, d2| {
                assert!((d2 - p.dist2(&center)).abs() < 1e-12);
                with_d2.push((id, *p));
            });
            assert_eq!(with_d2, allocated, "backend {backend}");
        }
    }

    #[test]
    fn every_backend_removes_entries_whose_value_is_nan() {
        let p = Point::with_value(1.0, 2.0, f64::NAN);
        for backend in LocalityBackend::ALL {
            let mut index = AnyLocalityIndex::new(backend);
            index.reset(1.0);
            index.insert(3, p);
            assert!(index.remove(3, &p), "backend {backend}");
            assert!(index.is_empty(), "backend {backend}");
        }
    }

    /// Full observable state of a radius query: ids, point bits and distance
    /// bits, **in visitation order**.
    fn query_trace(
        index: &AnyLocalityIndex,
        center: &Point,
        radius: f64,
    ) -> Vec<(usize, [u64; 4])> {
        let mut out = Vec::new();
        index.for_each_in_radius_with_dist2(center, radius, |id, p, d2| {
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
    /// restored index is not merely set-equal to the original — it must
    /// reproduce the original's **future behaviour** exactly, because the
    /// per-backend determinism contract pins visitation order, and order is
    /// history-dependent state. So after snapshot/restore, both copies are
    /// driven through an identical gauntlet of interleaved churn and
    /// queries, and every visitation sequence must match bit for bit.
    #[test]
    fn snapshot_restore_reproduces_future_behaviour_per_backend() {
        let radius = 7.0;
        let centers = [
            Point::new(0.0, 0.0),
            Point::new(13.0, -22.0),
            Point::new(-40.0, 40.0),
        ];
        for backend in LocalityBackend::ALL {
            let pts = random_points(500, 17);
            let mut original = AnyLocalityIndex::new(backend);
            original.reset(radius);
            // History with churn: bulk insert, then remove a third — the
            // removals leave tombstones / drained cells / underflow repairs
            // behind, which is exactly the state a naive rebuild would lose.
            for (i, p) in pts.iter().enumerate() {
                original.insert(i, *p);
            }
            for (i, p) in pts.iter().enumerate() {
                if i % 3 == 0 {
                    assert!(original.remove(i, p), "backend {backend}: remove {i}");
                }
            }

            let bytes = original.snapshot();
            let mut restored = AnyLocalityIndex::restore(&bytes).expect("restore");
            assert_eq!(restored.backend(), backend);
            assert_eq!(restored.len(), original.len(), "backend {backend}");

            // Identical futures: alternate churn and queries on both copies.
            let future = random_points(300, 23);
            for (step, p) in future.iter().enumerate() {
                let id = 1_000 + step;
                original.insert(id, *p);
                restored.insert(id, *p);
                if step % 5 == 0 {
                    let victim = step % pts.len();
                    let a = original.remove(victim, &pts[victim]);
                    let b = restored.remove(victim, &pts[victim]);
                    assert_eq!(a, b, "backend {backend}: remove outcome at step {step}");
                }
                if step % 7 == 0 {
                    for center in &centers {
                        assert_eq!(
                            query_trace(&original, center, radius),
                            query_trace(&restored, center, radius),
                            "backend {backend}: query trace diverged at step {step}"
                        );
                    }
                }
            }
            assert_eq!(restored.len(), original.len(), "backend {backend}");
            for center in &centers {
                for r in [0.5, radius, 60.0] {
                    assert_eq!(
                        query_trace(&original, center, r),
                        query_trace(&restored, center, r),
                        "backend {backend}: final trace, radius {r}"
                    );
                }
            }
        }
    }

    /// `-0.0`, subnormal coordinates and NaN values must survive the
    /// snapshot byte-exactly (the sampler compares sample bits).
    #[test]
    fn snapshot_preserves_special_float_bits_per_backend() {
        let specials = [
            Point::with_value(-0.0, 5e-324, f64::NAN),
            Point::with_value(f64::MIN_POSITIVE, -f64::MIN_POSITIVE, -0.0),
            Point::with_value(1e-308, -1e-308, f64::INFINITY),
        ];
        for backend in LocalityBackend::ALL {
            let mut index = AnyLocalityIndex::new(backend);
            index.reset(1.0);
            for (i, p) in specials.iter().enumerate() {
                index.insert(i, *p);
            }
            let restored = AnyLocalityIndex::restore(&index.snapshot()).expect("restore");
            let trace = query_trace(&restored, &Point::new(0.0, 0.0), 1.0);
            assert_eq!(
                trace,
                query_trace(&index, &Point::new(0.0, 0.0), 1.0),
                "backend {backend}"
            );
            assert!(!trace.is_empty(), "backend {backend}");
        }
    }

    #[test]
    fn snapshot_decode_rejects_malformed_bytes() {
        let mut index = AnyLocalityIndex::new(LocalityBackend::HashGrid);
        index.reset(2.0);
        for (i, p) in random_points(50, 31).iter().enumerate() {
            index.insert(i, *p);
        }
        let bytes = index.snapshot();

        // Truncation anywhere strictly inside the buffer fails.
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                AnyLocalityIndex::restore(&bytes[..cut]).is_err(),
                "cut at {cut} accepted"
            );
        }
        // Unknown backend tags, including the retired k-d tree tag 1.
        for tag in [1, 9] {
            let mut bad = bytes.clone();
            bad[0] = tag;
            let err = AnyLocalityIndex::restore(&bad).unwrap_err();
            assert!(
                err.to_string().contains("unknown locality backend tag"),
                "{err}"
            );
        }
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        let err = AnyLocalityIndex::restore(&long).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
        // The pristine buffer still restores.
        assert!(AnyLocalityIndex::restore(&bytes).is_ok());
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
    fn visitor_lanes(index: &AnyLocalityIndex, center: &Point, radius: f64) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        index.for_each_in_radius_with_dist2(center, radius, |id, _, d2| {
            out.push((id, d2.to_bits()));
        });
        out
    }

    #[test]
    fn batch_gather_matches_the_visitor_lane_for_lane_per_backend() {
        // The contract the batched kernel path is built on: the SoA gather
        // must reproduce the visitor's (id, dist2) sequence bit-for-bit, in
        // the same order, on every backend — including after churn, and when
        // the reused batch previously held a larger result.
        let pts = random_points(400, 29);
        for backend in LocalityBackend::ALL {
            let mut index = AnyLocalityIndex::new(backend);
            index.rebuild(9.0, &pts.iter().copied().enumerate().collect::<Vec<_>>());
            for (i, p) in pts.iter().enumerate().take(150) {
                if i % 4 == 0 {
                    assert!(index.remove(i, p), "backend {backend}");
                }
            }
            let mut batch = NeighborBatch::new();
            for (radius, center) in [
                (9.0, Point::new(2.0, -3.0)),
                (25.0, Point::new(-10.0, 10.0)),
                (0.5, Point::new(0.0, 0.0)),
            ] {
                let visited = visitor_lanes(&index, &center, radius);
                index.gather_in_radius_into(&center, radius, &mut batch);
                assert_eq!(batch.len(), visited.len(), "backend {backend}");
                assert_eq!(batch.is_empty(), visited.is_empty(), "backend {backend}");
                assert_eq!(lanes(&batch), visited, "backend {backend}, radius {radius}");
            }
        }
    }

    #[test]
    fn reused_batch_reports_only_the_new_lanes_per_backend() {
        // Many lanes, then few, then none: the storage keeps its high-water
        // lanes, and none of them may leak into a later, shorter result.
        let pts = random_points(400, 37);
        // Centered on an entry, so even the zero radius keeps one lane.
        let center = pts[0];
        for backend in LocalityBackend::ALL {
            let mut index = AnyLocalityIndex::new(backend);
            index.rebuild(6.0, &pts.iter().copied().enumerate().collect::<Vec<_>>());
            let mut batch = NeighborBatch::new();
            let mut sizes = Vec::new();
            for (radius, query) in [
                (60.0, center),
                (6.0, center),
                (0.0, center),
                (5.0, Point::new(1e6, 1e6)),
            ] {
                index.gather_in_radius_into(&query, radius, &mut batch);
                let expected = visitor_lanes(&index, &query, radius);
                assert_eq!(
                    lanes(&batch),
                    expected,
                    "backend {backend}, radius {radius}"
                );
                sizes.push(batch.len());
            }
            assert!(
                sizes[0] > sizes[1] && sizes[1] > sizes[2] && sizes[2] > 0 && sizes[3] == 0,
                "backend {backend}: lane counts {sizes:?}"
            );
            assert_eq!(
                format!("{batch:?}"),
                format!("{:?}", NeighborBatch::new()),
                "backend {backend}: Debug shows stale lanes"
            );
        }
    }

    proptest::proptest! {
        /// After random insert/remove churn — which reorders cells through
        /// `swap_remove` — the gather's `(id, dist2 bits)` lanes equal the
        /// visitor sequence at half, one and two cell sizes, and at a radius
        /// wide enough to take the grid's table-scan fallback.
        #[test]
        fn gather_matches_the_visitor_after_churn_per_backend(
            ops in proptest::collection::vec(
                (proptest::bool::ANY, -30.0f64..30.0, -30.0f64..30.0, 0usize..1_000),
                1..300,
            ),
            cell in 0.5f64..8.0,
            qx in -30.0f64..30.0,
            qy in -30.0f64..30.0,
        ) {
            for backend in LocalityBackend::ALL {
                let mut index = AnyLocalityIndex::new(backend);
                index.reset(cell);
                let mut live: Vec<(usize, Point)> = Vec::new();
                for (step, &(insert, x, y, pick)) in ops.iter().enumerate() {
                    if insert || live.is_empty() {
                        let p = Point::with_value(x, y, step as f64);
                        index.insert(step, p);
                        live.push((step, p));
                    } else {
                        let (id, p) = live.swap_remove(pick % live.len());
                        proptest::prop_assert!(index.remove(id, &p));
                    }
                }
                let center = Point::new(qx, qy);
                let mut batch = NeighborBatch::new();
                for radius in [0.5 * cell, cell, 2.0 * cell, 1e4 * cell] {
                    index.gather_in_radius_into(&center, radius, &mut batch);
                    proptest::prop_assert_eq!(
                        lanes(&batch),
                        visitor_lanes(&index, &center, radius),
                        "backend {}, radius {}", backend, radius
                    );
                }
                if let AnyLocalityIndex::HashGrid(g) = &index {
                    // The widest radius's cell block dwarfs the table.
                    let per_axis = 2.0 * 1e4;
                    proptest::prop_assert!(per_axis * per_axis > 2.0 * g.capacity() as f64);
                }
            }
        }
    }
}
