//! The ES+Loc neighbourhood cache: the sample entries around a recent
//! candidate, filed into distance rings, so that a run of nearby candidates
//! can certify their rejections nearest-first without a grid gather each.
//!
//! GPS traces such as the paper's Geolife data arrive in trip order, with
//! consecutive points a small fraction of ε apart. When a candidate lies
//! within `Δ = DELTA·cutoff` of the previous candidate, the cache gathers
//! every sample entry within `reach = cutoff + Δ` of it once. That
//! candidate becomes the *anchor*, and each entry is filed into one of
//! three rings by its distance to the anchor. While later candidates stay
//! within Δ of the anchor, their whole cutoff neighbourhood lies inside
//! `reach`, and [`NeighbourhoodCache::walk`] hands it out ring by ring,
//! nearest ring first, with the same `dist2` bits and the same
//! `dist2 ≤ cutoff²` filter as the index's gather. An accept patches the
//! cache: the replaced slot leaves its ring, and the new point joins the
//! ring its distance gives, if it lies within `reach`.
//!
//! A rejection certified from the rings is sound as long as every lane
//! the walk hands out is a lane of the exact fold: a slot within the cutoff
//! of the candidate, at its current position, once. The patching keeps
//! that true; the proptest
//! `neighbourhood_cache_holds_exactly_the_slots_within_reach` pins it.
//! That the rings also hold *every* slot within `reach` only makes the
//! certificate succeed sooner (see `Certificate` in the Interchange
//! module).
//!
//! The accept step reuses the cache too. When the slot an accept removes
//! lies within Δ of the anchor, its whole cutoff neighbourhood lies inside
//! `reach`, and [`NeighbourhoodCache::lanes_within`] hands out that
//! neighbourhood's `(slot, dist2)` lanes instead of a second grid gather.
//! Here the cache must hold *every* slot within `reach`, not only a subset,
//! and the proptest `cached_lanes_equal_the_gather_wherever_the_cache_covers`
//! pins that the lanes equal the gather's as a set, with the same `dist2`
//! bits. Their order is the rings', not the gather's, and that cannot
//! change a sampled value: each removal lane is one subtraction from its
//! own slot, and no fold runs over them.
//!
//! The cache is derived state. Nothing of it is checkpointed: a resumed
//! build starts without one and builds it lazily. No sampled value depends
//! on whether it is live: rejections it certifies are exact rejections,
//! and the removal lanes it hands out are the gather's. Every fold whose
//! order matters (a candidate's own responsibility, the Shrink scan) still
//! runs over the index's gather.
//!
//! Δ and the ring bounds only trade rebuilds against entries scanned per
//! candidate and certificate checks per walk. On the 1M-point Geolife
//! build at K = 5000, Δ of 0.05, 0.1 and 0.2 cutoffs and inner bounds from
//! 0.45 to 0.7 and from 0.7 to 0.85 of `reach` stayed within the host's
//! timing noise of one another.

use std::ops::ControlFlow;
use vas_data::Point;
use vas_spatial::{HashGrid, NeighborBatch};

/// Number of distance rings.
const RINGS: usize = 3;

/// The reuse radius Δ, as a fraction of the cutoff radius.
const DELTA: f64 = 0.1;

/// The relative margin by which [`NeighbourhoodCache::lanes_within`]'s
/// radius stays inside Δ. A point within Δ of the anchor has its cutoff
/// disk inside `reach` in exact arithmetic; each computed squared distance
/// is off by a few ulps, so `reach` must clear the disk by about
/// `10·2⁻⁵³·reach`. A margin of `1e-9·Δ` (`1e-10` of the cutoff) covers that
/// with room to spare and gives up no measurable coverage.
const COVER_MARGIN: f64 = 1e-9;

/// Outer radii of the two inner rings, as fractions of `reach`; the last
/// ring ends at `reach` itself.
const RING_BOUNDS: [f64; RINGS - 1] = [0.6, 0.8];

/// One ring's entries as columns: entry `k < len` is slot `ids[k]` at
/// `(xs[k], ys[k])`. The columns only grow, at a new high-water mark, and
/// entries past `len` are stale scratch, so a rebuild writes at cursors
/// without allocating.
#[derive(Debug, Clone, Default)]
struct Ring {
    ids: Vec<usize>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    len: usize,
}

impl Ring {
    /// Empties the ring and makes room for `n` entries.
    fn reset(&mut self, n: usize) {
        if self.ids.len() < n {
            self.ids.resize(n, 0);
            self.xs.resize(n, 0.0);
            self.ys.resize(n, 0.0);
        }
        self.len = 0;
    }

    /// Writes entry `k`, which must be within the columns.
    #[inline]
    fn write(&mut self, k: usize, slot: usize, p: &Point) {
        self.ids[k] = slot;
        self.xs[k] = p.x;
        self.ys[k] = p.y;
    }

    fn push(&mut self, slot: usize, p: &Point) {
        if self.len == self.ids.len() {
            self.ids.push(slot);
            self.xs.push(p.x);
            self.ys.push(p.y);
        } else {
            self.write(self.len, slot, p);
        }
        self.len += 1;
    }

    /// Removes entry `k`, moving the last entry into its place.
    fn swap_remove(&mut self, k: usize) {
        let last = self.len - 1;
        self.ids[k] = self.ids[last];
        self.xs[k] = self.xs[last];
        self.ys[k] = self.ys[last];
        self.len = last;
    }

    /// The live entries' columns.
    fn live(&self) -> (&[usize], &[f64], &[f64]) {
        let n = self.len;
        (&self.ids[..n], &self.xs[..n], &self.ys[..n])
    }
}

/// Writes the entries of `ring` within the cutoff of `t` as lanes at the
/// front of `ids`/`dist2`, which must hold the whole ring, and returns how
/// many. The index gather's branch-free fill: every entry is written at the
/// cursor, which advances only past in-cutoff ones, and `dist2` is
/// computed as `entry − centre`, so its bits are the gather's.
#[inline]
fn in_cutoff_lanes(
    ring: &Ring,
    t: &Point,
    cutoff2: f64,
    ids: &mut [usize],
    dist2: &mut [f64],
) -> usize {
    let (slots, xs, ys) = ring.live();
    let mut w = 0;
    for ((&slot, &x), &y) in slots.iter().zip(xs).zip(ys) {
        let dx = x - t.x;
        let dy = y - t.y;
        let d2 = dx * dx + dy * dy;
        ids[w] = slot;
        dist2[w] = d2;
        w += usize::from(d2 <= cutoff2);
    }
    w
}

/// Ring of an entry at squared distance `d2 ≤ reach²` from the anchor,
/// given the inner rings' squared outer radii.
#[inline]
fn ring_of(bounds2: &[f64; RINGS - 1], d2: f64) -> usize {
    bounds2.iter().map(|&b2| usize::from(d2 > b2)).sum()
}

/// See the module docs.
#[derive(Debug, Clone)]
pub(crate) struct NeighbourhoodCache {
    /// `Δ²`.
    delta2: f64,
    /// Squared radius around the anchor within which a point's whole cutoff
    /// neighbourhood is cached: Δ less [`COVER_MARGIN`].
    cover2: f64,
    reach: f64,
    /// `reach²`, computed as the index's gather computes its `r²`.
    reach2: f64,
    /// Squared outer radii of the inner rings.
    bounds2: [f64; RINGS - 1],
    /// The candidate the rings are centred on; `None` while no cache is
    /// live.
    anchor: Option<Point>,
    /// The previous candidate.
    prev: Option<Point>,
    rings: [Ring; RINGS],
    /// The gather scratch the rings are built from.
    gather: NeighborBatch,
    /// One ring's in-cutoff lanes, handed to the walk's visitor.
    lane_ids: Vec<usize>,
    lane_dist2: Vec<f64>,
}

impl Default for NeighbourhoodCache {
    fn default() -> Self {
        let mut cache = Self {
            delta2: 0.0,
            cover2: 0.0,
            reach: 0.0,
            reach2: 0.0,
            bounds2: [0.0; RINGS - 1],
            anchor: None,
            prev: None,
            rings: Default::default(),
            gather: NeighborBatch::new(),
            lane_ids: Vec::new(),
            lane_dist2: Vec::new(),
        };
        cache.configure(f64::INFINITY);
        cache
    }
}

/// One cached entry as `(ring, slot, x, y)`, for the invariant tests.
#[cfg(test)]
pub(crate) type CachedEntry = (usize, usize, f64, f64);

impl NeighbourhoodCache {
    /// Sizes Δ, `reach` and the rings for the locality cutoff radius, and
    /// forgets any cache.
    pub(crate) fn configure(&mut self, cutoff: f64) {
        let delta = DELTA * cutoff;
        self.delta2 = delta * delta;
        let cover = delta * (1.0 - COVER_MARGIN);
        self.cover2 = cover * cover;
        self.reach = cutoff + delta;
        self.reach2 = self.reach * self.reach;
        for (b2, f) in self.bounds2.iter_mut().zip(RING_BOUNDS) {
            let b = f * self.reach;
            *b2 = b * b;
        }
        self.forget();
    }

    /// Drops the cache and the previous candidate: the sample or the index
    /// changed outside the candidate path.
    pub(crate) fn forget(&mut self) {
        self.anchor = None;
        self.prev = None;
    }

    /// Decides whether candidate `t` is served from the cache, rebuilding
    /// it around `t` from `index` when `t` lies within Δ of the previous
    /// candidate but not of the anchor. `points` are the sample's slots,
    /// which `index` holds. Returns `true` when [`walk`](Self::walk) may be
    /// called for `t`.
    pub(crate) fn route(&mut self, t: &Point, index: &HashGrid, points: &[Point]) -> bool {
        let delta2 = self.delta2;
        let near = |p: Option<Point>| p.is_some_and(|p| t.dist2(&p) <= delta2);
        let served = if near(self.anchor) {
            true
        } else if near(self.prev) {
            self.rebuild(t, index, points);
            true
        } else {
            self.anchor = None;
            false
        };
        self.prev = Some(*t);
        served
    }

    /// Gathers `reach` around `anchor` and files the entries into the
    /// rings. Kept out of line, like the walk's caller, so that the
    /// candidate path stays small for streams that seldom build a cache.
    #[inline(never)]
    fn rebuild(&mut self, anchor: &Point, index: &HashGrid, points: &[Point]) {
        index.gather_in_radius_into(anchor, self.reach, &mut self.gather);
        for ring in &mut self.rings {
            ring.reset(self.gather.len());
        }
        let mut lens = [0; RINGS];
        for (&slot, &d2) in self.gather.ids().iter().zip(self.gather.dist2()) {
            let r = ring_of(&self.bounds2, d2);
            self.rings[r].write(lens[r], slot, &points[slot]);
            lens[r] += 1;
        }
        for (ring, len) in self.rings.iter_mut().zip(lens) {
            ring.len = len;
        }
        self.anchor = Some(*anchor);
    }

    /// Patches a live cache after an accept moved `slot` from `removed` to
    /// `added` (the index has already been updated).
    pub(crate) fn replace(&mut self, slot: usize, removed: &Point, added: &Point) {
        let Some(anchor) = self.anchor else {
            return;
        };
        // `entry.dist2(anchor)` has the bits the gather filed the entry by.
        let d2 = removed.dist2(&anchor);
        if d2 <= self.reach2 {
            let ring = &mut self.rings[ring_of(&self.bounds2, d2)];
            match ring.live().0.iter().position(|&i| i == slot) {
                Some(k) => ring.swap_remove(k),
                // Unreachable while the rings mirror the index; a stale
                // entry would hand the walk a wrong lane, so drop the cache.
                None => {
                    debug_assert!(false, "slot {slot} missing from its ring");
                    self.anchor = None;
                    return;
                }
            }
        }
        let d2 = added.dist2(&anchor);
        if d2 <= self.reach2 {
            self.rings[ring_of(&self.bounds2, d2)].push(slot, added);
        }
    }

    /// Hands `visit` the cached lanes of candidate `t` ring by ring, nearest
    /// ring first: each ring's entries `j` with `dist2(j, t) ≤ cutoff2`, as
    /// `(slot ids, dist2)` lanes computed as the index's gather computes
    /// them. Stops at the first `Break` and returns its value; `false` when
    /// every ring was visited. Only valid right after
    /// [`route`](Self::route) returned `true` for `t`.
    pub(crate) fn walk(
        &mut self,
        t: &Point,
        cutoff2: f64,
        mut visit: impl FnMut(&[usize], &[f64]) -> ControlFlow<bool>,
    ) -> bool {
        debug_assert!(self.anchor.is_some(), "walk without a live cache");
        let widest = self.rings.iter().map(|ring| ring.len).max().unwrap_or(0);
        self.lane_room(widest);
        for ring in &self.rings {
            let w = in_cutoff_lanes(ring, t, cutoff2, &mut self.lane_ids, &mut self.lane_dist2);
            if let ControlFlow::Break(certified) = visit(&self.lane_ids[..w], &self.lane_dist2[..w])
            {
                return certified;
            }
        }
        false
    }

    /// The lanes of `p` the index's gather at the cutoff radius returns —
    /// every slot `j` with `dist2(j, p) ≤ cutoff2`, as `(slot ids, dist2)`
    /// with the gather's `dist2` bits, in ring order — or `None` when the
    /// cache does not cover `p`'s cutoff disk (no live cache, or `p` farther
    /// than Δ from the anchor). Valid while the cache mirrors the index,
    /// that is before the accept that removes `p` patches it.
    pub(crate) fn lanes_within(&mut self, p: &Point, cutoff2: f64) -> Option<(&[usize], &[f64])> {
        let anchor = self.anchor?;
        if p.dist2(&anchor) > self.cover2 {
            return None;
        }
        self.lane_room(self.rings.iter().map(|ring| ring.len).sum());
        let mut w = 0;
        for ring in &self.rings {
            w += in_cutoff_lanes(
                ring,
                p,
                cutoff2,
                &mut self.lane_ids[w..],
                &mut self.lane_dist2[w..],
            );
        }
        Some((&self.lane_ids[..w], &self.lane_dist2[..w]))
    }

    /// Grows the lane scratch to at least `n` lanes.
    fn lane_room(&mut self, n: usize) {
        if self.lane_ids.len() < n {
            self.lane_ids.resize(n, 0);
            self.lane_dist2.resize(n, 0.0);
        }
    }

    /// The live cache as `(anchor, reach², entries)`, for the invariant
    /// tests.
    #[cfg(test)]
    pub(crate) fn contents(&self) -> Option<(Point, f64, Vec<CachedEntry>)> {
        let anchor = self.anchor?;
        let mut entries = Vec::new();
        for (r, ring) in self.rings.iter().enumerate() {
            let (ids, xs, ys) = ring.live();
            for ((&slot, &x), &y) in ids.iter().zip(xs).zip(ys) {
                entries.push((r, slot, x, y));
            }
        }
        Some((anchor, self.reach2, entries))
    }

    /// The ring an entry at squared distance `d2` from the anchor belongs
    /// in, for the invariant tests.
    #[cfg(test)]
    pub(crate) fn expected_ring(&self, d2: f64) -> usize {
        ring_of(&self.bounds2, d2)
    }
}
