//! A dynamic R-tree over 2-D points.
//!
//! The `ES+Loc` variant of the Interchange algorithm (paper Section IV-B)
//! keeps the current sample in an R-tree so that, when a new data point is
//! considered, only the sample points within the kernel's effective radius
//! take part in the Expand/Shrink bookkeeping. That requires a structure that
//! supports **insertion**, **deletion** (the sample constantly swaps points in
//! and out) and **radius search**; nearest-neighbour search is also provided
//! because several consumers (perception models, density checks) need it.
//!
//! The implementation is a textbook Guttman R-tree with quadratic splits and
//! a condense-and-reinsert deletion path. Entries are `(id, Point)` pairs; the
//! tree never inspects `Point::value`.

use crate::locality::same_bits;
use crate::{snapshot, LocalityIndex};
use vas_data::{BoundingBox, Point};

/// Maximum number of entries per node before a split.
///
/// Tuned for the Interchange hot path (radius queries returning hundreds of
/// entries): wide nodes keep entries contiguous and the tree shallow, which
/// measured ~3× faster than the original fan-out of 8 on the
/// `fig10_inner_loop` workload. Quadratic-split cost grows as the square of
/// the fan-out but is amortized over the node's lifetime.
const MAX_ENTRIES: usize = 32;
/// Minimum number of entries per node (underflow threshold).
const MIN_ENTRIES: usize = 12;

/// An entry stored in a leaf node.
#[derive(Debug, Clone, Copy)]
struct LeafEntry {
    id: usize,
    point: Point,
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        entries: Vec<LeafEntry>,
    },
    Internal {
        children: Vec<(BoundingBox, Box<Node>)>,
    },
}

impl Node {
    fn bbox(&self) -> BoundingBox {
        match self {
            Node::Leaf { entries } => {
                let mut bb = BoundingBox::EMPTY;
                for e in entries {
                    bb.extend(&e.point);
                }
                bb
            }
            Node::Internal { children } => {
                let mut bb = BoundingBox::EMPTY;
                for (cb, _) in children {
                    bb = bb.union(cb);
                }
                bb
            }
        }
    }

    fn len(&self) -> usize {
        match self {
            Node::Leaf { entries } => entries.len(),
            Node::Internal { children } => children.len(),
        }
    }

    fn is_leaf(&self) -> bool {
        matches!(self, Node::Leaf { .. })
    }
}

/// A dynamic R-tree mapping caller-chosen `usize` identifiers to points.
///
/// Duplicate ids are permitted (the tree is a multiset); `remove` deletes one
/// matching entry.
#[derive(Debug, Clone)]
pub struct RTree {
    root: Node,
    len: usize,
}

impl Default for RTree {
    fn default() -> Self {
        Self::new()
    }
}

impl RTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self {
            root: Node::Leaf {
                entries: Vec::new(),
            },
            len: 0,
        }
    }

    /// Builds a tree from `(id, point)` pairs.
    pub fn from_entries(entries: impl IntoIterator<Item = (usize, Point)>) -> Self {
        let mut tree = Self::new();
        for (id, p) in entries {
            tree.insert(id, p);
        }
        tree
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bounding box of all stored points ([`BoundingBox::EMPTY`] when empty).
    pub fn bounds(&self) -> BoundingBox {
        self.root.bbox()
    }

    /// Inserts an entry.
    pub fn insert(&mut self, id: usize, point: Point) {
        let entry = LeafEntry { id, point };
        if let Some((left, right)) = Self::insert_rec(&mut self.root, entry) {
            // Root split: grow the tree by one level.
            let old_root = std::mem::replace(
                &mut self.root,
                Node::Internal {
                    children: Vec::new(),
                },
            );
            // `old_root` has been replaced by `left` contents already; rebuild.
            drop(old_root);
            self.root = Node::Internal {
                children: vec![
                    (left.bbox(), Box::new(left)),
                    (right.bbox(), Box::new(right)),
                ],
            };
        }
        self.len += 1;
    }

    /// Inserts into the subtree rooted at `node`. If the node had to split,
    /// returns the two replacement nodes (the caller installs them).
    fn insert_rec(node: &mut Node, entry: LeafEntry) -> Option<(Node, Node)> {
        match node {
            Node::Leaf { entries } => {
                entries.push(entry);
                if entries.len() > MAX_ENTRIES {
                    let (a, b) = split_leaf(std::mem::take(entries));
                    Some((Node::Leaf { entries: a }, Node::Leaf { entries: b }))
                } else {
                    None
                }
            }
            Node::Internal { children } => {
                // Choose the child whose bbox needs least enlargement.
                let mut best = 0usize;
                let mut best_enlargement = f64::INFINITY;
                let mut best_area = f64::INFINITY;
                for (i, (bb, _)) in children.iter().enumerate() {
                    let enlargement = bb.enlargement(&entry.point);
                    let area = bb.area();
                    if enlargement < best_enlargement
                        || (enlargement == best_enlargement && area < best_area)
                    {
                        best = i;
                        best_enlargement = enlargement;
                        best_area = area;
                    }
                }
                let split = Self::insert_rec(&mut children[best].1, entry);
                match split {
                    None => {
                        children[best].0.extend(&entry.point);
                        None
                    }
                    Some((a, b)) => {
                        children.remove(best);
                        children.push((a.bbox(), Box::new(a)));
                        children.push((b.bbox(), Box::new(b)));
                        if children.len() > MAX_ENTRIES {
                            let (ca, cb) = split_internal(std::mem::take(children));
                            Some((
                                Node::Internal { children: ca },
                                Node::Internal { children: cb },
                            ))
                        } else {
                            None
                        }
                    }
                }
            }
        }
    }

    /// Removes one entry matching `(id, point)` exactly. Returns `true` if an
    /// entry was removed.
    pub fn remove(&mut self, id: usize, point: &Point) -> bool {
        let mut orphans: Vec<LeafEntry> = Vec::new();
        let removed = Self::remove_rec(&mut self.root, id, point, &mut orphans);
        if !removed {
            return false;
        }
        self.len -= 1;
        // Collapse a root that has a single internal child.
        loop {
            let replace = match &mut self.root {
                Node::Internal { children } if children.len() == 1 => {
                    Some(*children.pop().expect("len checked").1)
                }
                Node::Internal { children } if children.is_empty() => Some(Node::Leaf {
                    entries: Vec::new(),
                }),
                _ => None,
            };
            match replace {
                Some(new_root) => self.root = new_root,
                None => break,
            }
        }
        // Reinsert entries from condensed (underflowed) nodes.
        self.len -= orphans.len();
        for e in orphans {
            self.insert(e.id, e.point);
        }
        true
    }

    /// Removes from the subtree. Underflowed leaves are dissolved into
    /// `orphans` for reinsertion. Returns whether the entry was found.
    fn remove_rec(node: &mut Node, id: usize, point: &Point, orphans: &mut Vec<LeafEntry>) -> bool {
        match node {
            Node::Leaf { entries } => {
                if let Some(pos) = entries
                    .iter()
                    .position(|e| e.id == id && same_bits(&e.point, point))
                {
                    entries.swap_remove(pos);
                    true
                } else {
                    false
                }
            }
            Node::Internal { children } => {
                let mut removed_at = None;
                for (i, (bb, child)) in children.iter_mut().enumerate() {
                    if bb.contains(point) && Self::remove_rec(child, id, point, orphans) {
                        removed_at = Some(i);
                        break;
                    }
                }
                let Some(i) = removed_at else { return false };
                // Recompute the child's bbox; condense if it underflowed.
                if children[i].1.len() < MIN_ENTRIES && children[i].1.is_leaf() {
                    let (_, child) = children.swap_remove(i);
                    if let Node::Leaf { entries } = *child {
                        orphans.extend(entries);
                    }
                } else if children[i].1.len() == 0 {
                    // An internal child can become empty once all of its own
                    // leaf children have been dissolved; drop the empty shell
                    // so it never attracts future insertions.
                    children.swap_remove(i);
                } else {
                    children[i].0 = children[i].1.bbox();
                }
                true
            }
        }
    }

    /// All entries whose point lies inside `region` (inclusive bounds).
    pub fn query_region(&self, region: &BoundingBox) -> Vec<(usize, Point)> {
        let mut out = Vec::new();
        Self::query_region_rec(&self.root, region, &mut out);
        out
    }

    fn query_region_rec(node: &Node, region: &BoundingBox, out: &mut Vec<(usize, Point)>) {
        match node {
            Node::Leaf { entries } => {
                for e in entries {
                    if region.contains(&e.point) {
                        out.push((e.id, e.point));
                    }
                }
            }
            Node::Internal { children } => {
                for (bb, child) in children {
                    if bb.intersects(region) {
                        Self::query_region_rec(child, region, out);
                    }
                }
            }
        }
    }

    fn query_radius_rec(
        node: &Node,
        region: &BoundingBox,
        center: &Point,
        r2: f64,
        visit: &mut impl FnMut(usize, &Point, f64),
    ) {
        match node {
            Node::Leaf { entries } => {
                for e in entries {
                    let d2 = e.point.dist2(center);
                    if d2 <= r2 {
                        visit(e.id, &e.point, d2);
                    }
                }
            }
            Node::Internal { children } => {
                for (bb, child) in children {
                    if bb.intersects(region) && bb.dist2_to_point(center) <= r2 {
                        Self::query_radius_rec(child, region, center, r2, visit);
                    }
                }
            }
        }
    }

    /// The nearest stored entry to `query`, or `None` if the tree is empty.
    pub fn nearest(&self, query: &Point) -> Option<(usize, Point)> {
        self.nearest_k(query, 1).into_iter().next()
    }

    /// The `k` nearest stored entries to `query`, ordered by increasing
    /// distance. Returns fewer than `k` entries if the tree is smaller.
    pub fn nearest_k(&self, query: &Point, k: usize) -> Vec<(usize, Point)> {
        if k == 0 || self.is_empty() {
            return Vec::new();
        }
        // Best-first branch-and-bound using a simple sorted frontier; the
        // trees used here are small (they hold the sample, K ≤ ~1M), so the
        // simplicity is worth more than a fancier priority queue.
        let mut best: Vec<(f64, usize, Point)> = Vec::with_capacity(k + 1);
        let mut worst = f64::INFINITY;
        let mut stack: Vec<&Node> = vec![&self.root];
        while let Some(node) = stack.pop() {
            match node {
                Node::Leaf { entries } => {
                    for e in entries {
                        let d2 = e.point.dist2(query);
                        if d2 < worst || best.len() < k {
                            best.push((d2, e.id, e.point));
                            best.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite distances"));
                            if best.len() > k {
                                best.pop();
                            }
                            if best.len() == k {
                                worst = best[k - 1].0;
                            }
                        }
                    }
                }
                Node::Internal { children } => {
                    for (bb, child) in children {
                        if best.len() < k || bb.dist2_to_point(query) <= worst {
                            stack.push(child);
                        }
                    }
                }
            }
        }
        best.into_iter().map(|(_, id, p)| (id, p)).collect()
    }

    /// Depth of the tree (1 for a tree that is a single leaf). Exposed for
    /// tests and diagnostics.
    pub fn depth(&self) -> usize {
        fn depth(node: &Node) -> usize {
            match node {
                Node::Leaf { .. } => 1,
                Node::Internal { children } => {
                    1 + children.iter().map(|(_, c)| depth(c)).max().unwrap_or(0)
                }
            }
        }
        depth(&self.root)
    }
}

/// The radius-query family (`query_radius`, `query_radius_into`,
/// `for_each_in_radius`) comes from the [`LocalityIndex`] trait; the R-tree
/// supplies only the core visitor traversal. This is the query used by the
/// `ES+Loc` Interchange variant: only sample points within the kernel's
/// effective support take part in the responsibility update.
impl LocalityIndex for RTree {
    fn len(&self) -> usize {
        self.len
    }

    /// Drops every entry; the R-tree has no radius-dependent geometry, so the
    /// hint is ignored.
    fn reset(&mut self, _radius_hint: f64) {
        *self = RTree::new();
    }

    fn insert(&mut self, id: usize, point: Point) {
        RTree::insert(self, id, point);
    }

    fn remove(&mut self, id: usize, point: &Point) -> bool {
        RTree::remove(self, id, point)
    }

    /// Visits entries in deterministic depth-first traversal order, handing
    /// the visitor the squared distance the pruning filter already computed.
    fn for_each_in_radius_with_dist2(
        &self,
        center: &Point,
        radius: f64,
        mut visit: impl FnMut(usize, &Point, f64),
    ) {
        let r2 = radius * radius;
        let region = BoundingBox::new(
            center.x - radius,
            center.y - radius,
            center.x + radius,
            center.y + radius,
        );
        Self::query_radius_rec(&self.root, &region, center, r2, &mut visit);
    }
}

/// Quadratic split of an overflowing leaf's entries.
fn split_leaf(entries: Vec<LeafEntry>) -> (Vec<LeafEntry>, Vec<LeafEntry>) {
    let boxes: Vec<BoundingBox> = entries
        .iter()
        .map(|e| BoundingBox::from_point(&e.point))
        .collect();
    let (seed_a, seed_b) = pick_seeds(&boxes);
    distribute(entries, boxes, seed_a, seed_b)
}

/// A child entry of an internal node: its bounding box plus the subtree.
type ChildEntry = (BoundingBox, Box<Node>);

/// Quadratic split of an overflowing internal node's children.
fn split_internal(children: Vec<ChildEntry>) -> (Vec<ChildEntry>, Vec<ChildEntry>) {
    let boxes: Vec<BoundingBox> = children.iter().map(|(bb, _)| *bb).collect();
    let (seed_a, seed_b) = pick_seeds(&boxes);
    distribute(children, boxes, seed_a, seed_b)
}

/// Guttman's quadratic seed picking: the pair wasting the most area.
fn pick_seeds(boxes: &[BoundingBox]) -> (usize, usize) {
    let mut best = (0, 1);
    let mut worst_waste = f64::NEG_INFINITY;
    for i in 0..boxes.len() {
        for j in (i + 1)..boxes.len() {
            let waste = boxes[i].union(&boxes[j]).area() - boxes[i].area() - boxes[j].area();
            if waste > worst_waste {
                worst_waste = waste;
                best = (i, j);
            }
        }
    }
    best
}

/// Distributes items between the two seed groups, preferring the group whose
/// bounding box grows least, while guaranteeing both groups reach
/// `MIN_ENTRIES`.
fn distribute<T>(
    mut items: Vec<T>,
    mut boxes: Vec<BoundingBox>,
    seed_a: usize,
    seed_b: usize,
) -> (Vec<T>, Vec<T>) {
    debug_assert!(seed_a < seed_b);
    let mut group_a = Vec::new();
    let mut group_b = Vec::new();
    // Remove higher index first so the lower index stays valid.
    let item_b = items.swap_remove(seed_b);
    let box_b = boxes.swap_remove(seed_b);
    let item_a = items.swap_remove(seed_a);
    let box_a = boxes.swap_remove(seed_a);
    let mut bb_a = box_a;
    let mut bb_b = box_b;
    group_a.push(item_a);
    group_b.push(item_b);

    while let Some(item) = items.pop() {
        let bb = boxes.pop().expect("boxes parallel to items");
        let remaining = items.len();
        // Force assignment if one group must take the rest to reach the minimum.
        if group_a.len() + remaining < MIN_ENTRIES {
            bb_a = bb_a.union(&bb);
            group_a.push(item);
            continue;
        }
        if group_b.len() + remaining < MIN_ENTRIES {
            bb_b = bb_b.union(&bb);
            group_b.push(item);
            continue;
        }
        let grow_a = bb_a.union(&bb).area() - bb_a.area();
        let grow_b = bb_b.union(&bb).area() - bb_b.area();
        if grow_a < grow_b || (grow_a == grow_b && group_a.len() <= group_b.len()) {
            bb_a = bb_a.union(&bb);
            group_a.push(item);
        } else {
            bb_b = bb_b.union(&bb);
            group_b.push(item);
        }
    }
    (group_a, group_b)
}

/// Node tags in the snapshot encoding.
const SNAP_LEAF: u8 = 0;
const SNAP_INTERNAL: u8 = 1;
/// Decode recursion guard. A fanout-≥2 tree this deep would hold more
/// entries than fit in memory, so a deeper encoding is malformed by
/// construction.
const SNAP_MAX_DEPTH: usize = 64;

/// Checkpoint snapshot codec — see [`crate::snapshot`].
impl RTree {
    /// Serializes the full node tree, **including the stored bounding boxes
    /// verbatim**.
    ///
    /// Boxes are maintained incrementally (`extend` on insert, recompute
    /// only on underflow repair), and future insert descent picks the child
    /// with least enlargement of its *stored* box — so the box bits are load
    /// bearing for determinism and must never be recomputed on restore.
    pub fn snapshot_into(&self, out: &mut Vec<u8>) {
        fn encode(node: &Node, out: &mut Vec<u8>) {
            match node {
                Node::Leaf { entries } => {
                    snapshot::put_u8(out, SNAP_LEAF);
                    snapshot::put_u32(out, entries.len() as u32);
                    for e in entries {
                        snapshot::put_usize(out, e.id);
                        snapshot::put_f64(out, e.point.x);
                        snapshot::put_f64(out, e.point.y);
                        snapshot::put_f64(out, e.point.value);
                    }
                }
                Node::Internal { children } => {
                    snapshot::put_u8(out, SNAP_INTERNAL);
                    snapshot::put_u32(out, children.len() as u32);
                    for (bb, child) in children {
                        snapshot::put_f64(out, bb.min_x);
                        snapshot::put_f64(out, bb.min_y);
                        snapshot::put_f64(out, bb.max_x);
                        snapshot::put_f64(out, bb.max_y);
                        encode(child, out);
                    }
                }
            }
        }
        snapshot::put_usize(out, self.len);
        encode(&self.root, out);
    }

    /// Restores a tree from [`snapshot_into`](Self::snapshot_into) bytes.
    pub fn restore_snapshot(
        r: &mut snapshot::SnapshotReader<'_>,
    ) -> Result<Self, snapshot::SnapshotError> {
        fn decode(
            r: &mut snapshot::SnapshotReader<'_>,
            depth: usize,
            seen: &mut usize,
        ) -> Result<Node, snapshot::SnapshotError> {
            if depth > SNAP_MAX_DEPTH {
                return Err(snapshot::SnapshotError::new(format!(
                    "rtree snapshot deeper than {SNAP_MAX_DEPTH} levels"
                )));
            }
            match r.take_u8("rtree node tag")? {
                SNAP_LEAF => {
                    let n = r.take_u32("rtree leaf entry count")? as usize;
                    if n > MAX_ENTRIES {
                        return Err(snapshot::SnapshotError::new(format!(
                            "rtree leaf holds {n} entries, max is {MAX_ENTRIES}"
                        )));
                    }
                    let mut entries = Vec::with_capacity(n);
                    for _ in 0..n {
                        let id = r.take_usize("rtree leaf entry id")?;
                        let x = r.take_f64("rtree leaf entry x")?;
                        let y = r.take_f64("rtree leaf entry y")?;
                        let value = r.take_f64("rtree leaf entry value")?;
                        entries.push(LeafEntry {
                            id,
                            point: Point::with_value(x, y, value),
                        });
                    }
                    *seen += n;
                    Ok(Node::Leaf { entries })
                }
                SNAP_INTERNAL => {
                    let n = r.take_u32("rtree child count")? as usize;
                    if n == 0 || n > MAX_ENTRIES {
                        return Err(snapshot::SnapshotError::new(format!(
                            "rtree internal node holds {n} children, expected 1..={MAX_ENTRIES}"
                        )));
                    }
                    let mut children = Vec::with_capacity(n);
                    for _ in 0..n {
                        let min_x = r.take_f64("rtree bbox min_x")?;
                        let min_y = r.take_f64("rtree bbox min_y")?;
                        let max_x = r.take_f64("rtree bbox max_x")?;
                        let max_y = r.take_f64("rtree bbox max_y")?;
                        let bb = BoundingBox {
                            min_x,
                            min_y,
                            max_x,
                            max_y,
                        };
                        children.push((bb, Box::new(decode(r, depth + 1, seen)?)));
                    }
                    Ok(Node::Internal { children })
                }
                other => Err(snapshot::SnapshotError::new(format!(
                    "unknown rtree node tag {other}"
                ))),
            }
        }
        let len = r.take_usize("rtree entry count")?;
        let mut seen = 0usize;
        let root = decode(r, 0, &mut seen)?;
        if seen != len {
            return Err(snapshot::SnapshotError::new(format!(
                "rtree snapshot promises {len} entries but encodes {seen}"
            )));
        }
        Ok(Self { root, len })
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

    #[test]
    fn locality_reset_empties_the_tree() {
        let pts = random_points(100, 99);
        let mut t = RTree::from_entries(pts.iter().copied().enumerate());
        LocalityIndex::reset(&mut t, 5.0);
        assert!(t.is_empty());
        t.insert(3, Point::new(1.0, 2.0));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn empty_tree_behaviour() {
        let t = RTree::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.nearest(&Point::new(0.0, 0.0)).is_none());
        assert!(t.query_radius(&Point::new(0.0, 0.0), 10.0).is_empty());
        assert!(t.bounds().is_empty());
    }

    #[test]
    fn insert_and_len() {
        let pts = random_points(500, 1);
        let t = RTree::from_entries(pts.iter().copied().enumerate());
        assert_eq!(t.len(), 500);
        assert!(t.depth() > 1, "tree should have split at 500 entries");
    }

    #[test]
    fn region_query_matches_brute_force() {
        let pts = random_points(1_000, 2);
        let t = RTree::from_entries(pts.iter().copied().enumerate());
        let region = BoundingBox::new(-30.0, -50.0, 20.0, 10.0);
        let mut got: Vec<usize> = t
            .query_region(&region)
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        got.sort_unstable();
        let mut expected: Vec<usize> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| region.contains(p))
            .map(|(i, _)| i)
            .collect();
        expected.sort_unstable();
        assert_eq!(got, expected);
        assert!(!expected.is_empty(), "test region should not be trivial");
    }

    #[test]
    fn radius_query_matches_brute_force() {
        let pts = random_points(1_000, 3);
        let t = RTree::from_entries(pts.iter().copied().enumerate());
        let center = Point::new(5.0, -5.0);
        for radius in [1.0, 10.0, 40.0] {
            let mut got: Vec<usize> = t
                .query_radius(&center, radius)
                .into_iter()
                .map(|(id, _)| id)
                .collect();
            got.sort_unstable();
            let mut expected: Vec<usize> = pts
                .iter()
                .enumerate()
                .filter(|(_, p)| p.dist(&center) <= radius)
                .map(|(i, _)| i)
                .collect();
            expected.sort_unstable();
            assert_eq!(got, expected, "radius {radius}");
        }
    }

    #[test]
    fn nearest_matches_brute_force() {
        let pts = random_points(800, 4);
        let t = RTree::from_entries(pts.iter().copied().enumerate());
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..50 {
            let q = Point::new(rng.gen_range(-120.0..120.0), rng.gen_range(-120.0..120.0));
            let (got_id, _) = t.nearest(&q).unwrap();
            let best = pts
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.dist2(&q).partial_cmp(&b.dist2(&q)).unwrap())
                .map(|(i, _)| i)
                .unwrap();
            assert_eq!(
                pts[got_id].dist2(&q),
                pts[best].dist2(&q),
                "nearest mismatch at query {q:?}"
            );
        }
    }

    #[test]
    fn nearest_k_is_sorted_and_correct() {
        let pts = random_points(300, 5);
        let t = RTree::from_entries(pts.iter().copied().enumerate());
        let q = Point::new(0.0, 0.0);
        let got = t.nearest_k(&q, 10);
        assert_eq!(got.len(), 10);
        // Sorted by distance.
        for w in got.windows(2) {
            assert!(w[0].1.dist2(&q) <= w[1].1.dist2(&q));
        }
        // Matches brute force distance of the 10th closest.
        let mut dists: Vec<f64> = pts.iter().map(|p| p.dist2(&q)).collect();
        dists.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((got[9].1.dist2(&q) - dists[9]).abs() < 1e-9);
        // Asking for more than exists returns everything.
        assert_eq!(t.nearest_k(&q, 1_000).len(), 300);
        assert!(t.nearest_k(&q, 0).is_empty());
    }

    #[test]
    fn remove_deletes_exactly_one_entry() {
        let pts = random_points(200, 6);
        let mut t = RTree::from_entries(pts.iter().copied().enumerate());
        assert_eq!(t.len(), 200);
        assert!(t.remove(17, &pts[17]));
        assert_eq!(t.len(), 199);
        // Removed id no longer appears in queries.
        let found = t
            .query_radius(&pts[17], 1e-9)
            .iter()
            .any(|(id, _)| *id == 17);
        assert!(!found);
        // Removing again fails.
        assert!(!t.remove(17, &pts[17]));
        assert_eq!(t.len(), 199);
    }

    #[test]
    fn remove_everything_then_reuse() {
        let pts = random_points(150, 7);
        let mut t = RTree::from_entries(pts.iter().copied().enumerate());
        for (i, p) in pts.iter().enumerate() {
            assert!(t.remove(i, p), "failed to remove entry {i}");
        }
        assert!(t.is_empty());
        // Tree is still usable afterwards.
        t.insert(42, Point::new(1.0, 2.0));
        assert_eq!(t.len(), 1);
        assert_eq!(t.nearest(&Point::new(0.0, 0.0)).unwrap().0, 42);
    }

    #[test]
    fn interleaved_insert_remove_matches_brute_force() {
        // Simulates the Interchange access pattern: constant insert/remove churn.
        let mut rng = StdRng::seed_from_u64(8);
        let mut t = RTree::new();
        let mut reference: Vec<(usize, Point)> = Vec::new();
        let mut next_id = 0usize;
        for step in 0..2_000 {
            if reference.is_empty() || rng.gen_bool(0.6) {
                let p = Point::new(rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0));
                t.insert(next_id, p);
                reference.push((next_id, p));
                next_id += 1;
            } else {
                let idx = rng.gen_range(0..reference.len());
                let (id, p) = reference.swap_remove(idx);
                assert!(t.remove(id, &p), "step {step}: remove failed");
            }
            assert_eq!(t.len(), reference.len(), "length diverged at step {step}");
        }
        // Final consistency check with a radius query.
        let center = Point::new(0.0, 0.0);
        let mut got: Vec<usize> = t
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

    proptest::proptest! {
        /// Radius queries agree with brute force for arbitrary point sets and
        /// query parameters.
        #[test]
        fn radius_query_matches_brute_force_prop(
            pts in proptest::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 1..200),
            qx in -120.0f64..120.0,
            qy in -120.0f64..120.0,
            radius in 0.1f64..80.0,
        ) {
            let points: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let tree = RTree::from_entries(points.iter().copied().enumerate());
            let q = Point::new(qx, qy);
            let mut got: Vec<usize> =
                tree.query_radius(&q, radius).into_iter().map(|(id, _)| id).collect();
            got.sort_unstable();
            let mut expected: Vec<usize> = points
                .iter()
                .enumerate()
                .filter(|(_, p)| p.dist(&q) <= radius)
                .map(|(i, _)| i)
                .collect();
            expected.sort_unstable();
            proptest::prop_assert_eq!(got, expected);
        }

        /// After removing an arbitrary subset of entries, the tree contains
        /// exactly the remaining ones.
        #[test]
        fn removal_leaves_exactly_the_remaining_entries(
            pts in proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 1..120),
            removal_mask in proptest::collection::vec(proptest::bool::ANY, 1..120),
        ) {
            let points: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let mut tree = RTree::from_entries(points.iter().copied().enumerate());
            let mut kept = Vec::new();
            for (i, p) in points.iter().enumerate() {
                if removal_mask.get(i).copied().unwrap_or(false) {
                    proptest::prop_assert!(tree.remove(i, p));
                } else {
                    kept.push(i);
                }
            }
            proptest::prop_assert_eq!(tree.len(), kept.len());
            let mut found: Vec<usize> = tree
                .query_region(&BoundingBox::new(-60.0, -60.0, 60.0, 60.0))
                .into_iter()
                .map(|(id, _)| id)
                .collect();
            found.sort_unstable();
            proptest::prop_assert_eq!(found, kept);
        }
    }

    #[test]
    fn query_radius_into_and_visitor_match_the_allocating_query() {
        let pts = random_points(1_000, 11);
        let t = RTree::from_entries(pts.iter().copied().enumerate());
        let center = Point::new(-3.0, 8.0);
        let mut buf = Vec::new();
        for radius in [0.5, 12.0, 60.0] {
            let allocated = t.query_radius(&center, radius);
            // Buffer form: identical contents in identical order, and the
            // buffer is cleared between calls.
            t.query_radius_into(&center, radius, &mut buf);
            assert_eq!(buf, allocated, "radius {radius}");
            // Visitor form: same sequence again.
            let mut visited = Vec::new();
            t.for_each_in_radius(&center, radius, |id, p| visited.push((id, *p)));
            assert_eq!(visited, allocated, "radius {radius}");
        }
    }

    #[test]
    fn query_radius_into_reuses_buffer_capacity() {
        let pts = random_points(300, 12);
        let t = RTree::from_entries(pts.iter().copied().enumerate());
        let mut buf = Vec::new();
        t.query_radius_into(&Point::new(0.0, 0.0), 200.0, &mut buf);
        assert_eq!(buf.len(), 300);
        let cap = buf.capacity();
        // A smaller follow-up query must not shrink or reallocate the buffer.
        t.query_radius_into(&Point::new(0.0, 0.0), 1.0, &mut buf);
        assert!(buf.len() < 300);
        assert_eq!(buf.capacity(), cap);
    }

    #[test]
    fn duplicate_points_are_supported() {
        let p = Point::new(1.0, 1.0);
        let mut t = RTree::new();
        for id in 0..20 {
            t.insert(id, p);
        }
        assert_eq!(t.len(), 20);
        assert_eq!(t.query_radius(&p, 0.1).len(), 20);
        assert!(t.remove(7, &p));
        assert_eq!(t.len(), 19);
    }
}
