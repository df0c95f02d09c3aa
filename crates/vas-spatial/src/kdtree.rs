//! A static, balanced k-d tree for nearest-neighbour queries.
//!
//! Section V of the paper adds *density embedding* to VAS: after the sample
//! is chosen, a second scan over the full dataset increments a counter on the
//! sampled point nearest to each scanned tuple. The paper notes a k-d tree
//! makes this second pass `O(N log K)`. That static workload — built once
//! over the (small) sample, queried `N` times — is what this tree is for;
//! outlier detection and the loss estimator's domain test use it the same
//! way.
//!
//! The tree is constructed by recursive median splits, which guarantees a
//! balanced tree regardless of the input distribution. It is immutable once
//! built; the Interchange loop's insert/remove churn goes through the
//! [`HashGrid`](crate::HashGrid) instead.

use vas_data::{BoundingBox, Point};

#[derive(Debug, Clone)]
struct KdNode {
    /// Index into the `entries` array of the point stored at this node.
    entry: usize,
    /// Split axis: 0 for x, 1 for y.
    axis: u8,
    left: Option<Box<KdNode>>,
    right: Option<Box<KdNode>>,
}

/// A balanced k-d tree over `(id, Point)` entries.
#[derive(Debug, Clone, Default)]
pub struct KdTree {
    entries: Vec<(usize, Point)>,
    root: Option<Box<KdNode>>,
}

impl KdTree {
    /// Builds a tree from `(id, point)` pairs. Building is `O(n log² n)`.
    pub fn build(entries: impl IntoIterator<Item = (usize, Point)>) -> Self {
        let entries: Vec<(usize, Point)> = entries.into_iter().collect();
        let mut indices: Vec<usize> = (0..entries.len()).collect();
        let root = Self::build_rec(&entries, &mut indices, 0);
        Self { entries, root }
    }

    /// Builds a tree over a slice of points, using each point's position in
    /// the slice as its id.
    pub fn from_points(points: &[Point]) -> Self {
        Self::build(points.iter().copied().enumerate())
    }

    fn build_rec(
        entries: &[(usize, Point)],
        indices: &mut [usize],
        depth: usize,
    ) -> Option<Box<KdNode>> {
        if indices.is_empty() {
            return None;
        }
        let axis = (depth % 2) as u8;
        indices.sort_by(|&a, &b| {
            let (pa, pb) = (&entries[a].1, &entries[b].1);
            let (ka, kb) = if axis == 0 {
                (pa.x, pb.x)
            } else {
                (pa.y, pb.y)
            };
            ka.partial_cmp(&kb).expect("finite coordinates")
        });
        let mid = indices.len() / 2;
        let entry = indices[mid];
        let (left_idx, rest) = indices.split_at_mut(mid);
        let right_idx = &mut rest[1..];
        Some(Box::new(KdNode {
            entry,
            axis,
            left: Self::build_rec(entries, left_idx, depth + 1),
            right: Self::build_rec(entries, right_idx, depth + 1),
        }))
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The id and point of the entry nearest to `query`, or `None` when
    /// empty.
    pub fn nearest(&self, query: &Point) -> Option<(usize, Point)> {
        let mut best: Option<(f64, usize, Point)> = None;
        if let Some(root) = self.root.as_ref() {
            self.nearest_rec(root, query, &mut best);
        }
        best.map(|(_, id, p)| (id, p))
    }

    fn nearest_rec(&self, node: &KdNode, query: &Point, best: &mut Option<(f64, usize, Point)>) {
        let (id, point) = self.entries[node.entry];
        let d2 = point.dist2(query);
        if best.map(|(bd2, _, _)| d2 < bd2).unwrap_or(true) {
            *best = Some((d2, id, point));
        }
        let diff = if node.axis == 0 {
            query.x - point.x
        } else {
            query.y - point.y
        };
        let (near, far) = if diff <= 0.0 {
            (&node.left, &node.right)
        } else {
            (&node.right, &node.left)
        };
        if let Some(n) = near {
            self.nearest_rec(n, query, best);
        }
        // Only descend the far side if the splitting plane is closer than the
        // best distance found so far.
        if best.map(|(bd2, _, _)| diff * diff < bd2).unwrap_or(true) {
            if let Some(f) = far {
                self.nearest_rec(f, query, best);
            }
        }
    }

    /// Bounding box of all points.
    pub fn bounds(&self) -> BoundingBox {
        let mut bb = BoundingBox::EMPTY;
        for (_, p) in &self.entries {
            bb.extend(p);
        }
        bb
    }

    /// Depth of the tree; a balanced tree over `n` entries has depth
    /// `⌈log2(n+1)⌉`. Exposed for tests and diagnostics.
    pub fn depth(&self) -> usize {
        fn depth(node: &Option<Box<KdNode>>) -> usize {
            match node {
                None => 0,
                Some(n) => 1 + depth(&n.left).max(depth(&n.right)),
            }
        }
        depth(&self.root)
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
            .map(|_| Point::new(rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0)))
            .collect()
    }

    #[test]
    fn empty_tree() {
        let t = KdTree::from_points(&[]);
        assert!(t.is_empty());
        assert!(t.nearest(&Point::new(0.0, 0.0)).is_none());
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn single_point() {
        let t = KdTree::from_points(&[Point::new(3.0, 4.0)]);
        assert_eq!(t.len(), 1);
        let (id, p) = t.nearest(&Point::new(0.0, 0.0)).unwrap();
        assert_eq!(id, 0);
        assert_eq!(p, Point::new(3.0, 4.0));
    }

    #[test]
    fn nearest_matches_brute_force() {
        let pts = random_points(1_000, 1);
        let t = KdTree::from_points(&pts);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let q = Point::new(rng.gen_range(-12.0..12.0), rng.gen_range(-12.0..12.0));
            let (got, _) = t.nearest(&q).unwrap();
            let best = pts
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.dist2(&q).partial_cmp(&b.dist2(&q)).unwrap())
                .map(|(i, _)| i)
                .unwrap();
            assert!(
                (pts[got].dist2(&q) - pts[best].dist2(&q)).abs() < 1e-12,
                "nearest mismatch"
            );
        }
    }

    #[test]
    fn tree_is_balanced() {
        let pts = random_points(1_024, 4);
        let t = KdTree::from_points(&pts);
        // A perfectly balanced tree over 1024 nodes has depth 11; allow +1 slack.
        assert!(t.depth() <= 12, "depth {} too large", t.depth());
    }

    #[test]
    fn balanced_even_for_sorted_input() {
        let pts: Vec<Point> = (0..1_000).map(|i| Point::new(i as f64, 0.0)).collect();
        let t = KdTree::from_points(&pts);
        assert!(t.depth() <= 11, "depth {} on sorted input", t.depth());
    }

    #[test]
    fn custom_ids_are_preserved() {
        let t = KdTree::build(vec![
            (100, Point::new(0.0, 0.0)),
            (200, Point::new(5.0, 5.0)),
        ]);
        assert_eq!(t.nearest(&Point::new(4.0, 4.0)).unwrap().0, 200);
        assert_eq!(t.nearest(&Point::new(1.0, 0.0)).unwrap().0, 100);
    }

    #[test]
    fn bounds_cover_all_points() {
        let pts = random_points(100, 5);
        let t = KdTree::from_points(&pts);
        let bb = t.bounds();
        for p in &pts {
            assert!(bb.contains(p));
        }
    }
}
