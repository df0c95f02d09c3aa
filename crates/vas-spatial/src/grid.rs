//! A uniform grid index over a fixed extent.
//!
//! Two parts of the reproduction need a grid:
//!
//! * **Stratified sampling** (the paper's strongest baseline) divides the data
//!   domain into non-overlapping bins — e.g. the 316×316 grid used for
//!   Figure 1 and the 100-bin grid used in the user study — and samples each
//!   bin as evenly as possible.
//! * The **perception models** in `vas-user-sim` aggregate rendered points
//!   into coarse cells to mimic what a viewer can resolve.
//!
//! The grid maps points to `(col, row)` cells over a fixed [`BoundingBox`];
//! points outside the extent are clamped to the border cells, so no point is
//! ever lost (matching how stratified sampling treats boundary values).

use vas_data::{BoundingBox, Point};

/// A dense `cols × rows` grid accumulating point ids per cell.
#[derive(Debug, Clone)]
pub struct UniformGrid {
    bounds: BoundingBox,
    cols: usize,
    rows: usize,
    cells: Vec<Vec<usize>>,
    len: usize,
}

impl UniformGrid {
    /// Creates an empty grid of `cols × rows` cells spanning `bounds`.
    ///
    /// # Panics
    /// Panics if `cols` or `rows` is zero or `bounds` is empty.
    pub fn new(bounds: BoundingBox, cols: usize, rows: usize) -> Self {
        assert!(cols > 0 && rows > 0, "grid dimensions must be positive");
        assert!(!bounds.is_empty(), "grid bounds must be non-empty");
        Self {
            bounds,
            cols,
            rows,
            cells: vec![Vec::new(); cols * rows],
            len: 0,
        }
    }

    /// Creates a square grid with `side × side` cells.
    pub fn square(bounds: BoundingBox, side: usize) -> Self {
        Self::new(bounds, side, side)
    }

    /// Grid spanning the bounding box of `points` with all points inserted,
    /// ids being their position in the slice.
    pub fn build(points: &[Point], cols: usize, rows: usize) -> Self {
        let bounds = BoundingBox::from_points(points);
        let bounds = if bounds.is_empty() {
            BoundingBox::new(0.0, 0.0, 1.0, 1.0)
        } else if bounds.width() == 0.0 || bounds.height() == 0.0 {
            // Degenerate (collinear) data still needs a 2-D extent.
            bounds.padded(1e-9)
        } else {
            bounds
        };
        let mut grid = Self::new(bounds, cols, rows);
        for (i, p) in points.iter().enumerate() {
            grid.insert(i, p);
        }
        grid
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of inserted points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no points have been inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The extent the grid covers.
    pub fn bounds(&self) -> BoundingBox {
        self.bounds
    }

    /// The `(col, row)` cell a point falls into (clamped to the grid).
    pub fn cell_of(&self, p: &Point) -> (usize, usize) {
        let fx = (p.x - self.bounds.min_x) / self.bounds.width();
        let fy = (p.y - self.bounds.min_y) / self.bounds.height();
        let col = ((fx * self.cols as f64).floor() as isize).clamp(0, self.cols as isize - 1);
        let row = ((fy * self.rows as f64).floor() as isize).clamp(0, self.rows as isize - 1);
        (col as usize, row as usize)
    }

    /// Linear index of a `(col, row)` cell.
    #[inline]
    fn cell_index(&self, col: usize, row: usize) -> usize {
        row * self.cols + col
    }

    /// Inserts a point id into its cell.
    pub fn insert(&mut self, id: usize, p: &Point) {
        let (col, row) = self.cell_of(p);
        let idx = self.cell_index(col, row);
        self.cells[idx].push(id);
        self.len += 1;
    }

    /// Ids stored in the `(col, row)` cell.
    ///
    /// # Panics
    /// Panics if the cell coordinates are out of range.
    pub fn cell(&self, col: usize, row: usize) -> &[usize] {
        assert!(col < self.cols && row < self.rows, "cell out of range");
        &self.cells[self.cell_index(col, row)]
    }

    /// Number of cells that contain at least one point.
    pub fn occupied_cells(&self) -> usize {
        self.cells.iter().filter(|c| !c.is_empty()).count()
    }

    /// Iterates `(col, row, ids)` over all non-empty cells.
    fn iter_occupied(&self) -> impl Iterator<Item = (usize, usize, &[usize])> {
        self.cells.iter().enumerate().filter_map(move |(i, ids)| {
            if ids.is_empty() {
                None
            } else {
                Some((i % self.cols, i / self.cols, ids.as_slice()))
            }
        })
    }

    /// The rectangle in data coordinates covered by a `(col, row)` cell.
    pub fn cell_bounds(&self, col: usize, row: usize) -> BoundingBox {
        assert!(col < self.cols && row < self.rows, "cell out of range");
        let cw = self.bounds.width() / self.cols as f64;
        let ch = self.bounds.height() / self.rows as f64;
        BoundingBox::new(
            self.bounds.min_x + col as f64 * cw,
            self.bounds.min_y + row as f64 * ch,
            self.bounds.min_x + (col + 1) as f64 * cw,
            self.bounds.min_y + (row + 1) as f64 * ch,
        )
    }

    /// Writes the ids of all points whose cell intersects `region` into
    /// `out`, clearing it first. This over-approximates a precise region
    /// query (cells straddling the border are returned whole); callers
    /// needing exactness filter by the original coordinates. The buffer's
    /// capacity is retained across calls, so a reused buffer makes per-frame
    /// queries allocation-free in the steady state.
    pub fn query_region_cells_into(&self, region: &BoundingBox, out: &mut Vec<usize>) {
        out.clear();
        for (col, row, ids) in self.iter_occupied() {
            if self.cell_bounds(col, row).intersects(region) {
                out.extend_from_slice(ids);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn unit_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
            .collect()
    }

    #[test]
    fn build_and_counts() {
        let pts = unit_points(1_000, 1);
        let g = UniformGrid::build(&pts, 10, 10);
        assert_eq!(g.len(), 1_000);
        assert_eq!(g.cells.len(), 100);
        assert_eq!(g.cells.iter().map(Vec::len).sum::<usize>(), 1_000);
        // With 1000 uniform points over 100 cells nearly every cell is occupied.
        assert!(g.occupied_cells() > 90);
    }

    #[test]
    fn points_map_to_correct_cells() {
        let bounds = BoundingBox::new(0.0, 0.0, 10.0, 10.0);
        let g = UniformGrid::new(bounds, 10, 10);
        assert_eq!(g.cell_of(&Point::new(0.5, 0.5)), (0, 0));
        assert_eq!(g.cell_of(&Point::new(9.5, 0.5)), (9, 0));
        assert_eq!(g.cell_of(&Point::new(5.0, 5.0)), (5, 5));
        // Max corner clamps into the last cell.
        assert_eq!(g.cell_of(&Point::new(10.0, 10.0)), (9, 9));
        // Out-of-range points clamp to border cells.
        assert_eq!(g.cell_of(&Point::new(-5.0, 100.0)), (0, 9));
    }

    #[test]
    fn cell_bounds_tile_the_extent() {
        let bounds = BoundingBox::new(-1.0, -1.0, 1.0, 1.0);
        let g = UniformGrid::new(bounds, 4, 4);
        let mut area = 0.0;
        for row in 0..4 {
            for col in 0..4 {
                area += g.cell_bounds(col, row).area();
            }
        }
        assert!((area - bounds.area()).abs() < 1e-12);
        assert_eq!(
            g.cell_bounds(0, 0),
            BoundingBox::new(-1.0, -1.0, -0.5, -0.5)
        );
    }

    #[test]
    fn insert_and_cell_lookup() {
        let bounds = BoundingBox::new(0.0, 0.0, 1.0, 1.0);
        let mut g = UniformGrid::new(bounds, 2, 2);
        g.insert(7, &Point::new(0.25, 0.25));
        g.insert(8, &Point::new(0.75, 0.75));
        g.insert(9, &Point::new(0.76, 0.80));
        assert_eq!(g.cell(0, 0), &[7]);
        assert_eq!(g.cell(1, 1), &[8, 9]);
        assert!(g.cell(1, 0).is_empty());
        assert_eq!(g.occupied_cells(), 2);
    }

    #[test]
    fn query_region_cells_superset_of_exact() {
        let pts = unit_points(500, 2);
        let g = UniformGrid::build(&pts, 20, 20);
        let region = BoundingBox::new(0.2, 0.2, 0.4, 0.6);
        let mut ids = Vec::new();
        g.query_region_cells_into(&region, &mut ids);
        // Every point truly inside the region must be returned.
        for (i, p) in pts.iter().enumerate() {
            if region.contains(p) {
                assert!(ids.contains(&i), "missing point {i}");
            }
        }
    }

    #[test]
    fn query_region_cells_into_reuses_the_buffer() {
        let pts = unit_points(400, 7);
        let g = UniformGrid::build(&pts, 16, 16);
        let region = BoundingBox::new(0.1, 0.1, 0.5, 0.9);
        let mut buf = Vec::new();
        g.query_region_cells_into(&region, &mut buf);
        let first = buf.len();
        let cap = buf.capacity();
        // A smaller follow-up query clears but does not shrink the buffer.
        g.query_region_cells_into(&BoundingBox::new(0.0, 0.0, 0.05, 0.05), &mut buf);
        assert!(buf.len() < first);
        assert_eq!(buf.capacity(), cap);
    }

    #[test]
    fn degenerate_input_handled() {
        // All points identical → zero-area bounds padded internally.
        let pts = vec![Point::new(3.0, 3.0); 10];
        let g = UniformGrid::build(&pts, 4, 4);
        assert_eq!(g.len(), 10);
        // Empty input also works.
        let g2 = UniformGrid::build(&[], 4, 4);
        assert!(g2.is_empty());
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dimensions_rejected() {
        let _ = UniformGrid::new(BoundingBox::new(0.0, 0.0, 1.0, 1.0), 0, 5);
    }

    #[test]
    #[should_panic(expected = "cell out of range")]
    fn out_of_range_cell_rejected() {
        let g = UniformGrid::new(BoundingBox::new(0.0, 0.0, 1.0, 1.0), 2, 2);
        let _ = g.cell(2, 0);
    }

    #[test]
    fn iter_occupied_reports_correct_coordinates() {
        let bounds = BoundingBox::new(0.0, 0.0, 1.0, 1.0);
        let mut g = UniformGrid::new(bounds, 3, 3);
        g.insert(0, &Point::new(0.9, 0.1)); // col 2, row 0
        let occupied: Vec<(usize, usize)> = g.iter_occupied().map(|(c, r, _)| (c, r)).collect();
        assert_eq!(occupied, vec![(2, 0)]);
    }
}
