//! The tile pyramid: multi-resolution pre-aggregated counts.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use vas_data::{BoundingBox, Dataset, Point};

/// Configuration of a [`TilePyramid`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TilePyramidConfig {
    /// Deepest level to materialize; level `l` is a `2^l × 2^l` grid, so the
    /// finest grid has `4^max_level` potential cells.
    pub max_level: u8,
}

impl Default for TilePyramidConfig {
    fn default() -> Self {
        Self { max_level: 9 } // 512 × 512 at the finest level
    }
}

/// One aggregated cell of the pyramid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TileCell {
    /// Grid column at the cell's level.
    pub col: u32,
    /// Grid row at the cell's level.
    pub row: u32,
    /// Number of tuples that fall in the cell.
    pub count: u64,
    /// Sum of the tuples' `value` attribute (for average-value heatmaps).
    pub value_sum: f64,
}

impl TileCell {
    /// Mean attribute value of the tuples aggregated into this cell.
    pub fn mean_value(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.value_sum / self.count as f64
        }
    }
}

/// A multi-resolution grid of pre-aggregated counts over a fixed extent.
///
/// Only non-empty cells are stored (sparse representation), which is what
/// makes the approach viable for skewed data; the storage cost reported by
/// [`total_cells`](TilePyramid::total_cells) is therefore the number of
/// non-empty cells across all levels.
#[derive(Debug, Clone)]
pub struct TilePyramid {
    bounds: BoundingBox,
    config: TilePyramidConfig,
    /// `levels[l]` maps `(col, row)` to the aggregated cell at level `l`.
    levels: Vec<HashMap<(u32, u32), TileCell>>,
    n_points: u64,
}

impl TilePyramid {
    /// Builds the pyramid from a dataset in a single pass over the points
    /// (each point updates one cell per level).
    ///
    /// # Panics
    /// Panics if the dataset is empty (there is no extent to aggregate over).
    pub fn build(dataset: &Dataset, config: TilePyramidConfig) -> Self {
        assert!(!dataset.is_empty(), "cannot aggregate an empty dataset");
        let raw = dataset.bounds();
        // Degenerate extents (all points collinear) still need 2-D cells.
        let bounds = if raw.width() == 0.0 || raw.height() == 0.0 {
            raw.padded(1e-9)
        } else {
            raw
        };
        let mut levels: Vec<HashMap<(u32, u32), TileCell>> =
            vec![HashMap::new(); config.max_level as usize + 1];

        for p in dataset.iter() {
            for (level, cells) in levels.iter_mut().enumerate() {
                let (col, row) = cell_of(&bounds, p, level as u8);
                let entry = cells.entry((col, row)).or_insert(TileCell {
                    col,
                    row,
                    count: 0,
                    value_sum: 0.0,
                });
                entry.count += 1;
                entry.value_sum += p.value;
            }
        }

        Self {
            bounds,
            config,
            levels,
            n_points: dataset.len() as u64,
        }
    }

    /// The extent the pyramid covers.
    pub fn bounds(&self) -> BoundingBox {
        self.bounds
    }

    /// The deepest materialized level.
    pub fn max_level(&self) -> u8 {
        self.config.max_level
    }

    /// Number of tuples aggregated.
    pub fn n_points(&self) -> u64 {
        self.n_points
    }

    /// Number of non-empty cells stored across all levels — the storage
    /// footprint of the "index".
    pub fn total_cells(&self) -> usize {
        self.levels.iter().map(HashMap::len).sum()
    }

    /// The level whose cell size best matches rendering `region` onto a
    /// canvas `pixels` wide: the shallowest level whose cells are no larger
    /// than a pixel, capped at `max_level`. This is the "choose a bin size
    /// ahead of time" limitation in executable form — beyond `max_level` the
    /// answer stops getting sharper.
    fn level_for(&self, region: &BoundingBox, pixels: usize) -> u8 {
        let pixels = pixels.max(1) as f64;
        // Cell width at level l is extent_width / 2^l; we want it <= region_width / pixels.
        let mut level = 0u8;
        while level < self.config.max_level {
            let cell_w = self.bounds.width() / 2f64.powi(level as i32);
            let cell_h = self.bounds.height() / 2f64.powi(level as i32);
            let target_w = region.width() / pixels;
            let target_h = region.height() / pixels;
            if cell_w <= target_w && cell_h <= target_h {
                break;
            }
            level += 1;
        }
        level
    }

    /// The non-empty cells at `level` that intersect `region`, together with
    /// their rectangles in data coordinates.
    ///
    /// Callers issuing one query per rendered frame should reuse a buffer
    /// through [`query_for_render_into`](Self::query_for_render_into).
    pub fn query(&self, region: &BoundingBox, level: u8) -> Vec<(BoundingBox, TileCell)> {
        let mut out = Vec::new();
        self.query_into(region, level, &mut out);
        out
    }

    /// Writes the non-empty cells at `level` that intersect `region` into
    /// `out`, clearing it first. The buffer's capacity is retained across
    /// calls, so a reused buffer makes per-frame queries allocation-free in
    /// the steady state.
    fn query_into(&self, region: &BoundingBox, level: u8, out: &mut Vec<(BoundingBox, TileCell)>) {
        out.clear();
        let level = level.min(self.config.max_level);
        let cells = &self.levels[level as usize];
        for cell in cells.values() {
            let bb = self.cell_bounds(level, cell.col, cell.row);
            if bb.intersects(region) {
                out.push((bb, *cell));
            }
        }
    }

    /// Convenience: query at the level appropriate for a `pixels`-wide render
    /// of `region`.
    pub fn query_for_render(
        &self,
        region: &BoundingBox,
        pixels: usize,
    ) -> (u8, Vec<(BoundingBox, TileCell)>) {
        let level = self.level_for(region, pixels);
        (level, self.query(region, level))
    }

    /// Buffer-reusing form of [`query_for_render`](Self::query_for_render):
    /// fills `out` and returns the chosen level.
    pub fn query_for_render_into(
        &self,
        region: &BoundingBox,
        pixels: usize,
        out: &mut Vec<(BoundingBox, TileCell)>,
    ) -> u8 {
        let level = self.level_for(region, pixels);
        self.query_into(region, level, out);
        level
    }

    /// Total tuple count inside `region`, computed from the finest level
    /// (cells partially overlapping the region are counted whole; binned
    /// aggregation cannot do better without touching raw data).
    pub fn approximate_count(&self, region: &BoundingBox) -> u64 {
        self.query(region, self.config.max_level)
            .iter()
            .map(|(_, c)| c.count)
            .sum()
    }

    /// The rectangle covered by a cell.
    pub fn cell_bounds(&self, level: u8, col: u32, row: u32) -> BoundingBox {
        let side = 2u32.pow(level as u32) as f64;
        let w = self.bounds.width() / side;
        let h = self.bounds.height() / side;
        BoundingBox::new(
            self.bounds.min_x + col as f64 * w,
            self.bounds.min_y + row as f64 * h,
            self.bounds.min_x + (col + 1) as f64 * w,
            self.bounds.min_y + (row + 1) as f64 * h,
        )
    }
}

/// The `(col, row)` cell a point falls into at `level` (clamped to the grid).
fn cell_of(bounds: &BoundingBox, p: &Point, level: u8) -> (u32, u32) {
    let side = 2u32.pow(level as u32);
    let fx = (p.x - bounds.min_x) / bounds.width();
    let fy = (p.y - bounds.min_y) / bounds.height();
    let col = ((fx * side as f64).floor() as i64).clamp(0, side as i64 - 1) as u32;
    let row = ((fy * side as f64).floor() as i64).clamp(0, side as i64 - 1) as u32;
    (col, row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vas_data::GeolifeGenerator;

    fn dataset() -> Dataset {
        GeolifeGenerator::with_size(20_000, 91).generate()
    }

    fn pyramid(max_level: u8) -> TilePyramid {
        TilePyramid::build(&dataset(), TilePyramidConfig { max_level })
    }

    #[test]
    fn counts_are_conserved_at_every_level() {
        let p = pyramid(6);
        for level in 0..=6u8 {
            let total: u64 = p
                .query(&p.bounds(), level)
                .iter()
                .map(|(_, c)| c.count)
                .sum();
            assert_eq!(total, p.n_points(), "level {level}");
        }
        // Level 0 has exactly one cell containing everything.
        assert_eq!(p.levels[0].len(), 1);
    }

    #[test]
    fn value_sums_are_conserved() {
        let d = dataset();
        let p = TilePyramid::build(&d, TilePyramidConfig { max_level: 5 });
        let expected: f64 = d.points.iter().map(|pt| pt.value).sum();
        for level in [0u8, 3, 5] {
            let total: f64 = p
                .query(&p.bounds(), level)
                .iter()
                .map(|(_, c)| c.value_sum)
                .sum();
            assert!((total - expected).abs() < 1e-6 * expected.abs().max(1.0));
        }
    }

    #[test]
    fn deeper_levels_store_more_cells() {
        let p = pyramid(8);
        let mut prev = 0usize;
        for level in 0..=8u8 {
            let cells = p.levels[level as usize].len();
            assert!(cells >= prev, "level {level} has fewer cells than {prev}");
            prev = cells;
        }
        assert!(p.total_cells() > p.levels[8].len());
    }

    #[test]
    fn level_selection_matches_resolution() {
        let p = pyramid(9);
        let overview = p.bounds();
        // Rendering the full extent at 512 px needs level 9 (2^9 = 512 cells).
        assert_eq!(p.level_for(&overview, 512), 9);
        // A tiny canvas needs only a shallow level.
        assert!(p.level_for(&overview, 4) <= 2);
        // Zooming into 1/8 of the extent per axis at 512 px would need level
        // 12 — more than materialized, so the answer saturates at max_level.
        let zoom = overview.subregion(0.4, 0.4, 0.525, 0.525);
        assert_eq!(p.level_for(&zoom, 512), 9);
    }

    #[test]
    fn query_returns_only_intersecting_cells() {
        let p = pyramid(6);
        let region = p.bounds().subregion(0.0, 0.0, 0.25, 0.25);
        for (bb, _) in p.query(&region, 6) {
            assert!(bb.intersects(&region));
        }
    }

    #[test]
    fn approximate_count_brackets_the_true_count() {
        let d = dataset();
        let p = TilePyramid::build(&d, TilePyramidConfig { max_level: 9 });
        let region = p.bounds().subregion(0.3, 0.3, 0.6, 0.7);
        let truth = d.filter_region(&region).len() as u64;
        let approx = p.approximate_count(&region);
        // Whole-cell counting can only over-count, and at level 9 the
        // over-count is bounded by the boundary cells.
        assert!(approx >= truth);
        assert!(
            (approx as f64) <= (truth as f64) * 1.3 + 50.0,
            "approx {approx} vs truth {truth}"
        );
    }

    #[test]
    fn deep_zoom_resolution_is_capped() {
        // The limitation the paper calls out: beyond the pre-chosen bin size,
        // zooming in does not reveal more cells.
        let p = pyramid(5);
        let tiny = p.bounds().subregion(0.5, 0.5, 0.501, 0.501);
        let (level, cells) = p.query_for_render(&tiny, 512);
        assert_eq!(level, 5);
        assert!(
            cells.len() <= 4,
            "deep zoom shows only {} coarse cells",
            cells.len()
        );
    }

    #[test]
    fn degenerate_collinear_data_is_handled() {
        let d = Dataset::from_points(
            "line",
            (0..100).map(|i| Point::new(i as f64, 5.0)).collect(),
        );
        let p = TilePyramid::build(&d, TilePyramidConfig { max_level: 4 });
        assert_eq!(p.n_points(), 100);
        assert_eq!(p.approximate_count(&p.bounds()), 100);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn rejects_empty_dataset() {
        let empty = Dataset::from_points("none", vec![]);
        let _ = TilePyramid::build(&empty, TilePyramidConfig::default());
    }
}
