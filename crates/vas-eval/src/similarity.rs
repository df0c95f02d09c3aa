//! Bitmap-level similarity between a sample's plot and the full-data plot.
//!
//! The loss function of Section III measures fidelity in *data space*. A
//! complementary, renderer-centric view asks: if the full dataset and the
//! sample are rasterized into the same viewport, how similar are the two
//! images a viewer actually sees? This module provides that measure — the
//! Jaccard overlap and per-cell density correlation of the two bitmaps —
//! which the `binned_comparison` experiment reports next to the loss.

use vas_viz::{Canvas, Color};

/// Jaccard overlap of the inked-pixel sets of two equally-sized canvases.
pub fn ink_jaccard(a: &Canvas, b: &Canvas) -> f64 {
    assert_eq!(a.width(), b.width());
    assert_eq!(a.height(), b.height());
    let mut intersection = 0usize;
    let mut union = 0usize;
    for y in 0..a.height() {
        for x in 0..a.width() {
            let ia = a.get(x, y) != Color::WHITE;
            let ib = b.get(x, y) != Color::WHITE;
            if ia || ib {
                union += 1;
            }
            if ia && ib {
                intersection += 1;
            }
        }
    }
    if union == 0 {
        1.0 // both blank: trivially identical
    } else {
        intersection as f64 / union as f64
    }
}

/// Pearson correlation of per-cell ink fractions of two canvases over a
/// `grid_side × grid_side` partition (0 when either image is blank/constant).
pub fn density_correlation(a: &Canvas, b: &Canvas, grid_side: usize) -> f64 {
    let fractions = |c: &Canvas| -> Vec<f64> {
        let side = grid_side.max(1);
        let mut out = Vec::with_capacity(side * side);
        for row in 0..side {
            for col in 0..side {
                let x0 = col * c.width() / side;
                let x1 = ((col + 1) * c.width() / side).max(x0 + 1);
                let y0 = row * c.height() / side;
                let y1 = ((row + 1) * c.height() / side).max(y0 + 1);
                out.push(c.ink_fraction_in_rect(Color::WHITE, x0, y0, x1, y1));
            }
        }
        out
    };
    crate::stats::pearson(&fractions(a), &fractions(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jaccard_edge_cases() {
        let a = Canvas::white(10, 10);
        let b = Canvas::white(10, 10);
        assert_eq!(ink_jaccard(&a, &b), 1.0);
        let mut c = Canvas::white(10, 10);
        c.set(0, 0, Color::BLACK);
        assert_eq!(ink_jaccard(&a, &c), 0.0);
        assert_eq!(ink_jaccard(&c, &c), 1.0);
    }

    #[test]
    fn density_correlation_blank_is_zero() {
        let a = Canvas::white(32, 32);
        let b = Canvas::white(32, 32);
        assert_eq!(density_correlation(&a, &b, 8), 0.0);
    }
}
