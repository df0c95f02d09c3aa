//! The viewport: mapping data coordinates to pixel coordinates.
//!
//! A viewport couples a data-space rectangle (what the user is looking at)
//! with a pixel-space canvas size. Zooming and panning produce new viewports;
//! the renderer only ever consumes the final transform. The y axis is flipped
//! so larger data-y values appear towards the top of the image, matching
//! conventional plot orientation.

use vas_data::{BoundingBox, Point};

/// A data-space window rendered onto a `width × height` pixel canvas.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Viewport {
    region: BoundingBox,
    width: usize,
    height: usize,
}

impl Viewport {
    /// Creates a viewport showing `region` on a `width × height` canvas.
    ///
    /// # Panics
    /// Panics if the region is empty/degenerate or a dimension is zero.
    pub fn new(region: BoundingBox, width: usize, height: usize) -> Self {
        assert!(
            width > 0 && height > 0,
            "viewport dimensions must be positive"
        );
        assert!(
            !region.is_empty() && region.width() > 0.0 && region.height() > 0.0,
            "viewport region must have positive area"
        );
        Self {
            region,
            width,
            height,
        }
    }

    /// A viewport covering the bounding box of `points`, padded by 2% so
    /// border points do not land exactly on the canvas edge.
    ///
    /// # Panics
    /// Panics if `points` is empty or degenerate (all identical).
    pub fn fit(points: &[Point], width: usize, height: usize) -> Self {
        let bounds = BoundingBox::from_points(points);
        assert!(!bounds.is_empty(), "cannot fit a viewport to no points");
        let pad = (bounds.diagonal() * 0.02).max(1e-9);
        Self::new(bounds.padded(pad), width, height)
    }

    /// The data-space region shown.
    pub fn region(&self) -> BoundingBox {
        self.region
    }

    /// Canvas width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Canvas height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Maps a data point to (possibly out-of-canvas) pixel coordinates.
    /// Row 0 is the top of the image.
    pub fn to_pixel(&self, p: &Point) -> (isize, isize) {
        let fx = (p.x - self.region.min_x) / self.region.width();
        let fy = (p.y - self.region.min_y) / self.region.height();
        let x = (fx * (self.width - 1) as f64).round() as isize;
        let y = ((1.0 - fy) * (self.height - 1) as f64).round() as isize;
        (x, y)
    }

    /// Is this data point visible in the viewport?
    pub fn contains(&self, p: &Point) -> bool {
        self.region.contains(p)
    }

    /// A new viewport zoomed by `factor` (>1 zooms in) around `center`
    /// (data coordinates), keeping the canvas size.
    ///
    /// # Panics
    /// Panics if `factor` is not positive.
    pub fn zoomed(&self, center: &Point, factor: f64) -> Viewport {
        assert!(factor > 0.0, "zoom factor must be positive");
        let w = self.region.width() / factor;
        let h = self.region.height() / factor;
        Viewport::new(
            BoundingBox::new(
                center.x - w / 2.0,
                center.y - h / 2.0,
                center.x + w / 2.0,
                center.y + h / 2.0,
            ),
            self.width,
            self.height,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn viewport() -> Viewport {
        Viewport::new(BoundingBox::new(0.0, 0.0, 10.0, 20.0), 101, 201)
    }

    #[test]
    fn corners_map_to_canvas_corners() {
        let v = viewport();
        assert_eq!(v.to_pixel(&Point::new(0.0, 0.0)), (0, 200)); // bottom-left
        assert_eq!(v.to_pixel(&Point::new(10.0, 20.0)), (100, 0)); // top-right
        assert_eq!(v.to_pixel(&Point::new(5.0, 10.0)), (50, 100)); // centre
    }

    #[test]
    fn out_of_region_points_map_outside_canvas() {
        let v = viewport();
        let (x, _) = v.to_pixel(&Point::new(-5.0, 5.0));
        assert!(x < 0);
        assert!(!v.contains(&Point::new(-5.0, 5.0)));
        assert!(v.contains(&Point::new(5.0, 5.0)));
    }

    #[test]
    fn fit_covers_all_points() {
        let pts = vec![
            Point::new(-3.0, 2.0),
            Point::new(7.0, -1.0),
            Point::new(0.0, 9.0),
        ];
        let v = Viewport::fit(&pts, 100, 100);
        for p in &pts {
            assert!(v.contains(p));
            let (x, y) = v.to_pixel(p);
            assert!((0..100).contains(&x) && (0..100).contains(&y));
        }
    }

    #[test]
    fn zoom_shrinks_the_region_around_the_center() {
        let v = viewport();
        let z = v.zoomed(&Point::new(5.0, 10.0), 4.0);
        assert!((z.region().width() - 2.5).abs() < 1e-12);
        assert!((z.region().height() - 5.0).abs() < 1e-12);
        assert_eq!(z.region().center(), Point::new(5.0, 10.0));
        assert_eq!(z.width(), v.width());
        // Zooming out grows the region.
        let out = v.zoomed(&Point::new(5.0, 10.0), 0.5);
        assert!(out.region().width() > v.region().width());
    }

    #[test]
    #[should_panic(expected = "positive area")]
    fn empty_region_rejected() {
        let _ = Viewport::new(BoundingBox::EMPTY, 10, 10);
    }

    #[test]
    #[should_panic(expected = "cannot fit")]
    fn fit_requires_points() {
        let _ = Viewport::fit(&[], 10, 10);
    }
}
