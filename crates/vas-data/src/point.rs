//! Fundamental geometric types: [`Point`] and [`BoundingBox`].
//!
//! Every dataset handled by the VAS reproduction is a collection of 2-D
//! points. Points optionally carry a scalar `value` (e.g. altitude in a map
//! plot) which is encoded by color or dot size at render time but is never
//! consulted by the sampling algorithms themselves — exactly as in the paper,
//! where the sample is selected purely from the (x, y) coordinates.

use serde::{Deserialize, Serialize};

/// A 2-D data point with an optional scalar attribute.
///
/// `x` and `y` are the plot coordinates (e.g. longitude / latitude);
/// `value` is an attached measure (e.g. altitude) used for color encoding.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Point {
    /// Horizontal plot coordinate.
    pub x: f64,
    /// Vertical plot coordinate.
    pub y: f64,
    /// Attached scalar attribute (altitude, measurement, ...). Defaults to 0.
    pub value: f64,
}

impl Point {
    /// Creates a point with a zero attribute value.
    #[inline]
    pub fn new(x: f64, y: f64) -> Self {
        Self { x, y, value: 0.0 }
    }

    /// Creates a point carrying a scalar attribute.
    #[inline]
    pub fn with_value(x: f64, y: f64, value: f64) -> Self {
        Self { x, y, value }
    }

    /// Squared Euclidean distance between the plot coordinates of two points.
    ///
    /// The attribute value does not participate in distances; VAS only reasons
    /// about where a point lands on the 2-D canvas.
    #[inline]
    pub fn dist2(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Euclidean distance between the plot coordinates of two points.
    #[inline]
    pub fn dist(&self, other: &Point) -> f64 {
        self.dist2(other).sqrt()
    }

    /// Returns `true` if both coordinates are finite numbers.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }

    /// `true` when both points carry identical bits in every field, the
    /// identity of a tuple. Unlike `==`, a NaN `value` matches itself and
    /// `-0.0` does not match `0.0`.
    #[inline]
    pub fn same_bits(&self, other: &Point) -> bool {
        self.x.to_bits() == other.x.to_bits()
            && self.y.to_bits() == other.y.to_bits()
            && self.value.to_bits() == other.value.to_bits()
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

impl From<(f64, f64, f64)> for Point {
    fn from((x, y, value): (f64, f64, f64)) -> Self {
        Point::with_value(x, y, value)
    }
}

/// An axis-aligned rectangle in plot coordinates.
///
/// Bounding boxes describe dataset extents, zoom viewports, stratification
/// bins and grid cells. An *empty* box (`min > max`) is the identity
/// element of [`BoundingBox::union`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoundingBox {
    /// Smallest x coordinate contained in the box.
    pub min_x: f64,
    /// Smallest y coordinate contained in the box.
    pub min_y: f64,
    /// Largest x coordinate contained in the box.
    pub max_x: f64,
    /// Largest y coordinate contained in the box.
    pub max_y: f64,
}

impl BoundingBox {
    /// A degenerate, empty bounding box: the identity for [`union`](Self::union).
    pub const EMPTY: BoundingBox = BoundingBox {
        min_x: f64::INFINITY,
        min_y: f64::INFINITY,
        max_x: f64::NEG_INFINITY,
        max_y: f64::NEG_INFINITY,
    };

    /// Creates a box from explicit bounds. Bounds are not reordered; callers
    /// should pass `min <= max` unless they intend an empty box.
    #[inline]
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        Self {
            min_x,
            min_y,
            max_x,
            max_y,
        }
    }

    /// The degenerate box containing exactly one point.
    #[inline]
    pub fn from_point(p: &Point) -> Self {
        Self::new(p.x, p.y, p.x, p.y)
    }

    /// Smallest box containing every point of `points`; [`EMPTY`](Self::EMPTY)
    /// if the slice is empty.
    pub fn from_points(points: &[Point]) -> Self {
        let mut bb = Self::EMPTY;
        for p in points {
            bb.extend(p);
        }
        bb
    }

    /// Returns `true` for a box that contains nothing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min_x > self.max_x || self.min_y > self.max_y
    }

    /// Box width (`0` when empty).
    #[inline]
    pub fn width(&self) -> f64 {
        (self.max_x - self.min_x).max(0.0)
    }

    /// Box height (`0` when empty).
    #[inline]
    pub fn height(&self) -> f64 {
        (self.max_y - self.min_y).max(0.0)
    }

    /// Area of the box (`0` when empty).
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Length of the diagonal. The paper sets the kernel bandwidth ε relative
    /// to the maximum pairwise distance, which this approximates cheaply.
    #[inline]
    pub fn diagonal(&self) -> f64 {
        (self.width().powi(2) + self.height().powi(2)).sqrt()
    }

    /// Center of the box.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new(
            (self.min_x + self.max_x) / 2.0,
            (self.min_y + self.max_y) / 2.0,
        )
    }

    /// Returns `true` if the point lies inside the box (inclusive bounds).
    #[inline]
    pub fn contains(&self, p: &Point) -> bool {
        p.x >= self.min_x && p.x <= self.max_x && p.y >= self.min_y && p.y <= self.max_y
    }

    /// Returns `true` if `other` lies entirely within `self`.
    #[inline]
    pub fn contains_box(&self, other: &BoundingBox) -> bool {
        if other.is_empty() {
            return true;
        }
        self.min_x <= other.min_x
            && self.min_y <= other.min_y
            && self.max_x >= other.max_x
            && self.max_y >= other.max_y
    }

    /// Returns `true` if the two boxes share at least one point.
    #[inline]
    pub fn intersects(&self, other: &BoundingBox) -> bool {
        !(self.is_empty()
            || other.is_empty()
            || self.min_x > other.max_x
            || other.min_x > self.max_x
            || self.min_y > other.max_y
            || other.min_y > self.max_y)
    }

    /// Grows the box to include `p`.
    #[inline]
    pub fn extend(&mut self, p: &Point) {
        self.min_x = self.min_x.min(p.x);
        self.min_y = self.min_y.min(p.y);
        self.max_x = self.max_x.max(p.x);
        self.max_y = self.max_y.max(p.y);
    }

    /// Grows the box to include `p` if both its coordinates are finite, and
    /// leaves it unchanged otherwise.
    ///
    /// This is the extent the kernel-bandwidth rule reads, in memory and
    /// streaming alike: the sampler never admits a point with a non-finite
    /// coordinate, so such a point must not stretch ε either (one infinite
    /// coordinate would make the diagonal infinite).
    #[inline]
    pub fn extend_finite(&mut self, p: &Point) {
        if p.is_finite() {
            self.extend(p);
        }
    }

    /// Smallest box containing both inputs.
    #[inline]
    pub fn union(&self, other: &BoundingBox) -> BoundingBox {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        BoundingBox::new(
            self.min_x.min(other.min_x),
            self.min_y.min(other.min_y),
            self.max_x.max(other.max_x),
            self.max_y.max(other.max_y),
        )
    }

    /// Intersection of the two boxes; empty if they do not overlap.
    #[inline]
    pub fn intersection(&self, other: &BoundingBox) -> BoundingBox {
        let b = BoundingBox::new(
            self.min_x.max(other.min_x),
            self.min_y.max(other.min_y),
            self.max_x.min(other.max_x),
            self.max_y.min(other.max_y),
        );
        if b.is_empty() {
            BoundingBox::EMPTY
        } else {
            b
        }
    }

    /// Expands the box by `pad` on all four sides.
    #[inline]
    pub fn padded(&self, pad: f64) -> BoundingBox {
        BoundingBox::new(
            self.min_x - pad,
            self.min_y - pad,
            self.max_x + pad,
            self.max_y + pad,
        )
    }

    /// A sub-rectangle expressed in normalized coordinates of this box, where
    /// `(0,0)` is the lower-left corner and `(1,1)` the upper-right corner.
    ///
    /// Zoom workloads use this to carve deterministic zoom viewports out of a
    /// dataset extent.
    pub fn subregion(&self, fx0: f64, fy0: f64, fx1: f64, fy1: f64) -> BoundingBox {
        BoundingBox::new(
            self.min_x + fx0 * self.width(),
            self.min_y + fy0 * self.height(),
            self.min_x + fx1 * self.width(),
            self.min_y + fy1 * self.height(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_distance() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.dist2(&b), 25.0);
        assert_eq!(a.dist(&b), 5.0);
        assert_eq!(a.dist(&a), 0.0);
    }

    #[test]
    fn point_value_does_not_affect_distance() {
        let a = Point::with_value(1.0, 1.0, 100.0);
        let b = Point::with_value(1.0, 1.0, -3.0);
        assert_eq!(a.dist(&b), 0.0);
    }

    #[test]
    fn point_conversions() {
        let p: Point = (1.0, 2.0).into();
        assert_eq!(p.value, 0.0);
        let q: Point = (1.0, 2.0, 3.0).into();
        assert_eq!(q.value, 3.0);
        assert!(p.is_finite());
        assert!(!Point::new(f64::NAN, 0.0).is_finite());
    }

    #[test]
    fn bbox_empty_identity() {
        let e = BoundingBox::EMPTY;
        assert!(e.is_empty());
        assert_eq!(e.area(), 0.0);
        let b = BoundingBox::new(0.0, 0.0, 2.0, 3.0);
        assert_eq!(e.union(&b), b);
        assert_eq!(b.union(&e), b);
        assert!(!e.intersects(&b));
    }

    #[test]
    fn bbox_from_points_and_contains() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(5.0, 1.0),
            Point::new(-2.0, 3.0),
        ];
        let bb = BoundingBox::from_points(&pts);
        assert_eq!(bb, BoundingBox::new(-2.0, 0.0, 5.0, 3.0));
        for p in &pts {
            assert!(bb.contains(p));
        }
        assert!(!bb.contains(&Point::new(10.0, 10.0)));
        assert_eq!(BoundingBox::from_points(&[]), BoundingBox::EMPTY);
    }

    #[test]
    fn bbox_union_intersection() {
        let a = BoundingBox::new(0.0, 0.0, 2.0, 2.0);
        let b = BoundingBox::new(1.0, 1.0, 3.0, 3.0);
        assert!(a.intersects(&b));
        assert_eq!(a.union(&b), BoundingBox::new(0.0, 0.0, 3.0, 3.0));
        assert_eq!(a.intersection(&b), BoundingBox::new(1.0, 1.0, 2.0, 2.0));
        let c = BoundingBox::new(10.0, 10.0, 11.0, 11.0);
        assert!(!a.intersects(&c));
        assert!(a.intersection(&c).is_empty());
    }

    #[test]
    fn bbox_contains_box() {
        let outer = BoundingBox::new(0.0, 0.0, 10.0, 10.0);
        let inner = BoundingBox::new(2.0, 2.0, 3.0, 3.0);
        assert!(outer.contains_box(&inner));
        assert!(!inner.contains_box(&outer));
        assert!(outer.contains_box(&BoundingBox::EMPTY));
    }

    #[test]
    fn bbox_geometry_measures() {
        let b = BoundingBox::new(0.0, 0.0, 3.0, 4.0);
        assert_eq!(b.width(), 3.0);
        assert_eq!(b.height(), 4.0);
        assert_eq!(b.area(), 12.0);
        assert_eq!(b.diagonal(), 5.0);
        assert_eq!(b.center(), Point::new(1.5, 2.0));
    }

    #[test]
    fn bbox_subregion_and_padding() {
        let b = BoundingBox::new(0.0, 0.0, 10.0, 20.0);
        let s = b.subregion(0.25, 0.5, 0.75, 1.0);
        assert_eq!(s, BoundingBox::new(2.5, 10.0, 7.5, 20.0));
        let p = b.padded(1.0);
        assert_eq!(p, BoundingBox::new(-1.0, -1.0, 11.0, 21.0));
    }
}
