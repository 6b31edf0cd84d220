//! Axis-aligned bounding boxes (minimum bounding rectangles).

use crate::Point;

/// An axis-aligned bounding box over 2-D points.
///
/// Used as the minimum bounding rectangle (MBR) of a trajectory by the
/// R-tree index (`neutraj-index`) and for the paper's centre-area
/// preprocessing step (§VII-A.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    /// Minimum x coordinate.
    pub min_x: f64,
    /// Minimum y coordinate.
    pub min_y: f64,
    /// Maximum x coordinate.
    pub max_x: f64,
    /// Maximum y coordinate.
    pub max_y: f64,
}

impl BoundingBox {
    /// An "empty" box that is the identity for [`BoundingBox::union`]:
    /// expanding it with any point yields that point's degenerate box.
    pub const EMPTY: BoundingBox = BoundingBox {
        min_x: f64::INFINITY,
        min_y: f64::INFINITY,
        max_x: f64::NEG_INFINITY,
        max_y: f64::NEG_INFINITY,
    };

    /// Creates a box from explicit bounds. `min` coordinates must not
    /// exceed `max` coordinates; debug builds assert this.
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        debug_assert!(min_x <= max_x && min_y <= max_y, "inverted bounding box");
        Self {
            min_x,
            min_y,
            max_x,
            max_y,
        }
    }

    /// Degenerate box covering a single point.
    pub fn from_point(p: Point) -> Self {
        Self::new(p.x, p.y, p.x, p.y)
    }

    /// Smallest box covering every point in `points`; [`Self::EMPTY`] when
    /// `points` is empty.
    pub fn from_points(points: &[Point]) -> Self {
        points.iter().fold(Self::EMPTY, |bb, p| bb.expanded_to(*p))
    }

    /// Returns `true` if no point has been accumulated into the box.
    pub fn is_empty(&self) -> bool {
        self.min_x > self.max_x || self.min_y > self.max_y
    }

    /// Box grown to include `p`.
    pub fn expanded_to(&self, p: Point) -> Self {
        BoundingBox {
            min_x: self.min_x.min(p.x),
            min_y: self.min_y.min(p.y),
            max_x: self.max_x.max(p.x),
            max_y: self.max_y.max(p.y),
        }
    }

    /// Smallest box containing both `self` and `other`.
    pub fn union(&self, other: &BoundingBox) -> Self {
        BoundingBox {
            min_x: self.min_x.min(other.min_x),
            min_y: self.min_y.min(other.min_y),
            max_x: self.max_x.max(other.max_x),
            max_y: self.max_y.max(other.max_y),
        }
    }

    /// Returns `true` when `p` lies inside the box (borders inclusive).
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min_x && p.x <= self.max_x && p.y >= self.min_y && p.y <= self.max_y
    }

    /// Returns `true` when `other` lies entirely inside `self`.
    pub fn contains_box(&self, other: &BoundingBox) -> bool {
        !other.is_empty()
            && other.min_x >= self.min_x
            && other.max_x <= self.max_x
            && other.min_y >= self.min_y
            && other.max_y <= self.max_y
    }

    /// Returns `true` when the two boxes overlap (borders inclusive).
    pub fn intersects(&self, other: &BoundingBox) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.min_x <= other.max_x
            && other.min_x <= self.max_x
            && self.min_y <= other.max_y
            && other.min_y <= self.max_y
    }

    /// Width along the x axis (zero for empty boxes).
    pub fn width(&self) -> f64 {
        (self.max_x - self.min_x).max(0.0)
    }

    /// Height along the y axis (zero for empty boxes).
    pub fn height(&self) -> f64 {
        (self.max_y - self.min_y).max(0.0)
    }

    /// Area of the box (zero for empty boxes).
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Half-perimeter, the R-tree "margin" cost.
    pub fn margin(&self) -> f64 {
        self.width() + self.height()
    }

    /// Centre point. Meaningless for empty boxes (debug-asserted).
    pub fn center(&self) -> Point {
        debug_assert!(!self.is_empty(), "center of empty bbox");
        Point::new(
            (self.min_x + self.max_x) * 0.5,
            (self.min_y + self.max_y) * 0.5,
        )
    }

    /// Box expanded outward by `margin` on every side.
    pub fn inflated(&self, margin: f64) -> Self {
        BoundingBox {
            min_x: self.min_x - margin,
            min_y: self.min_y - margin,
            max_x: self.max_x + margin,
            max_y: self.max_y + margin,
        }
    }

    /// Minimum Euclidean distance from `p` to the box (zero if inside).
    pub fn min_dist(&self, p: Point) -> f64 {
        let dx = (self.min_x - p.x).max(0.0).max(p.x - self.max_x);
        let dy = (self.min_y - p.y).max(0.0).max(p.y - self.max_y);
        (dx * dx + dy * dy).sqrt()
    }

    /// Minimum Euclidean distance between two boxes (zero if overlapping).
    pub fn min_dist_box(&self, other: &BoundingBox) -> f64 {
        let dx = (self.min_x - other.max_x)
            .max(0.0)
            .max(other.min_x - self.max_x);
        let dy = (self.min_y - other.max_y)
            .max(0.0)
            .max(other.min_y - self.max_y);
        (dx * dx + dy * dy).sqrt()
    }
}

impl Default for BoundingBox {
    fn default() -> Self {
        Self::EMPTY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_box_behaviour() {
        let e = BoundingBox::EMPTY;
        assert!(e.is_empty());
        assert_eq!(e.area(), 0.0);
        let p = Point::new(3.0, 4.0);
        let b = e.expanded_to(p);
        assert!(!b.is_empty());
        assert_eq!(b, BoundingBox::from_point(p));
    }

    #[test]
    fn from_points_covers_all() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(5.0, -2.0),
            Point::new(-1.0, 7.0),
        ];
        let b = BoundingBox::from_points(&pts);
        for p in pts {
            assert!(b.contains(p));
        }
        assert_eq!(b.min_x, -1.0);
        assert_eq!(b.max_y, 7.0);
        assert_eq!(b.width(), 6.0);
        assert_eq!(b.height(), 9.0);
        assert_eq!(b.area(), 54.0);
    }

    #[test]
    fn union_and_containment() {
        let a = BoundingBox::new(0.0, 0.0, 2.0, 2.0);
        let b = BoundingBox::new(1.0, 1.0, 3.0, 3.0);
        let u = a.union(&b);
        assert!(u.contains_box(&a) && u.contains_box(&b));
        assert!(a.intersects(&b));
        let far = BoundingBox::new(10.0, 10.0, 11.0, 11.0);
        assert!(!a.intersects(&far));
        assert!(!a.contains_box(&far));
    }

    #[test]
    fn min_dist_semantics() {
        let b = BoundingBox::new(0.0, 0.0, 2.0, 2.0);
        assert_eq!(b.min_dist(Point::new(1.0, 1.0)), 0.0);
        assert_eq!(b.min_dist(Point::new(5.0, 2.0)), 3.0);
        assert!((b.min_dist(Point::new(5.0, 6.0)) - 5.0).abs() < 1e-12);
        let c = BoundingBox::new(6.0, 2.0, 7.0, 3.0);
        assert_eq!(b.min_dist_box(&c), 4.0);
        assert_eq!(b.min_dist_box(&b), 0.0);
    }

    #[test]
    fn inflation() {
        let b = BoundingBox::new(0.0, 0.0, 1.0, 1.0).inflated(0.5);
        assert!(b.contains(Point::new(-0.5, 1.5)));
        assert_eq!(b.area(), 4.0);
    }

    #[test]
    fn center_and_margin() {
        let b = BoundingBox::new(0.0, 0.0, 4.0, 2.0);
        assert_eq!(b.center(), Point::new(2.0, 1.0));
        assert_eq!(b.margin(), 6.0);
    }
}
