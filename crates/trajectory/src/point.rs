//! Two-dimensional points.

use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A two-dimensional point in a planar (projected) coordinate system.
///
/// The paper works on "trajectories with similar shape, regardless of the
/// time information" (§III-A), so a point carries no timestamp. Coordinates
/// are in metres within a city-local projection; the synthetic generators in
/// [`crate::gen`] produce coordinates in the same convention.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Easting (metres).
    pub x: f64,
    /// Northing (metres).
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point::new(0.0, 0.0);

    /// Euclidean distance to `other`.
    #[inline]
    pub fn dist(&self, other: &Point) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other`.
    ///
    /// Prefer this in comparison-only hot loops: it avoids the `sqrt`.
    #[inline]
    pub fn dist_sq(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Linear interpolation between `self` and `other`.
    ///
    /// `t = 0` yields `self`, `t = 1` yields `other`. `t` outside `[0, 1]`
    /// extrapolates.
    #[inline]
    pub fn lerp(&self, other: &Point, t: f64) -> Point {
        Point::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }

    /// Euclidean norm of the point treated as a vector.
    #[inline]
    pub fn norm(&self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// Returns `true` when both coordinates are finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Add for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    #[inline]
    fn mul(self, s: f64) -> Point {
        Point::new(self.x * s, self.y * s)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_is_symmetric_and_zero_on_self() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(4.0, 6.0);
        assert_eq!(a.dist(&b), b.dist(&a));
        assert_eq!(a.dist(&a), 0.0);
        assert_eq!(a.dist(&b), 5.0);
    }

    #[test]
    fn dist_sq_matches_dist() {
        let a = Point::new(-3.0, 0.5);
        let b = Point::new(7.25, -2.0);
        assert!((a.dist_sq(&b).sqrt() - a.dist(&b)).abs() < 1e-12);
    }

    #[test]
    fn lerp_endpoints_and_middle() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, -20.0);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        assert_eq!(a.lerp(&b, 0.5), Point::new(5.0, -10.0));
    }

    #[test]
    fn vector_ops() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a + b, Point::new(4.0, 6.0));
        assert_eq!(b - a, Point::new(2.0, 2.0));
        assert_eq!(a * 2.0, Point::new(2.0, 4.0));
        assert_eq!(Point::new(3.0, 4.0).norm(), 5.0);
    }

    #[test]
    fn finiteness() {
        assert!(Point::new(1.0, 2.0).is_finite());
        assert!(!Point::new(f64::NAN, 0.0).is_finite());
        assert!(!Point::new(0.0, f64::INFINITY).is_finite());
    }
}
