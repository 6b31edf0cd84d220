//! An additional measure demonstrating the "generic" claim.
//!
//! The paper argues NeuTraj accommodates *any* trajectory measure; SSPD
//! exercises that claim in tests and `examples/custom_measure.rs` beyond
//! the four measures of the paper's evaluation.

use crate::Measure;
use neutraj_trajectory::Point;

/// Symmetrized Segment-Path Distance (Besse et al.).
///
/// Mean over the points of one trajectory of their distance to the other
/// trajectory's *polyline* (point-to-segment, not point-to-point),
/// symmetrized by averaging both directions. Robust to sampling-rate
/// differences; not a metric but widely used for clustering.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sspd;

impl Sspd {
    fn point_to_polyline(p: Point, poly: &[Point]) -> f64 {
        if poly.len() == 1 {
            return p.dist(&poly[0]);
        }
        poly.windows(2)
            .map(|w| dist_point_segment(p, w[0], w[1]))
            .fold(f64::INFINITY, f64::min)
    }

    fn directed(a: &[Point], b: &[Point]) -> f64 {
        a.iter()
            .map(|p| Self::point_to_polyline(*p, b))
            .sum::<f64>()
            / a.len() as f64
    }
}

impl Measure for Sspd {
    fn dist(&self, a: &[Point], b: &[Point]) -> f64 {
        if a.is_empty() || b.is_empty() {
            return f64::INFINITY;
        }
        0.5 * (Self::directed(a, b) + Self::directed(b, a))
    }

    fn name(&self) -> &'static str {
        "SSPD"
    }

    fn is_metric(&self) -> bool {
        false
    }
}

fn dist_point_segment(p: Point, a: Point, b: Point) -> f64 {
    let ab = b - a;
    let denom = ab.x * ab.x + ab.y * ab.y;
    if denom == 0.0 {
        return p.dist(&a);
    }
    let t = (((p.x - a.x) * ab.x + (p.y - a.y) * ab.y) / denom).clamp(0.0, 1.0);
    p.dist(&a.lerp(&b, t))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(coords: &[(f64, f64)]) -> Vec<Point> {
        coords.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    #[test]
    fn sspd_handles_resampling_gracefully() {
        // Same geometric path sampled at different rates: SSPD stays tiny.
        let coarse = pts(&[(0.0, 0.0), (10.0, 0.0)]);
        let fine = pts(&[(0.0, 0.0), (2.5, 0.0), (5.0, 0.0), (7.5, 0.0), (10.0, 0.0)]);
        let d = Sspd.dist(&coarse, &fine);
        assert!(d < 1e-9, "got {d}");
    }

    #[test]
    fn sspd_symmetric_and_positive() {
        let a = pts(&[(0.0, 0.0), (1.0, 2.0)]);
        let b = pts(&[(3.0, 1.0), (4.0, 0.0), (5.0, 2.0)]);
        assert_eq!(Sspd.dist(&a, &b), Sspd.dist(&b, &a));
        assert!(Sspd.dist(&a, &b) > 0.0);
    }

    #[test]
    fn all_extras_infinite_on_empty() {
        let a = pts(&[(0.0, 0.0)]);
        assert_eq!(Sspd.dist(&a, &[]), f64::INFINITY);
        assert_eq!(Sspd.dist(&[], &a), f64::INFINITY);
        assert_eq!(Sspd.dist(&[], &[]), f64::INFINITY);
    }

    #[test]
    fn point_segment_distance() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 0.0);
        assert_eq!(dist_point_segment(Point::new(5.0, 3.0), a, b), 3.0);
        assert_eq!(dist_point_segment(Point::new(-4.0, 3.0), a, b), 5.0);
        assert_eq!(dist_point_segment(Point::new(1.0, 1.0), a, a), 2f64.sqrt());
    }
}
