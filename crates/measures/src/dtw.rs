//! Dynamic Time Warping.

use crate::{Accel, Measure};
use neutraj_trajectory::Point;

/// Dynamic Time Warping distance (Yi, Jagadish & Faloutsos, ICDE'98).
///
/// `DTW(a, b)` is the minimum, over all monotone alignments of the two
/// sequences, of the summed Euclidean distances of aligned point pairs.
/// It is *not* a metric: it violates the triangle inequality, which is why
/// the paper observes lower approximation quality for DTW (§VII-B).
///
/// Complexity: `O(|a|·|b|)` time, `O(min(|a|,|b|))` memory.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dtw;

impl Dtw {
    /// Unconstrained DTW.
    pub fn full(a: &[Point], b: &[Point]) -> f64 {
        if a.is_empty() || b.is_empty() {
            return f64::INFINITY;
        }
        let (outer, inner) = if a.len() >= b.len() { (a, b) } else { (b, a) };
        let cols = inner.len();
        let mut prev = vec![f64::INFINITY; cols + 1];
        let mut cur = vec![f64::INFINITY; cols + 1];
        prev[0] = 0.0;
        for pi in outer {
            cur[0] = f64::INFINITY;
            for j in 1..=cols {
                let d = pi.dist(&inner[j - 1]);
                let best = prev[j - 1].min(prev[j]).min(cur[j - 1]);
                cur[j] = d + best;
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        prev[cols]
    }
}

impl Measure for Dtw {
    fn dist(&self, a: &[Point], b: &[Point]) -> f64 {
        Dtw::full(a, b)
    }

    fn name(&self) -> &'static str {
        "DTW"
    }

    fn is_metric(&self) -> bool {
        false
    }

    fn accel(&self) -> Option<Accel> {
        Some(Accel::Dtw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(xs: &[f64]) -> Vec<Point> {
        xs.iter().map(|&x| Point::new(x, 0.0)).collect()
    }

    #[test]
    fn identical_sequences_have_zero_distance() {
        let a = pts(&[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(Dtw.dist(&a, &a), 0.0);
    }

    #[test]
    fn known_small_case() {
        // a = [0], b = [0, 1]: alignment (0,0),(0,1) => 0 + 1 = 1.
        let a = pts(&[0.0]);
        let b = pts(&[0.0, 1.0]);
        assert_eq!(Dtw.dist(&a, &b), 1.0);
    }

    #[test]
    fn warping_absorbs_time_shift() {
        // Same shape, one is stretched: DTW should be near zero while the
        // lockstep (Euclidean) distance would be large.
        let a = pts(&[0.0, 1.0, 2.0, 3.0, 4.0]);
        let b = pts(&[0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0]);
        assert_eq!(Dtw.dist(&a, &b), 0.0);
    }

    #[test]
    fn symmetric() {
        let a = pts(&[0.0, 2.0, 5.0]);
        let b = pts(&[1.0, 1.5, 4.0, 6.0]);
        assert_eq!(Dtw.dist(&a, &b), Dtw.dist(&b, &a));
    }

    #[test]
    fn empty_is_infinite() {
        let a = pts(&[0.0]);
        assert_eq!(Dtw.dist(&a, &[]), f64::INFINITY);
        assert_eq!(Dtw.dist(&[], &a), f64::INFINITY);
        assert_eq!(Dtw.dist(&[], &[]), f64::INFINITY);
    }

    #[test]
    fn triangle_inequality_violation_exists() {
        // Demonstrates DTW's non-metric nature on a documented example:
        // warping lets b match both a and c cheaply while a and c are far.
        let a = pts(&[0.0, 0.0, 0.0, 0.0]);
        let b = pts(&[0.0, 4.0]);
        let c = pts(&[4.0, 4.0, 4.0, 4.0]);
        let ab = Dtw.dist(&a, &b);
        let bc = Dtw.dist(&b, &c);
        let ac = Dtw.dist(&a, &c);
        assert!(ac > ab + bc, "no violation: {ac} <= {ab} + {bc}");
    }
}
