//! Discrete Fréchet distance.

use crate::{Accel, Measure};
use neutraj_trajectory::Point;

/// The discrete Fréchet distance (Alt & Godau; Eiter & Mannila's coupling
/// formulation).
///
/// Informally the "dog-leash" distance: the minimum leash length that lets
/// a walker traverse `a` and a dog traverse `b`, both moving only forward
/// point-by-point. It is a metric on point sequences.
///
/// `F(a,b) = min over couplings of max over pairs of d(aᵢ, bⱼ)` —
/// the min-max analogue of DTW's min-sum.
///
/// Complexity: `O(|a|·|b|)` time, `O(min(|a|,|b|))` memory.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiscreteFrechet;

impl DiscreteFrechet {
    /// Computes the discrete Fréchet distance.
    pub fn compute(a: &[Point], b: &[Point]) -> f64 {
        if a.is_empty() || b.is_empty() {
            return f64::INFINITY;
        }
        let (outer, inner) = if a.len() >= b.len() { (a, b) } else { (b, a) };
        let cols = inner.len();
        let mut prev = vec![f64::INFINITY; cols];
        let mut cur = vec![f64::INFINITY; cols];
        for (i, pi) in outer.iter().enumerate() {
            for j in 0..cols {
                let d = pi.dist(&inner[j]);
                let reach = if i == 0 && j == 0 {
                    d
                } else if i == 0 {
                    cur[j - 1].max(d)
                } else if j == 0 {
                    prev[0].max(d)
                } else {
                    prev[j - 1].min(prev[j]).min(cur[j - 1]).max(d)
                };
                cur[j] = reach;
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        prev[cols - 1]
    }
}

impl Measure for DiscreteFrechet {
    fn dist(&self, a: &[Point], b: &[Point]) -> f64 {
        DiscreteFrechet::compute(a, b)
    }

    fn name(&self) -> &'static str {
        "Frechet"
    }

    fn accel(&self) -> Option<Accel> {
        Some(Accel::Frechet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(coords: &[(f64, f64)]) -> Vec<Point> {
        coords.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    #[test]
    fn identical_is_zero() {
        let a = pts(&[(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]);
        assert_eq!(DiscreteFrechet.dist(&a, &a), 0.0);
    }

    #[test]
    fn parallel_lines_distance_is_offset() {
        let a = pts(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]);
        let b = pts(&[(0.0, 3.0), (1.0, 3.0), (2.0, 3.0)]);
        assert_eq!(DiscreteFrechet.dist(&a, &b), 3.0);
    }

    #[test]
    fn single_points() {
        let a = pts(&[(0.0, 0.0)]);
        let b = pts(&[(3.0, 4.0)]);
        assert_eq!(DiscreteFrechet.dist(&a, &b), 5.0);
    }

    #[test]
    fn symmetric() {
        let a = pts(&[(0.0, 0.0), (5.0, 1.0), (2.0, 2.0)]);
        let b = pts(&[(1.0, 1.0), (3.0, 0.0), (4.0, 4.0), (0.0, 2.0)]);
        assert_eq!(DiscreteFrechet.dist(&a, &b), DiscreteFrechet.dist(&b, &a));
    }

    #[test]
    fn min_max_not_min_sum() {
        // One far point dominates: Fréchet = max pair distance along the
        // best coupling, not a sum.
        let a = pts(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]);
        let b = pts(&[(0.0, 1.0), (1.0, 10.0), (2.0, 1.0)]);
        let d = DiscreteFrechet.dist(&a, &b);
        assert!((d - 10.0).abs() < 1e-9, "got {d}");
    }

    #[test]
    fn empty_is_infinite() {
        let a = pts(&[(0.0, 0.0)]);
        assert_eq!(DiscreteFrechet.dist(&a, &[]), f64::INFINITY);
        assert_eq!(DiscreteFrechet.dist(&[], &[]), f64::INFINITY);
    }

    #[test]
    fn length_mismatch_handled() {
        let a = pts(&[(0.0, 0.0), (10.0, 0.0)]);
        let b = pts(&[(0.0, 0.0), (2.0, 0.0), (5.0, 0.0), (10.0, 0.0)]);
        // Coupling must visit every b point; the walker can wait at a
        // point while the dog advances. Max pair distance along best
        // coupling: b's interior points pair with nearest a endpoint.
        let d = DiscreteFrechet.dist(&a, &b);
        assert!((d - 5.0).abs() < 1e-9, "got {d}");
    }
}
