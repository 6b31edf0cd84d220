//! Hausdorff distance.

use crate::Measure;
use neutraj_trajectory::Point;

/// The symmetric Hausdorff distance between trajectories treated as point
/// sets (Atev et al., the formulation the paper evaluates).
///
/// `H(A,B) = max( h(A,B), h(B,A) )` where
/// `h(A,B) = max_{a∈A} min_{b∈B} d(a,b)`.
///
/// It is a metric over compact point sets and ignores point ordering —
/// two trajectories tracing the same path in opposite directions have
/// Hausdorff distance ~0 (unlike Fréchet/DTW).
///
/// Complexity: `O(|a|·|b|)` time with an early-break scan, `O(1)` memory.
#[derive(Debug, Clone, Copy, Default)]
pub struct Hausdorff;

impl Hausdorff {
    /// Directed Hausdorff distance `h(a, b)`.
    pub fn directed(a: &[Point], b: &[Point]) -> f64 {
        if a.is_empty() || b.is_empty() {
            return f64::INFINITY;
        }
        let mut worst = 0.0f64;
        for pa in a {
            // min over b, with early exit once below the current worst:
            // such a point cannot raise the max.
            let mut best = f64::INFINITY;
            for pb in b {
                let d = pa.dist_sq(pb);
                if d < best {
                    best = d;
                    if best <= worst {
                        break;
                    }
                }
            }
            if best > worst {
                worst = best;
            }
        }
        worst.sqrt()
    }

    /// Symmetric Hausdorff distance.
    pub fn compute(a: &[Point], b: &[Point]) -> f64 {
        Self::directed(a, b).max(Self::directed(b, a))
    }
}

impl Measure for Hausdorff {
    fn dist(&self, a: &[Point], b: &[Point]) -> f64 {
        Hausdorff::compute(a, b)
    }

    fn name(&self) -> &'static str {
        "Hausdorff"
    }

    fn accel(&self) -> Option<crate::Accel> {
        Some(crate::Accel::Hausdorff)
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
        let a = pts(&[(0.0, 0.0), (1.0, 2.0), (3.0, 1.0)]);
        assert_eq!(Hausdorff.dist(&a, &a), 0.0);
    }

    #[test]
    fn known_asymmetric_directed_values() {
        let a = pts(&[(0.0, 0.0), (5.0, 0.0)]);
        let b = pts(&[(0.0, 0.0)]);
        // h(a,b): farthest a-point to its nearest b-point = 5.
        assert_eq!(Hausdorff::directed(&a, &b), 5.0);
        // h(b,a): the single b point has a at distance 0.
        assert_eq!(Hausdorff::directed(&b, &a), 0.0);
        assert_eq!(Hausdorff.dist(&a, &b), 5.0);
    }

    #[test]
    fn symmetric_full_distance() {
        let a = pts(&[(0.0, 0.0), (4.0, 1.0), (2.0, 5.0)]);
        let b = pts(&[(1.0, 1.0), (3.0, 3.0)]);
        assert_eq!(Hausdorff.dist(&a, &b), Hausdorff.dist(&b, &a));
    }

    #[test]
    fn order_invariant() {
        let a = pts(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]);
        let rev: Vec<Point> = a.iter().rev().copied().collect();
        assert_eq!(Hausdorff.dist(&a, &rev), 0.0);
    }

    #[test]
    fn parallel_offset_lines() {
        let a = pts(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]);
        let b = pts(&[(0.0, 2.0), (1.0, 2.0), (2.0, 2.0)]);
        assert_eq!(Hausdorff.dist(&a, &b), 2.0);
    }

    #[test]
    fn triangle_inequality_on_random_sets() {
        use neutraj_trajectory::rng::Rng;
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..50 {
            let rand_pts = |rng: &mut Rng| -> Vec<Point> {
                (0..rng.gen_range(1..8))
                    .map(|_| Point::new(rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0)))
                    .collect()
            };
            let a = rand_pts(&mut rng);
            let b = rand_pts(&mut rng);
            let c = rand_pts(&mut rng);
            let ab = Hausdorff.dist(&a, &b);
            let bc = Hausdorff.dist(&b, &c);
            let ac = Hausdorff.dist(&a, &c);
            assert!(ac <= ab + bc + 1e-9, "triangle violated: {ac} > {ab}+{bc}");
        }
    }

    #[test]
    fn empty_is_infinite() {
        let a = pts(&[(0.0, 0.0)]);
        assert_eq!(Hausdorff.dist(&a, &[]), f64::INFINITY);
        assert_eq!(Hausdorff.dist(&[], &a), f64::INFINITY);
    }
}
