//! Grid-signature approximation of the Fréchet distance.

use crate::ApproxAlgorithm;
use neutraj_measures::DiscreteFrechet;
use neutraj_trajectory::rng::Rng;
use neutraj_trajectory::{Point, Trajectory};

/// Driemel & Silvestri-style curve simplification: snap every vertex of a
/// curve to a randomly-shifted grid of resolution `delta` and collapse
/// consecutive duplicates. The resulting *signature* is short (its length
/// is bounded by the curve's arc length / δ), and the discrete Fréchet
/// distance between two signatures differs from the true distance by at
/// most an additive `O(δ)` term (each vertex moves by ≤ δ·√2/2).
///
/// This is the "AP" baseline for the Fréchet distance: much faster than
/// the exact `O(L²)` computation (signatures are typically 5–20× shorter)
/// but visibly less accurate — exactly the trade-off the paper reports.
#[derive(Debug, Clone)]
pub struct FrechetGridApprox {
    delta: f64,
    shift: Point,
}

impl FrechetGridApprox {
    /// Creates the approximation with grid resolution `delta` (same unit
    /// as coordinates) and a random shift drawn from `seed`.
    pub fn new(delta: f64, seed: u64) -> Self {
        assert!(delta > 0.0 && delta.is_finite(), "delta must be positive");
        let mut rng = Rng::seed_from_u64(seed);
        Self {
            delta,
            shift: Point::new(rng.gen_range(0.0..delta), rng.gen_range(0.0..delta)),
        }
    }

    /// The grid resolution δ.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Snaps a curve to the shifted grid, collapsing consecutive
    /// duplicate cells to their centre points.
    pub fn snap(&self, points: &[Point]) -> Vec<Point> {
        let mut out: Vec<Point> = Vec::new();
        let mut last: Option<(i64, i64)> = None;
        for p in points {
            let cx = ((p.x + self.shift.x) / self.delta).floor() as i64;
            let cy = ((p.y + self.shift.y) / self.delta).floor() as i64;
            if last != Some((cx, cy)) {
                last = Some((cx, cy));
                out.push(Point::new(
                    (cx as f64 + 0.5) * self.delta - self.shift.x,
                    (cy as f64 + 0.5) * self.delta - self.shift.y,
                ));
            }
        }
        out
    }
}

impl ApproxAlgorithm for FrechetGridApprox {
    type Sig = Vec<Point>;

    fn name(&self) -> &'static str {
        "AP-Frechet(grid-signature)"
    }

    fn signature(&self, t: &Trajectory) -> Vec<Point> {
        self.snap(t.points())
    }

    fn dist(&self, a: &Vec<Point>, b: &Vec<Point>) -> f64 {
        DiscreteFrechet::compute(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neutraj_measures::Measure;

    fn wavy(id: u64, n: usize, y0: f64) -> Trajectory {
        Trajectory::new_unchecked(
            id,
            (0..n)
                .map(|k| Point::new(k as f64 * 2.0, y0 + (k as f64 * 0.7).sin() * 3.0))
                .collect(),
        )
    }

    #[test]
    fn snapping_shortens_curves() {
        let ap = FrechetGridApprox::new(10.0, 1);
        let t = wavy(0, 200, 0.0);
        let sig = ap.signature(&t);
        assert!(
            sig.len() < t.len() / 2,
            "signature {} not shorter",
            sig.len()
        );
        assert!(!sig.is_empty());
    }

    #[test]
    fn approximation_error_is_bounded_by_delta() {
        let delta = 5.0;
        let ap = FrechetGridApprox::new(delta, 2);
        let a = wavy(0, 80, 0.0);
        let b = wavy(1, 80, 12.0);
        let exact = DiscreteFrechet.dist(a.points(), b.points());
        let approx = ap.dist(&ap.signature(&a), &ap.signature(&b));
        // Each snapped vertex moved ≤ δ·√2/2, so the Fréchet distance
        // between signatures is within √2·δ of the vertex-snapped truth.
        // Signature dedup can add at most another O(δ). Allow 2·√2·δ.
        let bound = 2.0 * std::f64::consts::SQRT_2 * delta;
        assert!(
            (exact - approx).abs() <= bound,
            "exact {exact} vs approx {approx}, bound {bound}"
        );
    }

    #[test]
    fn identical_curves_have_near_zero_distance() {
        let ap = FrechetGridApprox::new(5.0, 3);
        let t = wavy(0, 50, 0.0);
        assert_eq!(ap.dist(&ap.signature(&t), &ap.signature(&t)), 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = FrechetGridApprox::new(5.0, 9);
        let b = FrechetGridApprox::new(5.0, 9);
        let t = wavy(0, 30, 1.0);
        assert_eq!(a.signature(&t), b.signature(&t));
        let c = FrechetGridApprox::new(5.0, 10);
        // Different shifts usually change the signature.
        assert_ne!(a.signature(&t), c.signature(&t));
    }

    #[test]
    #[should_panic(expected = "delta must be positive")]
    fn rejects_bad_delta() {
        let _ = FrechetGridApprox::new(0.0, 0);
    }
}
