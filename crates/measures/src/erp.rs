//! Edit distance with Real Penalty.

use crate::Measure;
use neutraj_trajectory::Point;

/// Edit distance with Real Penalty (Chen & Ng, VLDB'04).
///
/// An edit distance where matching two points costs their Euclidean
/// distance and aligning a point to a *gap* costs its distance to a fixed
/// reference point `g`. Unlike DTW, ERP satisfies the triangle inequality
/// and is a metric (the paper uses it as one of its three metric measures).
///
/// The reference point defaults to the origin, which is the standard
/// choice when coordinates are normalized around their corpus centre.
///
/// Complexity: `O(|a|·|b|)` time, `O(min(|a|,|b|))` memory.
#[derive(Debug, Clone, Copy)]
pub struct Erp {
    /// The gap reference point `g`.
    pub gap: Point,
}

impl Default for Erp {
    fn default() -> Self {
        Self { gap: Point::ORIGIN }
    }
}

impl Erp {
    /// ERP with an explicit gap reference point.
    pub fn with_gap(gap: Point) -> Self {
        Self { gap }
    }

    /// Computes the ERP distance.
    pub fn compute(&self, a: &[Point], b: &[Point]) -> f64 {
        if a.is_empty() || b.is_empty() {
            return f64::INFINITY;
        }
        let (outer, inner) = if a.len() >= b.len() { (a, b) } else { (b, a) };
        let cols = inner.len();
        // Gap costs of the inner sequence, reused every row.
        let inner_gap: Vec<f64> = inner.iter().map(|p| p.dist(&self.gap)).collect();
        // Row 0: align every inner prefix entirely to gaps.
        let mut prev = Vec::with_capacity(cols + 1);
        prev.push(0.0);
        for j in 0..cols {
            let v = prev[j] + inner_gap[j];
            prev.push(v);
        }
        let mut cur = vec![0.0; cols + 1];
        for pi in outer {
            let gi = pi.dist(&self.gap);
            cur[0] = prev[0] + gi;
            for j in 1..=cols {
                let match_cost = prev[j - 1] + pi.dist(&inner[j - 1]);
                let del_outer = prev[j] + gi;
                let del_inner = cur[j - 1] + inner_gap[j - 1];
                cur[j] = match_cost.min(del_outer).min(del_inner);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        prev[cols]
    }
}

impl Measure for Erp {
    fn dist(&self, a: &[Point], b: &[Point]) -> f64 {
        self.compute(a, b)
    }

    fn name(&self) -> &'static str {
        "ERP"
    }

    /// Chen & Ng's gap-sum bound: `ERP(a, b) >= |Σᵢ d(aᵢ, g) − Σⱼ d(bⱼ, g)|`
    /// (apply `d(aᵢ, bⱼ) >= |d(aᵢ, g) − d(bⱼ, g)|` to every matched pair
    /// of any edit transcript).
    fn lower_bound(&self, a: &[Point], b: &[Point]) -> f64 {
        if a.is_empty() || b.is_empty() {
            return f64::INFINITY;
        }
        let sum = |pts: &[Point]| pts.iter().map(|p| p.dist(&self.gap)).sum::<f64>();
        (sum(a) - sum(b)).abs()
    }

    fn accel(&self) -> Option<crate::Accel> {
        Some(crate::Accel::Erp { gap: self.gap })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(xs: &[f64]) -> Vec<Point> {
        xs.iter().map(|&x| Point::new(x, 0.0)).collect()
    }

    #[test]
    fn identical_is_zero() {
        let a = pts(&[1.0, 2.0, 3.0]);
        assert_eq!(Erp::default().dist(&a, &a), 0.0);
    }

    #[test]
    fn pure_gap_alignment() {
        // b empty-ish case is infinite by convention, but a 1-vs-2 case
        // exercises the gap: a=[1], b=[1,2] with g=0 costs d(2, 0) = 2
        // when 2 aligns to a gap, vs matching: 0 + gap(1)=1 ... best is
        // match(1,1)=0 then gap(2)=2 => 2; or gap(1)=1, match(1,2)=1 => 2.
        let a = pts(&[1.0]);
        let b = pts(&[1.0, 2.0]);
        assert_eq!(Erp::default().dist(&a, &b), 2.0);
    }

    #[test]
    fn symmetric() {
        let a = pts(&[0.0, 2.0, 5.0, 1.0]);
        let b = pts(&[1.0, 4.0, 2.0]);
        let e = Erp::default();
        assert_eq!(e.dist(&a, &b), e.dist(&b, &a));
    }

    #[test]
    fn triangle_inequality_on_random_sequences() {
        use neutraj_trajectory::rng::Rng;
        let mut rng = Rng::seed_from_u64(3);
        let e = Erp::default();
        for _ in 0..50 {
            let rand_seq = |rng: &mut Rng| -> Vec<Point> {
                (0..rng.gen_range(1..7))
                    .map(|_| Point::new(rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0)))
                    .collect()
            };
            let a = rand_seq(&mut rng);
            let b = rand_seq(&mut rng);
            let c = rand_seq(&mut rng);
            let ab = e.dist(&a, &b);
            let bc = e.dist(&b, &c);
            let ac = e.dist(&a, &c);
            assert!(ac <= ab + bc + 1e-9, "triangle violated: {ac} > {ab}+{bc}");
        }
    }

    #[test]
    fn gap_reference_matters() {
        let a = pts(&[10.0]);
        let b = pts(&[10.0, 11.0]);
        let near = Erp::with_gap(Point::new(11.0, 0.0));
        let far = Erp::default(); // gap at origin
                                  // With g near the unmatched point the insertion is cheap.
        assert!(near.dist(&a, &b) < far.dist(&a, &b));
    }

    #[test]
    fn empty_is_infinite() {
        let a = pts(&[0.0]);
        let e = Erp::default();
        assert_eq!(e.dist(&a, &[]), f64::INFINITY);
        assert_eq!(e.dist(&[], &[]), f64::INFINITY);
    }

    #[test]
    fn length_difference_penalized() {
        // Unlike DTW, repeating points is not free: extra points must be
        // gap-aligned (or matched, paying their distance).
        let a = pts(&[1.0, 2.0]);
        let b = pts(&[1.0, 1.0, 1.0, 2.0, 2.0]);
        let d = Erp::default().dist(&a, &b);
        assert!(d > 0.0, "ERP should charge for the extra points, got {d}");
    }
}
