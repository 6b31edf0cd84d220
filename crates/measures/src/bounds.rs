//! Per-trajectory caches and the lower-bound cascade of the ground-truth
//! engine (see `DESIGN.md` §10).
//!
//! Every trajectory entering a [`crate::GroundTruthEngine`] is summarized
//! once into a [`TrajCache`]: bounding box, endpoints, structure-of-arrays
//! coordinates (what the DP kernels and the lane groups read), and — for
//! ERP — the per-point gap costs and their sum. Bounds come in two tiers:
//!
//! * **tier 0** ([`lb_cheap`]) is O(1) per pair, built only from cached
//!   scalars (LB_Kim-style endpoint distances, MBR separation, gap-sum
//!   difference for ERP);
//! * **tier 1** ([`lb_tight`]) is O(L) per pair, an LB_Keogh-style
//!   envelope bound replacing the inner sequence by its MBR.
//!
//! All bounds are mathematically `<=` the exact distance; they are *only*
//! compared against a running threshold and never mixed into returned
//! distances, so pruning cannot perturb a single output bit.
//!
//! These are the crate's only pruning bounds. A measure reaches them by
//! naming its kernel in [`crate::Measure::accel`]; a measure that names
//! none is computed in full for every pair.

use crate::engine::HAUSDORFF_GRID_MIN;
use crate::pointgrid::PointGrid;
use crate::Accel;
use neutraj_trajectory::{BoundingBox, Point};

/// Cached per-trajectory summary used by the bound cascade and the
/// vectorized DP kernels.
#[derive(Debug, Clone)]
pub struct TrajCache {
    /// Minimum bounding rectangle of the points.
    pub bbox: BoundingBox,
    /// First point (undefined contents for empty trajectories).
    pub first: Point,
    /// Last point (undefined contents for empty trajectories).
    pub last: Point,
    /// X coordinates, structure-of-arrays copy.
    pub xs: Vec<f64>,
    /// Y coordinates, structure-of-arrays copy.
    pub ys: Vec<f64>,
    /// ERP only: `d(p_i, g)` per point (empty for other measures).
    pub gap_dists: Vec<f64>,
    /// ERP only: sum of `gap_dists`.
    pub gap_sum: f64,
    /// Hausdorff only, and only at [`HAUSDORFF_GRID_MIN`] points or more
    /// (the directed scan reads it for no smaller target): point-bucket
    /// grid for exact nearest-point queries.
    pub(crate) grid: Option<PointGrid>,
}

impl TrajCache {
    /// Summarizes one trajectory's points for the given accelerated
    /// measure.
    pub fn build(pts: &[Point], accel: Accel) -> Self {
        let bbox = BoundingBox::from_points(pts);
        let (first, last) = match (pts.first(), pts.last()) {
            (Some(&f), Some(&l)) => (f, l),
            _ => (Point::ORIGIN, Point::ORIGIN),
        };
        let xs: Vec<f64> = pts.iter().map(|p| p.x).collect();
        let ys: Vec<f64> = pts.iter().map(|p| p.y).collect();
        let (gap_dists, gap_sum) = if let Accel::Erp { gap } = accel {
            let g: Vec<f64> = pts.iter().map(|p| p.dist(&gap)).collect();
            let sum = g.iter().sum();
            (g, sum)
        } else {
            (Vec::new(), 0.0)
        };
        let grid = if matches!(accel, Accel::Hausdorff) && pts.len() >= HAUSDORFF_GRID_MIN {
            PointGrid::build(pts)
        } else {
            None
        };
        Self {
            bbox,
            first,
            last,
            xs,
            ys,
            gap_dists,
            gap_sum,
            grid,
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the trajectory has no points.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }
}

/// Tier-0 lower bound: O(1) from cached scalars. Returns `0.0` (never
/// prunes) when either side is empty — the kernels handle empties by
/// returning infinity themselves.
pub fn lb_cheap(accel: Accel, a: &TrajCache, b: &TrajCache) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    match accel {
        // LB_Kim: every warping path aligns both start points and both
        // end points; the costs add for paths of length >= 2.
        Accel::Dtw => {
            let start = a.first.dist(&b.first);
            let end = a.last.dist(&b.last);
            if a.len() + b.len() > 2 {
                start + end
            } else {
                start.max(end)
            }
        }
        // The coupling aligns both starts and both ends; Frechet is the
        // max over the coupling.
        Accel::Frechet => a.first.dist(&b.first).max(a.last.dist(&b.last)),
        // Endpoints of each side must each find a partner inside the
        // other side's MBR or farther.
        Accel::Hausdorff => a
            .bbox
            .min_dist(b.first)
            .max(a.bbox.min_dist(b.last))
            .max(b.bbox.min_dist(a.first))
            .max(b.bbox.min_dist(a.last)),
        // Chen & Ng: ERP(a, b) >= |sum of gap costs of a - sum of gap
        // costs of b| by the triangle inequality on edit transcripts.
        Accel::Erp { .. } => (a.gap_sum - b.gap_sum).abs(),
    }
}

/// Tier-1 lower bound: O(L) per pair, replacing the opposite sequence by
/// its MBR (an LB_Keogh-style envelope collapsed to one rectangle). Always
/// `>=` the tier-0 bound by construction (the tiers are `max`ed).
pub fn lb_tight(accel: Accel, a: &TrajCache, b: &TrajCache) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let envelope = match accel {
        // Every warping path visits every row and every column; each
        // visit costs at least the point's distance to the other side's
        // MBR, and row/column visits are distinct cells.
        Accel::Dtw => sum_mbr_dist(a, &b.bbox).max(sum_mbr_dist(b, &a.bbox)),
        // The coupling also visits every point of both sides, but the
        // objective is a max, not a sum.
        Accel::Frechet | Accel::Hausdorff => max_mbr_dist(a, &b.bbox).max(max_mbr_dist(b, &a.bbox)),
        // Each point of `a` is consumed exactly once: either matched to a
        // point of `b` (>= distance to MBR(b)) or gap-aligned (== its
        // cached gap cost). Symmetrically for `b`.
        Accel::Erp { .. } => {
            let dir = |s: &TrajCache, other: &BoundingBox| -> f64 {
                s.xs.iter()
                    .zip(&s.ys)
                    .zip(&s.gap_dists)
                    .map(|((&x, &y), &g)| other.min_dist(Point::new(x, y)).min(g))
                    .sum()
            };
            dir(a, &b.bbox).max(dir(b, &a.bbox))
        }
    };
    envelope.max(lb_cheap(accel, a, b))
}

fn sum_mbr_dist(s: &TrajCache, other: &BoundingBox) -> f64 {
    s.xs.iter()
        .zip(&s.ys)
        .map(|(&x, &y)| other.min_dist(Point::new(x, y)))
        .sum()
}

fn max_mbr_dist(s: &TrajCache, other: &BoundingBox) -> f64 {
    s.xs.iter()
        .zip(&s.ys)
        .map(|(&x, &y)| other.min_dist(Point::new(x, y)))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiscreteFrechet, Dtw, Erp, Hausdorff, Measure};
    use neutraj_trajectory::Trajectory;

    fn traj(id: u64, coords: &[(f64, f64)]) -> Trajectory {
        Trajectory::new_unchecked(id, coords.iter().map(|&(x, y)| Point::new(x, y)).collect())
    }

    fn corpus() -> Vec<Trajectory> {
        vec![
            traj(0, &[(0.0, 0.0), (1.0, 0.5), (2.0, 0.0), (3.5, 1.0)]),
            traj(1, &[(0.5, 4.0), (1.5, 4.5), (2.5, 4.0)]),
            traj(2, &[(10.0, 10.0), (11.0, 12.0)]),
            traj(3, &[(0.0, 0.0)]),
            traj(
                4,
                &[(-3.0, 1.0), (0.0, 1.0), (3.0, 1.0), (6.0, 1.0), (9.0, 1.0)],
            ),
        ]
    }

    #[test]
    fn bounds_never_exceed_exact_distance() {
        let ts = corpus();
        let cases: [(Accel, Box<dyn Measure>); 4] = [
            (Accel::Dtw, Box::new(Dtw)),
            (Accel::Frechet, Box::new(DiscreteFrechet)),
            (Accel::Hausdorff, Box::new(Hausdorff)),
            (Accel::Erp { gap: Point::ORIGIN }, Box::new(Erp::default())),
        ];
        for (accel, measure) in &cases {
            let caches: Vec<TrajCache> = ts
                .iter()
                .map(|t| TrajCache::build(t.points(), *accel))
                .collect();
            for i in 0..ts.len() {
                for j in 0..ts.len() {
                    let d = measure.dist(ts[i].points(), ts[j].points());
                    let cheap = lb_cheap(*accel, &caches[i], &caches[j]);
                    let tight = lb_tight(*accel, &caches[i], &caches[j]);
                    assert!(
                        cheap <= d + 1e-9,
                        "{}: cheap {cheap} > dist {d} ({i},{j})",
                        measure.name()
                    );
                    assert!(
                        tight <= d + 1e-9,
                        "{}: tight {tight} > dist {d} ({i},{j})",
                        measure.name()
                    );
                    assert!(tight >= cheap, "{}: tiers not monotone", measure.name());
                }
            }
        }
    }

    #[test]
    fn empty_trajectory_bounds_are_zero() {
        let a = TrajCache::build(&[], Accel::Dtw);
        let b = TrajCache::build(traj(1, &[(1.0, 1.0)]).points(), Accel::Dtw);
        assert!(a.is_empty());
        assert_eq!(lb_cheap(Accel::Dtw, &a, &b), 0.0);
        assert_eq!(lb_tight(Accel::Dtw, &a, &b), 0.0);
    }
}
