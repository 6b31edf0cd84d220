//! Trajectories: identified sequences of points.

use crate::{BoundingBox, Point, Result, TrajError};

/// A trajectory: an identifier plus an ordered sequence of 2-D points.
///
/// Matches the paper's definition `T = [X₁ᶜ, ..., Xₜᶜ, ...]` (§III-A);
/// timestamps are deliberately absent because the studied measures compare
/// shapes only.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// Stable identifier within its corpus.
    pub id: u64,
    points: Vec<Point>,
}

impl Trajectory {
    /// Creates a trajectory, validating that every coordinate is finite.
    pub fn new(id: u64, points: Vec<Point>) -> Result<Self> {
        if let Some(index) = points.iter().position(|p| !p.is_finite()) {
            return Err(TrajError::NonFiniteCoordinate { index });
        }
        Ok(Self { id, points })
    }

    /// Creates a trajectory without validation.
    ///
    /// Intended for generators and decoders that construct points from
    /// finite arithmetic; debug builds still assert finiteness.
    pub fn new_unchecked(id: u64, points: Vec<Point>) -> Self {
        debug_assert!(points.iter().all(Point::is_finite));
        Self { id, points }
    }

    /// Checks that the trajectory is usable as model input: non-empty and
    /// every coordinate finite. Serving layers call this at their trust
    /// boundary — a NaN embedded into a similarity index would silently
    /// poison every subsequent distance comparison, so the check happens
    /// *before* any embedding work.
    pub fn validate(&self) -> Result<()> {
        if self.points.is_empty() {
            return Err(TrajError::TooShort { got: 0, need: 1 });
        }
        if let Some(index) = self.points.iter().position(|p| !p.is_finite()) {
            return Err(TrajError::NonFiniteCoordinate { index });
        }
        Ok(())
    }

    /// The point sequence.
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` when the trajectory has no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// First point, if any.
    pub fn first(&self) -> Option<Point> {
        self.points.first().copied()
    }

    /// Last point, if any.
    pub fn last(&self) -> Option<Point> {
        self.points.last().copied()
    }

    /// Minimum bounding rectangle of the trajectory.
    pub fn mbr(&self) -> BoundingBox {
        BoundingBox::from_points(&self.points)
    }

    /// Total polyline length (sum of consecutive point distances).
    pub fn path_length(&self) -> f64 {
        self.points.windows(2).map(|w| w[0].dist(&w[1])).sum()
    }

    /// Arithmetic mean of the points. `None` when empty.
    pub fn centroid(&self) -> Option<Point> {
        if self.points.is_empty() {
            return None;
        }
        let sum = self.points.iter().fold(Point::ORIGIN, |acc, p| acc + *p);
        Some(sum * (1.0 / self.points.len() as f64))
    }

    /// Returns a copy whose coordinates are transformed by `f`.
    pub fn map_points(&self, mut f: impl FnMut(Point) -> Point) -> Trajectory {
        Trajectory {
            id: self.id,
            points: self.points.iter().map(|p| f(*p)).collect(),
        }
    }

    /// Resamples the trajectory to exactly `n` points, uniformly spaced by
    /// arc length. Requires at least 2 original points and `n >= 2`.
    ///
    /// Used by workload generators to control the length distribution and
    /// by the approximate baselines that need fixed-length signatures.
    pub fn resample(&self, n: usize) -> Result<Trajectory> {
        if self.points.len() < 2 || n < 2 {
            return Err(TrajError::TooShort {
                got: self.points.len().min(n),
                need: 2,
            });
        }
        let total = self.path_length();
        if total == 0.0 {
            // Degenerate: all points identical; replicate.
            return Ok(Trajectory {
                id: self.id,
                points: vec![self.points[0]; n],
            });
        }
        let mut out = Vec::with_capacity(n);
        out.push(self.points[0]);
        let step = total / (n - 1) as f64;
        let mut seg = 0usize; // current segment index
        let mut seg_start_len = 0.0; // cumulative length at segment start
        let mut seg_len = self.points[0].dist(&self.points[1]);
        for k in 1..n - 1 {
            let target = step * k as f64;
            while seg_start_len + seg_len < target && seg + 2 < self.points.len() {
                seg_start_len += seg_len;
                seg += 1;
                seg_len = self.points[seg].dist(&self.points[seg + 1]);
            }
            let t = if seg_len > 0.0 {
                ((target - seg_start_len) / seg_len).clamp(0.0, 1.0)
            } else {
                0.0
            };
            out.push(self.points[seg].lerp(&self.points[seg + 1], t));
        }
        out.push(*self.points.last().expect("len >= 2"));
        Ok(Trajectory {
            id: self.id,
            points: out,
        })
    }

    /// Downsamples by keeping every `stride`-th point (always keeping the
    /// last point). `stride` of 0 is treated as 1.
    pub fn downsample(&self, stride: usize) -> Trajectory {
        let stride = stride.max(1);
        let mut points: Vec<Point> = self.points.iter().copied().step_by(stride).collect();
        if let Some(&last) = self.points.last() {
            if points.last() != Some(&last) {
                points.push(last);
            }
        }
        Trajectory {
            id: self.id,
            points,
        }
    }

    /// Douglas–Peucker polyline simplification: keeps the minimal subset
    /// of points such that no removed point deviates more than `epsilon`
    /// from the simplified polyline. Endpoints are always kept.
    ///
    /// Useful to shrink long GPS traces before quadratic-cost exact
    /// measures; the approximate baselines use grid snapping instead, but
    /// user pipelines often prefer DP because the error bound is in
    /// distance units.
    pub fn simplify(&self, epsilon: f64) -> Trajectory {
        assert!(epsilon >= 0.0, "epsilon must be non-negative");
        if self.points.len() <= 2 {
            return self.clone();
        }
        let mut keep = vec![false; self.points.len()];
        keep[0] = true;
        *keep.last_mut().expect("non-empty") = true;
        // Iterative stack-based DP to avoid recursion depth limits.
        let mut stack = vec![(0usize, self.points.len() - 1)];
        while let Some((lo, hi)) = stack.pop() {
            if hi <= lo + 1 {
                continue;
            }
            let (a, b) = (self.points[lo], self.points[hi]);
            let mut worst = 0.0;
            let mut worst_idx = lo;
            for i in lo + 1..hi {
                let d = dist_point_segment(self.points[i], a, b);
                if d > worst {
                    worst = d;
                    worst_idx = i;
                }
            }
            if worst > epsilon {
                keep[worst_idx] = true;
                stack.push((lo, worst_idx));
                stack.push((worst_idx, hi));
            }
        }
        Trajectory {
            id: self.id,
            points: self
                .points
                .iter()
                .zip(&keep)
                .filter(|(_, &k)| k)
                .map(|(p, _)| *p)
                .collect(),
        }
    }

    /// Returns a copy clipped to `bbox`: the longest contiguous run of
    /// points inside the box. `None` if no point falls inside.
    ///
    /// This mirrors the paper's preprocessing, which keeps trajectories in
    /// the centre area of each city (§VII-A.1).
    pub fn clip_to(&self, bbox: &BoundingBox) -> Option<Trajectory> {
        let mut best: Option<(usize, usize)> = None; // [start, end)
        let mut run_start: Option<usize> = None;
        for (i, p) in self.points.iter().enumerate() {
            if bbox.contains(*p) {
                run_start.get_or_insert(i);
            } else if let Some(s) = run_start.take() {
                if best.is_none_or(|(bs, be)| i - s > be - bs) {
                    best = Some((s, i));
                }
            }
        }
        if let Some(s) = run_start {
            let e = self.points.len();
            if best.is_none_or(|(bs, be)| e - s > be - bs) {
                best = Some((s, e));
            }
        }
        best.map(|(s, e)| Trajectory {
            id: self.id,
            points: self.points[s..e].to_vec(),
        })
    }
}

/// Distance from `p` to the segment `a`–`b`.
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

    fn line(id: u64, n: usize) -> Trajectory {
        Trajectory::new_unchecked(id, (0..n).map(|i| Point::new(i as f64, 0.0)).collect())
    }

    #[test]
    fn construction_rejects_non_finite() {
        let err = Trajectory::new(1, vec![Point::new(0.0, 0.0), Point::new(f64::NAN, 1.0)]);
        assert!(matches!(
            err,
            Err(TrajError::NonFiniteCoordinate { index: 1 })
        ));
    }

    #[test]
    fn basic_accessors() {
        let t = line(7, 5);
        assert_eq!(t.id, 7);
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
        assert_eq!(t.first(), Some(Point::new(0.0, 0.0)));
        assert_eq!(t.last(), Some(Point::new(4.0, 0.0)));
        assert_eq!(t.path_length(), 4.0);
        assert_eq!(t.centroid(), Some(Point::new(2.0, 0.0)));
    }

    #[test]
    fn mbr_covers_every_point() {
        let t = Trajectory::new_unchecked(
            0,
            vec![
                Point::new(1.0, 5.0),
                Point::new(-2.0, 3.0),
                Point::new(4.0, -1.0),
            ],
        );
        let b = t.mbr();
        for p in t.points() {
            assert!(b.contains(*p));
        }
    }

    #[test]
    fn resample_preserves_endpoints_and_spacing() {
        let t = line(0, 5); // length 4
        let r = t.resample(9).unwrap();
        assert_eq!(r.len(), 9);
        assert_eq!(r.first(), t.first());
        assert_eq!(r.last(), t.last());
        for (i, p) in r.points().iter().enumerate() {
            assert!((p.x - 0.5 * i as f64).abs() < 1e-9, "point {i} = {p}");
            assert_eq!(p.y, 0.0);
        }
    }

    #[test]
    fn resample_degenerate_all_same_point() {
        let t = Trajectory::new_unchecked(0, vec![Point::new(1.0, 1.0); 4]);
        let r = t.resample(6).unwrap();
        assert_eq!(r.len(), 6);
        assert!(r.points().iter().all(|p| *p == Point::new(1.0, 1.0)));
    }

    #[test]
    fn resample_too_short_errors() {
        let t = line(0, 1);
        assert!(t.resample(5).is_err());
        assert!(line(0, 5).resample(1).is_err());
    }

    #[test]
    fn downsample_keeps_last() {
        let t = line(0, 10);
        let d = t.downsample(4);
        assert_eq!(
            d.points().iter().map(|p| p.x as i64).collect::<Vec<_>>(),
            vec![0, 4, 8, 9]
        );
        // stride 0 behaves as 1
        assert_eq!(t.downsample(0).len(), 10);
    }

    #[test]
    fn clip_to_longest_run() {
        let t = Trajectory::new_unchecked(
            0,
            vec![
                Point::new(0.0, 0.0),  // in
                Point::new(10.0, 0.0), // out
                Point::new(1.0, 0.0),  // in
                Point::new(2.0, 0.0),  // in
                Point::new(3.0, 0.0),  // in
            ],
        );
        let bb = BoundingBox::new(-1.0, -1.0, 5.0, 1.0);
        let c = t.clip_to(&bb).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.first(), Some(Point::new(1.0, 0.0)));
    }

    #[test]
    fn clip_to_outside_is_none() {
        let t = line(0, 4);
        let bb = BoundingBox::new(100.0, 100.0, 101.0, 101.0);
        assert!(t.clip_to(&bb).is_none());
    }

    #[test]
    fn simplify_collinear_to_endpoints() {
        let t = line(0, 20);
        let s = t.simplify(0.01);
        assert_eq!(s.len(), 2);
        assert_eq!(s.first(), t.first());
        assert_eq!(s.last(), t.last());
    }

    #[test]
    fn simplify_keeps_salient_corner() {
        // An L-shape: the corner must survive any epsilon below its
        // deviation from the straight chord.
        let mut pts: Vec<Point> = (0..10).map(|i| Point::new(i as f64, 0.0)).collect();
        pts.extend((1..10).map(|i| Point::new(9.0, i as f64)));
        let t = Trajectory::new_unchecked(0, pts);
        let s = t.simplify(0.5);
        assert!(s.len() >= 3);
        assert!(s.points().contains(&Point::new(9.0, 0.0)), "corner dropped");
    }

    #[test]
    fn simplify_error_bound_holds() {
        // Every original point must lie within epsilon of the simplified
        // polyline.
        let t = Trajectory::new_unchecked(
            0,
            (0..50)
                .map(|i| Point::new(i as f64, ((i as f64) * 0.3).sin() * 4.0))
                .collect(),
        );
        let eps = 1.0;
        let s = t.simplify(eps);
        assert!(s.len() < t.len());
        for p in t.points() {
            let d = s
                .points()
                .windows(2)
                .map(|w| dist_point_segment(*p, w[0], w[1]))
                .fold(f64::INFINITY, f64::min);
            assert!(d <= eps + 1e-9, "point {p} deviates {d}");
        }
    }

    #[test]
    fn simplify_zero_epsilon_keeps_non_collinear_points() {
        let t = Trajectory::new_unchecked(
            0,
            vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.5),
                Point::new(2.0, 0.0),
            ],
        );
        assert_eq!(t.simplify(0.0).len(), 3);
        // Tiny inputs pass through untouched.
        assert_eq!(line(1, 2).simplify(0.0).len(), 2);
        assert_eq!(line(1, 1).simplify(5.0).len(), 1);
    }

    #[test]
    fn map_points_applies_transform() {
        let t = line(3, 3);
        let m = t.map_points(|p| p * 2.0);
        assert_eq!(m.last(), Some(Point::new(4.0, 0.0)));
        assert_eq!(m.id, 3);
    }
}
