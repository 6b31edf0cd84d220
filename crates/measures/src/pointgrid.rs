//! A uniform point-bucket grid for exact nearest-point queries.
//!
//! Built once per trajectory, a [`PointGrid`] answers "what is the exact
//! minimum squared distance from `p` to this point set?" by expanding
//! square rings of cells outward from `p`'s cell and stopping as soon as
//! the ring's lower bound proves no closer point can exist. This is the
//! inner `min` of the directed Hausdorff distance; the ring bound turns
//! its O(|B|) scan into a handful of bucket probes for clustered data.
//! Its one user is the ground-truth engine's Hausdorff scan, which keeps
//! one grid per trajectory in its `TrajCache`.

use neutraj_trajectory::{BoundingBox, Point};

/// A uniform grid over a fixed point set, bucketing points by cell in CSR
/// layout (one contiguous `Vec<Point>` reordered by cell, plus per-cell
/// start offsets).
#[derive(Debug, Clone)]
pub(crate) struct PointGrid {
    bbox: BoundingBox,
    /// Cell side length (> 0 even for degenerate boxes).
    cell: f64,
    nx: usize,
    ny: usize,
    /// `starts[c]..starts[c + 1]` indexes `pts` for cell `c = cy * nx + cx`.
    starts: Vec<u32>,
    /// Points reordered so each cell's bucket is contiguous.
    pts: Vec<Point>,
}

impl PointGrid {
    /// Builds a grid over `points` with roughly one point per cell.
    /// Returns `None` for an empty point set.
    pub(crate) fn build(points: &[Point]) -> Option<Self> {
        if points.is_empty() {
            return None;
        }
        let bbox = BoundingBox::from_points(points);
        // Aim for ~1 point per cell on a square layout; clamp the per-axis
        // resolution so tiny or collinear sets still produce a valid grid.
        let side = (points.len() as f64).sqrt().ceil() as usize;
        let side = side.clamp(1, 256);
        let (w, h) = (bbox.width(), bbox.height());
        let extent = w.max(h);
        let cell = if extent > 0.0 {
            extent / side as f64
        } else {
            1.0
        };
        let nx = if cell > 0.0 {
            ((w / cell).floor() as usize + 1).min(side)
        } else {
            1
        };
        let ny = if cell > 0.0 {
            ((h / cell).floor() as usize + 1).min(side)
        } else {
            1
        };
        let cell_of = |p: &Point| -> usize {
            let cx = (((p.x - bbox.min_x) / cell) as usize).min(nx - 1);
            let cy = (((p.y - bbox.min_y) / cell) as usize).min(ny - 1);
            cy * nx + cx
        };
        // Counting sort into CSR buckets.
        let ncells = nx * ny;
        let mut counts = vec![0u32; ncells + 1];
        for p in points {
            counts[cell_of(p) + 1] += 1;
        }
        for c in 0..ncells {
            counts[c + 1] += counts[c];
        }
        let starts = counts.clone();
        let mut pts = vec![Point::ORIGIN; points.len()];
        let mut cursor = starts.clone();
        for p in points {
            let c = cell_of(p);
            pts[cursor[c] as usize] = *p;
            cursor[c] += 1;
        }
        Some(Self {
            bbox,
            cell,
            nx,
            ny,
            starts,
            pts,
        })
    }

    /// Exact minimum squared distance from `p` to the point set — unless
    /// the running best drops to `cutoff_sq` or below, in which case the
    /// scan stops and returns that (still an upper bound on the true
    /// minimum). Callers that only act when the result is **greater**
    /// than `cutoff_sq` therefore observe exact values whenever it
    /// matters. `best` seeds the scan: it must be `f64::INFINITY` or the
    /// squared distance from `p` to some point of the set (an upper bound
    /// on the true minimum).
    pub(crate) fn min_dist_sq_from(&self, p: Point, cutoff_sq: f64, mut best: f64) -> f64 {
        let cx = (((p.x - self.bbox.min_x) / self.cell) as isize).clamp(0, self.nx as isize - 1);
        let cy = (((p.y - self.bbox.min_y) / self.cell) as isize).clamp(0, self.ny as isize - 1);
        // Distance from p to the grid's bounding box: every bucketed point
        // is at least this far away, on every ring.
        let dx_box = (self.bbox.min_x - p.x).max(p.x - self.bbox.max_x).max(0.0);
        let dy_box = (self.bbox.min_y - p.y).max(p.y - self.bbox.max_y).max(0.0);
        let bb_sq = dx_box * dx_box + dy_box * dy_box;
        if bb_sq >= best {
            return best;
        }
        let max_ring = self.nx.max(self.ny);
        for r in 0..=max_ring as isize {
            // Every cell on ring r lies at Chebyshev cell-distance r from
            // (cx, cy), so its contents are at least (r - 1) cell widths
            // from any point projecting into (cx, cy)'s cell, *plus* the
            // box offset on each axis — a valid lower bound even when p
            // sits outside the grid (the r-excursion axis gains
            // (r-1)·cell on top of its box offset, the other axis keeps
            // its own box offset).
            if r >= 2 {
                let ring = (r - 1) as f64 * self.cell;
                if bb_sq + ring * ring >= best {
                    break;
                }
            }
            let (x0, x1) = (cx - r, cx + r);
            let (y0, y1) = (cy - r, cy + r);
            for y in y0..=y1 {
                if y < 0 || y >= self.ny as isize {
                    continue;
                }
                let on_rim = y == y0 || y == y1;
                let mut x = x0;
                while x <= x1 {
                    if x >= 0 && x < self.nx as isize {
                        self.scan_cell(x as usize, y as usize, p, &mut best);
                        if best <= cutoff_sq {
                            return best;
                        }
                    }
                    // Interior rows of the ring only touch the two rim
                    // columns; rim rows scan the full span.
                    x += if on_rim || x == x1 { 1 } else { x1 - x0 };
                }
            }
        }
        best
    }

    #[inline]
    fn scan_cell(&self, cx: usize, cy: usize, p: Point, best: &mut f64) {
        let c = cy * self.nx + cx;
        let (lo, hi) = (self.starts[c] as usize, self.starts[c + 1] as usize);
        for q in &self.pts[lo..hi] {
            let d = p.dist_sq(q);
            if d < *best {
                *best = d;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_min_sq(p: Point, pts: &[Point]) -> f64 {
        pts.iter()
            .map(|q| p.dist_sq(q))
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn empty_set_builds_none() {
        assert!(PointGrid::build(&[]).is_none());
    }

    #[test]
    fn exact_min_on_scattered_points() {
        let pts: Vec<Point> = (0..200u64)
            .map(|i| {
                let h = i.wrapping_mul(0x9E3779B97F4A7C15);
                Point::new((h % 1000) as f64 * 0.1, ((h >> 17) % 1000) as f64 * 0.1)
            })
            .collect();
        let g = PointGrid::build(&pts).unwrap();
        for i in (0..200u64).step_by(7) {
            let h = i.wrapping_mul(0xD1B54A32D192ED03);
            let p = Point::new(
                (h % 1200) as f64 * 0.1 - 10.0,
                ((h >> 13) % 1200) as f64 * 0.1,
            );
            assert_eq!(
                g.min_dist_sq_from(p, f64::NEG_INFINITY, f64::INFINITY),
                naive_min_sq(p, &pts)
            );
        }
    }

    #[test]
    fn degenerate_sets_are_exact() {
        // All-identical points (zero-extent bbox) and collinear points.
        let same = vec![Point::new(3.0, 4.0); 5];
        let g = PointGrid::build(&same).unwrap();
        assert_eq!(
            g.min_dist_sq_from(Point::new(0.0, 0.0), f64::NEG_INFINITY, f64::INFINITY),
            25.0
        );
        let line: Vec<Point> = (0..50).map(|i| Point::new(i as f64, 2.0)).collect();
        let g = PointGrid::build(&line).unwrap();
        let p = Point::new(17.4, -1.0);
        assert_eq!(
            g.min_dist_sq_from(p, f64::NEG_INFINITY, f64::INFINITY),
            naive_min_sq(p, &line)
        );
    }

    #[test]
    fn cutoff_stops_early_without_affecting_threshold_semantics() {
        let pts: Vec<Point> = (0..100).map(|i| Point::new(i as f64, 0.0)).collect();
        let g = PointGrid::build(&pts).unwrap();
        let p = Point::new(50.2, 0.0);
        let exact = naive_min_sq(p, &pts);
        // A generous cutoff lets the scan stop at any point within it; the
        // returned value must still be <= cutoff (so a "> cutoff" test
        // behaves exactly as with the true minimum).
        let got = g.min_dist_sq_from(p, 100.0, f64::INFINITY);
        assert!(got <= 100.0);
        assert!(got >= exact);
        // With a cutoff below the true minimum the result is exact.
        assert_eq!(g.min_dist_sq_from(p, exact * 0.5, f64::INFINITY), exact);
    }
}
