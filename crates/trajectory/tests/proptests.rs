//! Property-based tests of the trajectory substrate on random inputs:
//! resampling, grid mapping and the generators.

use neutraj_trajectory::gen::{GeolifeLikeGenerator, PortoLikeGenerator};
use neutraj_trajectory::rng::{cases, Rng};
use neutraj_trajectory::{Grid, Point, Trajectory};

fn arb_traj(rng: &mut Rng, min_len: usize) -> Trajectory {
    let pts = (0..rng.gen_range(min_len..min_len + 30))
        .map(|_| Point::new(rng.gen_range(-100.0..100.0), rng.gen_range(-100.0..100.0)))
        .collect();
    Trajectory::new_unchecked(0, pts)
}

#[test]
fn resample_preserves_endpoints_and_total_length_monotone() {
    cases(64, |rng| {
        let t = arb_traj(rng, 2);
        let n = rng.gen_range(2usize..40);
        let r = t.resample(n).expect("valid inputs");
        assert_eq!(r.len(), n);
        let first = r.first().expect("non-empty");
        let last = r.last().expect("non-empty");
        assert!(first.dist(&t.first().expect("ne")) < 1e-9);
        assert!(last.dist(&t.last().expect("ne")) < 1e-9);
        // Resampling along the polyline cannot create extra length.
        assert!(r.path_length() <= t.path_length() + 1e-6);
    });
}

#[test]
fn resample_points_lie_near_original_polyline() {
    cases(64, |rng| {
        let t = arb_traj(rng, 2);
        let n = rng.gen_range(2usize..30);
        let r = t.resample(n).expect("valid inputs");
        for p in r.points() {
            let d = t
                .points()
                .windows(2)
                .map(|w| {
                    // distance from p to segment w[0]-w[1]
                    let ab = w[1] - w[0];
                    let denom = ab.x * ab.x + ab.y * ab.y;
                    if denom == 0.0 {
                        p.dist(&w[0])
                    } else {
                        let s = (((p.x - w[0].x) * ab.x + (p.y - w[0].y) * ab.y) / denom)
                            .clamp(0.0, 1.0);
                        p.dist(&w[0].lerp(&w[1], s))
                    }
                })
                .fold(f64::INFINITY, f64::min);
            assert!(d < 1e-6, "resampled point {p} off-polyline by {d}");
        }
    });
}

#[test]
fn grid_roundtrip_and_containment() {
    cases(64, |rng| {
        let t = arb_traj(rng, 2);
        let cell = rng.gen_range(1.0f64..40.0);
        let grid = Grid::covering(std::slice::from_ref(&t), cell).expect("non-empty");
        for p in t.points() {
            let c = grid.cell_of(*p);
            assert!(c.col < grid.cols() && c.row < grid.rows());
            // The cell centre maps back to the same cell.
            assert_eq!(grid.cell_of(grid.cell_center(c)), c);
            // Grid-unit coordinates land inside [0, P] x [0, Q].
            let (gx, gy) = grid.to_grid_units(*p);
            assert!(gx >= 0.0 && gx <= grid.cols() as f32 + 1e-3);
            assert!(gy >= 0.0 && gy <= grid.rows() as f32 + 1e-3);
        }
    });
}

#[test]
fn rescale_then_distances_scale() {
    cases(64, |rng| {
        let t = arb_traj(rng, 2);
        let cell = rng.gen_range(0.5f64..25.0);
        let grid = Grid::covering(std::slice::from_ref(&t), cell).expect("non-empty");
        let r = grid.rescale_trajectory(&t);
        assert!((r.path_length() - t.path_length() / cell).abs() < 1e-6);
    });
}

#[test]
fn bbox_union_is_commutative_and_monotone() {
    cases(64, |rng| {
        let a = arb_traj(rng, 2);
        let b = arb_traj(rng, 2);
        let (ba, bb) = (a.mbr(), b.mbr());
        let u1 = ba.union(&bb);
        let u2 = bb.union(&ba);
        assert_eq!(u1, u2);
        assert!(u1.contains_box(&ba) && u1.contains_box(&bb));
        assert!(u1.area() + 1e-12 >= ba.area().max(bb.area()));
    });
}

#[test]
fn mbr_min_dist_lower_bounds_point_distances() {
    cases(64, |rng| {
        let a = arb_traj(rng, 2);
        let b = arb_traj(rng, 2);
        let lb = a.mbr().min_dist_box(&b.mbr());
        let min_pair = a
            .points()
            .iter()
            .flat_map(|p| b.points().iter().map(move |q| p.dist(q)))
            .fold(f64::INFINITY, f64::min);
        assert!(
            lb <= min_pair + 1e-9,
            "MBR bound {lb} > closest pair {min_pair}"
        );
    });
}

#[test]
fn generators_respect_bounds() {
    cases(64, |rng| {
        let n = rng.gen_range(5usize..40);
        let seed = rng.gen_range(0u64..500);
        let porto = PortoLikeGenerator {
            num_trajectories: n,
            ..Default::default()
        }
        .generate(seed);
        assert_eq!(porto.len(), n);
        for t in porto.trajectories() {
            assert!(t.len() >= 10);
            assert!(t.points().iter().all(Point::is_finite));
        }
        let geo = GeolifeLikeGenerator {
            num_trajectories: n,
            ..Default::default()
        }
        .generate(seed);
        assert_eq!(geo.len(), n);
        for t in geo.trajectories() {
            assert!(t.len() >= 10);
        }
    });
}
