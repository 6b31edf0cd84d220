//! Property-based tests of the exact measures: lower-bound validity and
//! matrix consistency on random trajectories.

use neutraj_measures::bounds::{lb_cheap, lb_tight};
use neutraj_measures::{
    DiscreteFrechet, DistanceMatrix, Dtw, Erp, Hausdorff, Measure, MeasureKind, TrajCache,
};
use neutraj_trajectory::rng::{cases, Rng};
use neutraj_trajectory::{Point, Trajectory};

fn arb_points(rng: &mut Rng, max_len: usize) -> Vec<Point> {
    (0..rng.gen_range(1..max_len))
        .map(|_| Point::new(rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0)))
        .collect()
}

fn arb_corpus(rng: &mut Rng, n: usize) -> Vec<Trajectory> {
    (0..n as u64)
        .map(|id| {
            let pts = (0..rng.gen_range(2..12))
                .map(|_| Point::new(rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0)))
                .collect();
            Trajectory::new_unchecked(id, pts)
        })
        .collect()
}

/// The engine's two bound tiers, built from `TrajCache`s as the engine
/// builds them: `lb_cheap <= lb_tight <= dist` in both orientations.
#[test]
fn lower_bounds_are_valid_for_all_measures() {
    cases(48, |rng| {
        let a = Trajectory::new_unchecked(0, arb_points(rng, 15));
        let b = Trajectory::new_unchecked(1, arb_points(rng, 15));
        for kind in MeasureKind::ALL {
            let m = kind.measure();
            let accel = m.accel().expect("the paper measures are accelerated");
            let (ca, cb) = (
                TrajCache::build(a.points(), accel),
                TrajCache::build(b.points(), accel),
            );
            let d = m.dist(a.points(), b.points());
            for (x, y) in [(&ca, &cb), (&cb, &ca)] {
                let cheap = lb_cheap(accel, x, y);
                let tight = lb_tight(accel, x, y);
                assert!(cheap <= tight, "{kind}: cheap {cheap} > tight {tight}");
                assert!(tight <= d + 1e-9, "{kind}: tight {tight} > dist {d}");
            }
        }
    });
}

#[test]
fn erp_gap_choice_triangle_consistent() {
    cases(48, |rng| {
        let a = arb_points(rng, 8);
        let b = arb_points(rng, 8);
        let gx = rng.gen_range(-10.0f64..10.0);
        let gy = rng.gen_range(-10.0f64..10.0);
        // ERP stays a metric for any gap reference point.
        let erp = Erp::with_gap(Point::new(gx, gy));
        let d_ab = erp.dist(&a, &b);
        assert!((d_ab - erp.dist(&b, &a)).abs() < 1e-9);
        assert!(erp.dist(&a, &a) < 1e-9);
    });
}

#[test]
fn frechet_dominates_hausdorff_dtw_dominates_frechet() {
    cases(48, |rng| {
        let a = arb_points(rng, 10);
        let b = arb_points(rng, 10);
        let h = Hausdorff.dist(&a, &b);
        let f = DiscreteFrechet.dist(&a, &b);
        let d = Dtw.dist(&a, &b);
        assert!(h <= f + 1e-9);
        assert!(f <= d + 1e-9);
    });
}

#[test]
fn matrix_agrees_with_direct_calls() {
    cases(48, |rng| {
        let corpus = arb_corpus(rng, 6);
        let m = DistanceMatrix::compute(&Hausdorff, &corpus);
        for i in 0..6 {
            for j in 0..6 {
                let direct = if i == j {
                    0.0
                } else {
                    Hausdorff.dist(corpus[i].points(), corpus[j].points())
                };
                assert!((m.get(i, j) - direct).abs() < 1e-12);
            }
        }
    });
}

#[test]
fn scaling_coordinates_scales_distances() {
    cases(48, |rng| {
        let a = arb_points(rng, 8);
        let b = arb_points(rng, 8);
        let s = rng.gen_range(0.1f64..10.0);
        // All four measures are positively homogeneous in the coordinates.
        let scale = |pts: &[Point]| -> Vec<Point> { pts.iter().map(|p| *p * s).collect() };
        for kind in MeasureKind::ALL {
            let m = kind.measure();
            let d1 = m.dist(&a, &b);
            let d2 = m.dist(&scale(&a), &scale(&b));
            assert!(
                (d2 - s * d1).abs() < 1e-6 * (1.0 + d1.abs() * s),
                "{kind}: {d2} != {s}*{d1}"
            );
        }
    });
}
