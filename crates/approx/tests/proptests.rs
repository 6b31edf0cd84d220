//! Property-based tests of the approximate baselines: error bounds,
//! lower-bound validity and LSH behaviour on random curves.

use neutraj_approx::{
    ApproxAlgorithm, CurveLsh, DtwDownsampleApprox, FrechetGridApprox, HausdorffLandmarkApprox,
};
use neutraj_measures::{DiscreteFrechet, Hausdorff, Measure};
use neutraj_trajectory::rng::{cases, Rng};
use neutraj_trajectory::{BoundingBox, Point, Trajectory};

fn arb_traj(rng: &mut Rng, id: u64) -> Trajectory {
    let pts = (0..rng.gen_range(2..25))
        .map(|_| Point::new(rng.gen_range(-100.0..100.0), rng.gen_range(-100.0..100.0)))
        .collect();
    Trajectory::new_unchecked(id, pts)
}

#[test]
fn frechet_grid_error_is_additively_bounded() {
    cases(48, |rng| {
        let a = arb_traj(rng, 0);
        let b = arb_traj(rng, 1);
        let delta = rng.gen_range(1.0f64..30.0);
        let seed = rng.gen_range(0u64..100);
        let ap = FrechetGridApprox::new(delta, seed);
        let exact = DiscreteFrechet.dist(a.points(), b.points());
        let approx = ap.dist(&ap.signature(&a), &ap.signature(&b));
        // Snapping moves each vertex ≤ δ√2/2; dedup can add another O(δ).
        let bound = 2.0 * std::f64::consts::SQRT_2 * delta;
        assert!(
            (exact - approx).abs() <= bound + 1e-9,
            "error {} exceeds bound {bound}",
            (exact - approx).abs()
        );
    });
}

#[test]
fn hausdorff_embedding_is_a_lower_bound() {
    cases(48, |rng| {
        let a = arb_traj(rng, 0);
        let b = arb_traj(rng, 1);
        let k = rng.gen_range(1usize..40);
        let seed = rng.gen_range(0u64..100);
        let extent = BoundingBox::new(-120.0, -120.0, 120.0, 120.0);
        let ap = HausdorffLandmarkApprox::new(extent, k, seed);
        let exact = Hausdorff.dist(a.points(), b.points());
        let approx = ap.dist(&ap.signature(&a), &ap.signature(&b));
        assert!(approx <= exact + 1e-9, "embedding {approx} > exact {exact}");
    });
}

#[test]
fn dtw_downsample_is_exact_for_short_inputs() {
    cases(48, |rng| {
        let a = arb_traj(rng, 0);
        let b = arb_traj(rng, 1);
        // When both inputs already fit in the coarse budget, the estimate
        // equals banded DTW of the originals — in particular 0 for a == a.
        let ap = DtwDownsampleApprox::new(64);
        let sa = ap.signature(&a);
        assert_eq!(ap.dist(&sa, &sa), 0.0);
        let sb = ap.signature(&b);
        let d = ap.dist(&sa, &sb);
        assert!(d.is_finite());
        assert!(d >= 0.0);
    });
}

#[test]
fn lsh_self_collision_is_total() {
    cases(48, |rng| {
        let t = arb_traj(rng, 0);
        let delta = rng.gen_range(1.0f64..40.0);
        let seed = rng.gen_range(0u64..50);
        let corpus = vec![t.clone()];
        let lsh = CurveLsh::build(&corpus, delta, 6, seed);
        let c = lsh.candidates(&t);
        assert_eq!(
            c.first().copied(),
            Some((0, 6)),
            "self must collide in all tables"
        );
    });
}

#[test]
fn lsh_collision_count_bounded_by_tables() {
    cases(48, |rng| {
        let a = arb_traj(rng, 0);
        let b = arb_traj(rng, 1);
        let tables = rng.gen_range(1usize..10);
        let corpus = vec![a, b];
        let lsh = CurveLsh::build(&corpus, 15.0, tables, 3);
        for (_, count) in lsh.candidates(&corpus[0]) {
            assert!(count <= tables);
            assert!(count >= 1);
        }
    });
}

#[test]
fn signatures_are_deterministic() {
    cases(48, |rng| {
        let t = arb_traj(rng, 0);
        let delta = rng.gen_range(1.0f64..20.0);
        let seed = rng.gen_range(0u64..50);
        let ap1 = FrechetGridApprox::new(delta, seed);
        let ap2 = FrechetGridApprox::new(delta, seed);
        assert_eq!(ap1.signature(&t), ap2.signature(&t));
        let h1 =
            HausdorffLandmarkApprox::new(BoundingBox::new(-120.0, -120.0, 120.0, 120.0), 8, seed);
        let h2 =
            HausdorffLandmarkApprox::new(BoundingBox::new(-120.0, -120.0, 120.0, 120.0), 8, seed);
        assert_eq!(h1.signature(&t), h2.signature(&t));
    });
}
