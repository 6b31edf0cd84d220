//! Property-based tests of the approximate baselines: lower-bound
//! validity and LSH behaviour on random curves.

use neutraj_approx::{CurveLsh, HausdorffLandmarkApprox};
use neutraj_measures::{Hausdorff, Measure};
use neutraj_trajectory::rng::{cases, Rng};
use neutraj_trajectory::{BoundingBox, Point, Trajectory};

fn arb_traj(rng: &mut Rng, id: u64) -> Trajectory {
    let pts = (0..rng.gen_range(2..25))
        .map(|_| Point::new(rng.gen_range(-100.0..100.0), rng.gen_range(-100.0..100.0)))
        .collect();
    Trajectory::new_unchecked(id, pts)
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
        let seed = rng.gen_range(0u64..50);
        let h1 =
            HausdorffLandmarkApprox::new(BoundingBox::new(-120.0, -120.0, 120.0, 120.0), 8, seed);
        let h2 =
            HausdorffLandmarkApprox::new(BoundingBox::new(-120.0, -120.0, 120.0, 120.0), 8, seed);
        assert_eq!(h1.signature(&t), h2.signature(&t));
    });
}
