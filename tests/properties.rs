//! Property-based cross-crate tests: measure laws, index soundness and
//! serialization round-trips on arbitrary trajectories.

use neutraj::prelude::*;
use neutraj_trajectory::rng::{cases, Rng};

/// A finite trajectory with `min_len..=max_len` points in a ±100 box.
fn arb_points(rng: &mut Rng, id: u64, min_len: usize, max_len: usize) -> Trajectory {
    let pts = (0..rng.gen_range(min_len..=max_len))
        .map(|_| Point::new(rng.gen_range(-100.0..100.0), rng.gen_range(-100.0..100.0)))
        .collect();
    Trajectory::new_unchecked(id, pts)
}

/// A finite trajectory with 1..=20 points.
fn arb_traj(rng: &mut Rng, id: u64) -> Trajectory {
    arb_points(rng, id, 1, 20)
}

/// A small corpus of 2..=12 trajectories with 2..=15 points each.
fn arb_corpus(rng: &mut Rng) -> Vec<Trajectory> {
    (0..rng.gen_range(2..=12u64))
        .map(|id| arb_points(rng, id, 2, 15))
        .collect()
}

#[test]
fn measures_are_symmetric_and_zero_on_self() {
    cases(64, |rng| {
        let a = arb_traj(rng, 0);
        let b = arb_traj(rng, 1);
        for kind in MeasureKind::ALL {
            let m = kind.measure();
            let ab = m.dist(a.points(), b.points());
            let ba = m.dist(b.points(), a.points());
            assert!((ab - ba).abs() < 1e-9, "{kind} not symmetric");
            assert!(ab >= 0.0, "{kind} negative");
            let aa = m.dist(a.points(), a.points());
            assert!(aa.abs() < 1e-9, "{kind} self-distance {aa}");
        }
    });
}

#[test]
fn metric_measures_satisfy_triangle_inequality() {
    cases(64, |rng| {
        let a = arb_traj(rng, 0);
        let b = arb_traj(rng, 1);
        let c = arb_traj(rng, 2);
        for kind in [
            MeasureKind::Frechet,
            MeasureKind::Hausdorff,
            MeasureKind::Erp,
        ] {
            let m = kind.measure();
            let ab = m.dist(a.points(), b.points());
            let bc = m.dist(b.points(), c.points());
            let ac = m.dist(a.points(), c.points());
            assert!(
                ac <= ab + bc + 1e-6,
                "{kind} triangle violated: {ac} > {ab} + {bc}"
            );
        }
    });
}

#[test]
fn frechet_upper_bounds_hausdorff() {
    cases(64, |rng| {
        let a = arb_traj(rng, 0);
        let b = arb_traj(rng, 1);
        // Every Fréchet coupling is in particular a point matching, so
        // Hausdorff ≤ discrete Fréchet.
        let h = Hausdorff.dist(a.points(), b.points());
        let f = DiscreteFrechet.dist(a.points(), b.points());
        assert!(h <= f + 1e-9, "Hausdorff {h} > Frechet {f}");
    });
}

#[test]
fn dtw_upper_bounds_length_scaled_frechet() {
    cases(64, |rng| {
        let a = arb_traj(rng, 0);
        let b = arb_traj(rng, 1);
        // DTW sums ≥ its own max term ≥ ... at least the Fréchet value of
        // the best coupling: DTW ≥ Fréchet (min-sum ≥ min-max pathwise).
        let f = DiscreteFrechet.dist(a.points(), b.points());
        let d = Dtw.dist(a.points(), b.points());
        assert!(d >= f - 1e-9, "DTW {d} < Frechet {f}");
    });
}

#[test]
fn csv_and_binary_roundtrip() {
    cases(64, |rng| {
        let corpus = arb_corpus(rng);
        let ds = Dataset::new(corpus);
        let mut buf = Vec::new();
        neutraj::trajectory::io::write_csv(&ds, &mut buf).expect("write");
        let back = neutraj::trajectory::io::read_csv(&buf[..]).expect("read");
        assert_eq!(&ds, &back);
        let bin = neutraj::trajectory::io::encode_binary(&ds);
        let back = neutraj::trajectory::io::decode_binary(&bin).expect("decode");
        assert_eq!(ds, back);
    });
}

#[test]
fn rtree_candidates_superset_of_mbr_truth() {
    cases(64, |rng| {
        let corpus = arb_corpus(rng);
        let radius = rng.gen_range(0.0f64..150.0);
        use neutraj::index::{RTree, SpatialIndex};
        let tree = RTree::build(&corpus);
        let q = &corpus[0];
        let cands = tree.candidates(q, radius);
        for (i, t) in corpus.iter().enumerate() {
            if t.mbr().min_dist_box(&q.mbr()) <= radius {
                assert!(cands.contains(&i), "rtree lost candidate {i}");
            }
        }
    });
}

#[test]
fn inverted_index_never_loses_cell_sharers() {
    cases(64, |rng| {
        let corpus = arb_corpus(rng);
        use neutraj::index::{GridInvertedIndex, SpatialIndex};
        let grid = Grid::covering(&corpus, 10.0).expect("non-empty");
        let idx = GridInvertedIndex::build(grid.clone(), &corpus);
        let q = &corpus[0];
        let cands = idx.candidates(q, 0.0);
        // Any trajectory sharing a cell with the query must be returned.
        let q_cells: std::collections::HashSet<_> =
            q.points().iter().map(|p| grid.cell_of(*p)).collect();
        for (i, t) in corpus.iter().enumerate() {
            let shares = t
                .points()
                .iter()
                .any(|p| q_cells.contains(&grid.cell_of(*p)));
            if shares {
                assert!(cands.contains(&i), "inverted index lost {i}");
            }
        }
    });
}

#[test]
fn dbscan_labels_are_valid_partition() {
    cases(64, |rng| {
        let corpus = arb_corpus(rng);
        use neutraj::cluster::{dbscan, DbscanParams, Label};
        let d = DistanceMatrix::compute(&Hausdorff, &corpus);
        let labels = dbscan(
            &d,
            DbscanParams {
                eps: 20.0,
                min_pts: 2,
            },
        );
        assert_eq!(labels.len(), corpus.len());
        // Cluster ids are contiguous from 0.
        let max = labels.iter().filter_map(|l| l.cluster()).max();
        if let Some(max) = max {
            for c in 0..=max {
                assert!(
                    labels.iter().any(|l| l.cluster() == Some(c)),
                    "cluster id {c} skipped"
                );
            }
        }
        // Core-point property: every clustered point is within eps of its
        // cluster (reachability sanity, weak form).
        for (i, l) in labels.iter().enumerate() {
            if let Label::Cluster(c) = l {
                let near_same = (0..corpus.len())
                    .any(|j| j != i && labels[j] == Label::Cluster(*c) && d.get(i, j) <= 20.0);
                let singleton = labels.iter().filter(|x| **x == Label::Cluster(*c)).count() == 1;
                assert!(near_same || singleton, "stranded member {i}");
            }
        }
    });
}

#[test]
fn embedding_similarity_is_valid() {
    cases(64, |rng| {
        let a = arb_traj(rng, 0);
        let b = arb_traj(rng, 1);
        // An untrained model must still produce a well-formed similarity.
        let grid = Grid::covering(&[a.clone(), b.clone()], 10.0).expect("non-empty");
        let cfg = TrainConfig {
            dim: 4,
            ..TrainConfig::neutraj()
        };
        let backbone = neutraj::model::Backbone::build(&cfg, &grid);
        let model = {
            // Build via a 1-epoch no-op train to obtain a NeuTrajModel.
            let seeds = vec![a.clone(), b.clone()];
            let rescaled: Vec<Trajectory> =
                seeds.iter().map(|t| grid.rescale_trajectory(t)).collect();
            let dist = DistanceMatrix::compute(&Hausdorff, &rescaled);
            let cfg = TrainConfig {
                dim: 4,
                epochs: 1,
                n_samples: 1,
                ..TrainConfig::neutraj()
            };
            Trainer::new(cfg, grid).fit(&seeds, &dist, |_| {}).0
        };
        drop(backbone);
        let g = model.similarity(&a, &b);
        assert!(
            (0.0..=1.0 + 1e-12).contains(&g),
            "similarity {g} out of range"
        );
        assert!((model.similarity(&a, &a) - 1.0).abs() < 1e-9);
    });
}
