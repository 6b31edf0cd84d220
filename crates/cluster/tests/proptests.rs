//! Property-based tests of clustering: DBSCAN structural invariants and
//! metric-theoretic bounds of the agreement scores on random labellings
//! and random distance matrices.

use neutraj_cluster::{
    adjusted_rand_index, dbscan, homogeneity_completeness_v, num_clusters, ClusterAgreement,
    DbscanParams, Label,
};
use neutraj_measures::DistanceMatrix;
use neutraj_trajectory::rng::{cases, Rng};

fn arb_labels(rng: &mut Rng, n: usize) -> Vec<Label> {
    (0..n)
        .map(|_| match rng.gen_range(-1i64..4) {
            c if c < 0 => Label::Noise,
            c => Label::Cluster(c as u32),
        })
        .collect()
}

fn arb_symmetric_dist(rng: &mut Rng, n: usize) -> DistanceMatrix {
    let mut data = vec![0.0; n * n];
    for i in 0..n {
        for j in i + 1..n {
            let d = rng.gen_range(0.0..30.0);
            data[i * n + j] = d;
            data[j * n + i] = d;
        }
    }
    DistanceMatrix::from_raw(n, data)
}

#[test]
fn agreement_scores_are_bounded() {
    cases(64, |rng| {
        let a = arb_labels(rng, 12);
        let b = arb_labels(rng, 12);
        let ag = ClusterAgreement::between(&a, &b);
        assert!((0.0..=1.0 + 1e-12).contains(&ag.homogeneity));
        assert!((0.0..=1.0 + 1e-12).contains(&ag.completeness));
        assert!((0.0..=1.0 + 1e-12).contains(&ag.v_measure));
        assert!((-1.0..=1.0 + 1e-12).contains(&ag.ari));
    });
}

#[test]
fn agreement_is_perfect_on_self() {
    cases(64, |rng| {
        let a = arb_labels(rng, 10);
        let ag = ClusterAgreement::between(&a, &a);
        assert!((ag.v_measure - 1.0).abs() < 1e-9);
        assert!((ag.ari - 1.0).abs() < 1e-9);
    });
}

#[test]
fn ari_and_v_are_symmetric_under_swap() {
    cases(64, |rng| {
        let a = arb_labels(rng, 10);
        let b = arb_labels(rng, 10);
        assert!((adjusted_rand_index(&a, &b) - adjusted_rand_index(&b, &a)).abs() < 1e-9);
        // V-measure swaps homogeneity and completeness.
        let (h1, c1, v1) = homogeneity_completeness_v(&a, &b);
        let (h2, c2, v2) = homogeneity_completeness_v(&b, &a);
        assert!((h1 - c2).abs() < 1e-9);
        assert!((c1 - h2).abs() < 1e-9);
        assert!((v1 - v2).abs() < 1e-9);
    });
}

#[test]
fn agreement_invariant_under_relabeling() {
    cases(64, |rng| {
        let a = arb_labels(rng, 10);
        // Renaming cluster ids must not change any score.
        let renamed: Vec<Label> = a
            .iter()
            .map(|l| match l {
                Label::Noise => Label::Noise,
                Label::Cluster(c) => Label::Cluster(c + 17),
            })
            .collect();
        let ag = ClusterAgreement::between(&a, &renamed);
        assert!((ag.v_measure - 1.0).abs() < 1e-9);
        assert!((ag.ari - 1.0).abs() < 1e-9);
    });
}

#[test]
fn dbscan_structural_invariants() {
    cases(64, |rng| {
        let dist = arb_symmetric_dist(rng, 14);
        let eps = rng.gen_range(0.5f64..20.0);
        let min_pts = rng.gen_range(2usize..6);
        let labels = dbscan(&dist, DbscanParams { eps, min_pts });
        assert_eq!(labels.len(), 14);
        // Contiguous cluster ids starting at 0.
        let k = num_clusters(&labels);
        for c in 0..k as u32 {
            assert!(labels.iter().any(|l| l.cluster() == Some(c)));
        }
        // Every core point's cluster contains its whole eps-neighbourhood
        // (core points cannot have neighbours labelled into *no* cluster).
        for i in 0..14 {
            let neighbourhood: Vec<usize> = (0..14).filter(|&j| dist.get(i, j) <= eps).collect();
            if neighbourhood.len() >= min_pts {
                assert!(labels[i] != Label::Noise, "core point {i} labelled noise");
                for &j in &neighbourhood {
                    assert!(
                        labels[j] != Label::Noise,
                        "neighbour {j} of core {i} left as noise"
                    );
                }
            }
        }
    });
}

#[test]
fn dbscan_monotone_in_eps_for_noise_count() {
    cases(64, |rng| {
        let dist = arb_symmetric_dist(rng, 12);
        let eps = rng.gen_range(1.0f64..10.0);
        let p1 = DbscanParams { eps, min_pts: 3 };
        let p2 = DbscanParams {
            eps: eps * 2.0,
            min_pts: 3,
        };
        let noise = |labels: &[Label]| labels.iter().filter(|l| **l == Label::Noise).count();
        let n1 = noise(&dbscan(&dist, p1));
        let n2 = noise(&dbscan(&dist, p2));
        assert!(n2 <= n1, "noise grew with eps: {n1} -> {n2}");
    });
}
