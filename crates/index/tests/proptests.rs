//! Property-based tests of the spatial indexes: candidate soundness and
//! best-first kNN correctness on random corpora.

use neutraj_index::{GridInvertedIndex, RTree, SpatialIndex};
use neutraj_trajectory::rng::{cases, Rng};
use neutraj_trajectory::{Grid, Point, Trajectory};

fn arb_corpus(rng: &mut Rng) -> Vec<Trajectory> {
    (0..rng.gen_range(3..40u64))
        .map(|id| {
            let pts = (0..rng.gen_range(2..10))
                .map(|_| Point::new(rng.gen_range(-200.0..200.0), rng.gen_range(-200.0..200.0)))
                .collect();
            Trajectory::new_unchecked(id, pts)
        })
        .collect()
}

#[test]
fn rtree_range_query_equals_linear_filter() {
    cases(48, |rng| {
        let corpus = arb_corpus(rng);
        let tree = RTree::build(&corpus);
        let query = corpus[0].mbr().inflated(25.0);
        let got = tree.range_query(&query);
        let expected: Vec<usize> = corpus
            .iter()
            .enumerate()
            .filter(|(_, t)| t.mbr().intersects(&query))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(got, expected);
    });
}

#[test]
fn rtree_knn_distances_are_sorted_and_tight() {
    cases(48, |rng| {
        let corpus = arb_corpus(rng);
        let k = rng.gen_range(1usize..10);
        let tree = RTree::build(&corpus);
        let q = corpus[0].mbr();
        let got = tree.knn_mbr(&q, k);
        assert_eq!(got.len(), k.min(corpus.len()));
        for w in got.windows(2) {
            assert!(w[0].1 <= w[1].1 + 1e-12, "knn distances unsorted");
        }
        // No non-returned item may be strictly closer than the worst
        // returned one.
        if let Some(&(_, worst)) = got.last() {
            for (i, t) in corpus.iter().enumerate() {
                if !got.iter().any(|(gi, _)| *gi == i) {
                    assert!(
                        t.mbr().min_dist_box(&q) >= worst - 1e-12,
                        "missed closer item {i}"
                    );
                }
            }
        }
    });
}

#[test]
fn both_indexes_are_sound_candidate_generators() {
    cases(48, |rng| {
        let corpus = arb_corpus(rng);
        let radius = rng.gen_range(0.0f64..100.0);
        // "Sound" = no trajectory whose true nearest-point distance to the
        // query is within the radius may be pruned.
        let rtree = RTree::build(&corpus);
        let grid = Grid::covering(&corpus, 20.0).expect("non-empty");
        let inverted = GridInvertedIndex::build(grid, &corpus);
        let q = &corpus[0];
        let rc = rtree.candidates(q, radius);
        let ic = inverted.candidates(q, radius);
        for (i, t) in corpus.iter().enumerate() {
            let min_pair = t
                .points()
                .iter()
                .flat_map(|p| q.points().iter().map(move |r| p.dist(r)))
                .fold(f64::INFINITY, f64::min);
            if min_pair <= radius {
                assert!(rc.contains(&i), "rtree pruned true candidate {i}");
                assert!(ic.contains(&i), "inverted index pruned true candidate {i}");
            }
        }
        // Candidate lists are sorted and deduplicated.
        assert!(rc.windows(2).all(|w| w[0] < w[1]));
        assert!(ic.windows(2).all(|w| w[0] < w[1]));
    });
}
