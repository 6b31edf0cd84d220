//! Property-based tests of the spatial indexes on random corpora: the
//! R-tree's range query and the candidate soundness of both indexes.

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
        let got = tree.within(&query, 0.0);
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
fn both_indexes_are_sound_candidate_generators() {
    cases(48, |rng| {
        let corpus = arb_corpus(rng);
        // Besides ordinary radii, one wider than the whole grid can
        // address (2^33 cells of 20 m) and an infinite one: both must
        // keep every trajectory.
        let radius = match rng.gen_range(0u8..4) {
            0 => f64::INFINITY,
            1 => 20.0 * 2f64.powi(33),
            _ => rng.gen_range(0.0f64..100.0),
        };
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
