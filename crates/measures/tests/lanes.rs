//! Property-based bit-identity tests for the lane-batched DP kernels
//! (`DESIGN.md` §12): every engine entry point that runs them —
//! `matrix`, `distances` and every DP pair `knn_lists` scores — must
//! reproduce the naive per-pair DPs *bitwise*, at every thread count, on
//! corpora whose lengths straddle the lane tiling.

use neutraj_measures::{top_k, DistanceMatrix, GroundTruthEngine, Measure, MeasureKind, Neighbor};
use neutraj_trajectory::rng::{cases, Rng};
use neutraj_trajectory::{Point, Trajectory};

/// Random corpora of 0 to 13 trajectories with lengths straddling the
/// `LANES = 8` tiling and the kernels' tail handling, empty and
/// single-point trajectories included. Each case also runs on its
/// one-trajectory prefix ([`with_prefix`]).
fn arb_corpus(rng: &mut Rng) -> Vec<Trajectory> {
    (0..rng.gen_range(0..14u64))
        .map(|id| {
            let pts = (0..rng.gen_range(0..24))
                .map(|_| Point::new(rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0)))
                .collect();
            Trajectory::new_unchecked(id, pts)
        })
        .collect()
}

/// The corpus and its one-trajectory prefix, so every case size from 0 up
/// — the lane kernels' one-group, one-lane edge — is covered.
fn with_prefix(ts: &[Trajectory]) -> [&[Trajectory]; 2] {
    [ts, &ts[..ts.len().min(1)]]
}

fn assert_matrices_bitwise(a: &DistanceMatrix, b: &DistanceMatrix, what: &str) {
    assert_eq!(a.n(), b.n(), "{what}: size");
    for i in 0..a.n() {
        for j in 0..a.n() {
            assert_eq!(
                a.get(i, j).to_bits(),
                b.get(i, j).to_bits(),
                "{what}: cell ({i},{j}) {} vs {}",
                a.get(i, j),
                b.get(i, j)
            );
        }
    }
}

fn bits(row: &[f64]) -> Vec<u64> {
    row.iter().map(|d| d.to_bits()).collect()
}

/// The naive top-`k` of `q`'s exact row, self excluded.
fn naive_knn(measure: &dyn Measure, ts: &[Trajectory], q: usize, k: usize) -> Vec<Neighbor> {
    let dists: Vec<f64> = ts
        .iter()
        .enumerate()
        .map(|(j, t)| {
            if j == q {
                f64::NAN // sorts last under total_cmp, then dropped
            } else {
                measure.dist(ts[q].points(), t.points())
            }
        })
        .collect();
    let mut nn = top_k(&dists, k);
    nn.retain(|n| n.index != q);
    nn
}

/// The engine agrees bitwise with the naive `Measure::dist` for every
/// measure and thread count — the end-to-end form of the per-row oracle
/// tests inside
/// `neutraj_measures::simd`: the matrix, dense rows of every query, and
/// a sparse row over an unsorted `to` list holding repeats and the query
/// itself.
#[test]
fn matrix_is_bit_identical_across_threads() {
    cases(24, |rng| {
        let corpus = arb_corpus(rng);
        for ts in with_prefix(&corpus) {
            let n = ts.len();
            let queries: Vec<usize> = (0..n).collect();
            let q = n / 2;
            let to: Vec<usize> = (0..n).rev().chain([q, 0]).collect();
            for kind in MeasureKind::ALL {
                let measure = kind.measure();
                let dist = |i: usize, j: usize| measure.dist(ts[i].points(), ts[j].points());
                // Naive reference: the plain per-pair DP, no engine at all.
                let mut naive = vec![0.0; n * n];
                for i in 0..n {
                    for j in i + 1..n {
                        let d = dist(i, j);
                        naive[i * n + j] = d;
                        naive[j * n + i] = d;
                    }
                }
                let naive = DistanceMatrix::from_raw(n, naive);
                let naive_rows: Vec<Vec<u64>> = queries
                    .iter()
                    .map(|&q| bits(&(0..n).map(|j| dist(q, j)).collect::<Vec<_>>()))
                    .collect();
                let engine = GroundTruthEngine::new(&*measure, ts);
                for threads in [1usize, 2, 4] {
                    let what = format!("{kind} threads={threads}");
                    assert_matrices_bitwise(&engine.matrix(threads), &naive, &what);
                }
                let rows: Vec<Vec<u64>> = queries
                    .iter()
                    .map(|&q| bits(&engine.distances(q, &queries)))
                    .collect();
                assert_eq!(rows, naive_rows, "{kind}: rows");
                if n > 0 {
                    let want: Vec<f64> = to.iter().map(|&j| dist(q, j)).collect();
                    assert_eq!(
                        bits(&engine.distances(q, &to)),
                        bits(&want),
                        "{kind}: distances from {q} to {to:?}"
                    );
                }
            }
        }
    });
}

/// The k-nearest lists (lane kernels fill the heap and score the tail's
/// survivors) equal a naive top-k of the exact row at every thread
/// count, for `k` from 1 to past the corpus size.
#[test]
fn knn_lists_agree_with_the_naive_top_k() {
    cases(24, |rng| {
        let corpus = arb_corpus(rng);
        for ts in with_prefix(&corpus) {
            let n = ts.len();
            let queries: Vec<usize> = (0..n).collect();
            for kind in MeasureKind::ALL {
                let measure = kind.measure();
                for k in [1, 3, n.saturating_sub(1), n + 2] {
                    let want: Vec<Vec<Neighbor>> = queries
                        .iter()
                        .map(|&q| naive_knn(&*measure, ts, q, k))
                        .collect();
                    let engine = GroundTruthEngine::new(&*measure, ts);
                    for threads in [1usize, 2, 4] {
                        assert_eq!(
                            engine.knn_lists(&queries, k, threads),
                            want,
                            "{kind} k={k} threads={threads}"
                        );
                    }
                }
            }
        }
    });
}
