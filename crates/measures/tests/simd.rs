//! Property-based bit-identity tests for the SIMD-dispatched DP kernels
//! (`DESIGN.md` §12): with dispatch forced to either level, the engine's
//! lane-batched kernels must reproduce the naive per-pair DPs *bitwise*,
//! at every thread count.
//!
//! The forcing is in-process ([`GroundTruthEngine::with_simd_level`]) so
//! one test run exercises both arms regardless of the `NEUTRAJ_NO_SIMD`
//! environment override; on hosts without AVX2 the `Avx2` request safely
//! falls back to the scalar arm and the assertions still hold (both
//! sides then run the same code).

use neutraj_measures::{DistanceMatrix, GroundTruthEngine, MeasureKind};
use neutraj_obs::simd::SimdLevel;
use neutraj_trajectory::rng::{cases, Rng};
use neutraj_trajectory::{Point, Trajectory};

/// Random corpora with lengths straddling the `LANES = 8` tiling and the
/// kernels' tail handling (single-point trajectories included).
fn arb_corpus(rng: &mut Rng) -> Vec<Trajectory> {
    (0..rng.gen_range(3..14u64))
        .map(|id| {
            let pts = (0..rng.gen_range(1..24))
                .map(|_| Point::new(rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0)))
                .collect();
            Trajectory::new_unchecked(id, pts)
        })
        .collect()
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

/// Forced-AVX2 and forced-scalar engines agree bitwise with each
/// other AND with the naive `Measure::dist`, for every measure and
/// thread count — the end-to-end form of the per-row kernel
/// bit-identity tests inside `neutraj_measures::simd`.
#[test]
fn matrix_is_bit_identical_across_simd_levels_and_threads() {
    cases(24, |rng| {
        let ts = arb_corpus(rng);
        for kind in MeasureKind::ALL {
            let measure = kind.measure();
            // Naive reference: the plain per-pair DP, no engine at all.
            let n = ts.len();
            let mut naive = vec![0.0; n * n];
            for i in 0..n {
                for j in i + 1..n {
                    let d = measure.dist(ts[i].points(), ts[j].points());
                    naive[i * n + j] = d;
                    naive[j * n + i] = d;
                }
            }
            let naive = DistanceMatrix::from_raw(n, naive);
            for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
                let engine = GroundTruthEngine::new(&*measure, &ts).with_simd_level(level);
                assert_eq!(engine.simd_level(), level);
                for threads in [1usize, 2, 4] {
                    let got = engine.matrix(threads);
                    assert_matrices_bitwise(
                        &got,
                        &naive,
                        &format!("{kind} level={level:?} threads={threads}"),
                    );
                }
            }
        }
    });
}

/// The k-nearest lists (heap + pruning path over the lane kernels)
/// agree exactly across forced dispatch levels and thread counts.
#[test]
fn knn_lists_agree_across_simd_levels() {
    cases(24, |rng| {
        let ts = arb_corpus(rng);
        let queries: Vec<usize> = (0..ts.len().min(4)).collect();
        let k = 3.min(ts.len());
        for kind in MeasureKind::ALL {
            let measure = kind.measure();
            let scalar = GroundTruthEngine::new(&*measure, &ts)
                .with_simd_level(SimdLevel::Scalar)
                .knn_lists(&queries, k, 1);
            for threads in [1usize, 2, 4] {
                let wide = GroundTruthEngine::new(&*measure, &ts)
                    .with_simd_level(SimdLevel::Avx2)
                    .knn_lists(&queries, k, threads);
                assert_eq!(&scalar, &wide, "{} threads={}", kind, threads);
            }
        }
    });
}
