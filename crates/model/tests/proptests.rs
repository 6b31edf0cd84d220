//! Property-based tests of the model crate: similarity normalization,
//! sampling invariants, loss gradients and persistence on random inputs.

use neutraj_measures::DistanceMatrix;
use neutraj_model::{
    pair_similarity, ranked_random_samples, ranked_weighted_samples, EmbeddingStore, Normalization,
    QuantizedStore, RankedBatchLoss, SimilarityMatrix,
};
use neutraj_trajectory::rng::{cases, Rng};

/// A random symmetric distance matrix with zero diagonal.
fn arb_dist(rng: &mut Rng, n: usize) -> DistanceMatrix {
    let mut data = vec![0.0; n * n];
    for i in 0..n {
        for j in i + 1..n {
            let d = rng.gen_range(0.01..50.0);
            data[i * n + j] = d;
            data[j * n + i] = d;
        }
    }
    DistanceMatrix::from_raw(n, data)
}

#[test]
fn exp_decay_similarities_are_valid_and_symmetric() {
    cases(48, |rng| {
        let dist = arb_dist(rng, 8);
        let alpha = rng.gen_range(0.01f64..5.0);
        let s = SimilarityMatrix::exp_decay(&dist, alpha);
        for i in 0..8 {
            assert!((s.get(i, i) - 1.0).abs() < 1e-12, "self-sim must be 1");
            for j in 0..8 {
                assert!((0.0..=1.0).contains(&s.get(i, j)));
                assert!((s.get(i, j) - s.get(j, i)).abs() < 1e-12);
            }
        }
    });
}

#[test]
fn row_softmax_rows_are_distributions() {
    cases(48, |rng| {
        let dist = arb_dist(rng, 7);
        let alpha = rng.gen_range(0.01f64..5.0);
        let s = SimilarityMatrix::with_normalization(&dist, alpha, Normalization::RowSoftmax);
        for i in 0..7 {
            assert!((s.row(i).iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    });
}

#[test]
fn similarity_preserves_distance_order() {
    cases(48, |rng| {
        let dist = arb_dist(rng, 6);
        let alpha = rng.gen_range(0.05f64..3.0);
        let s = SimilarityMatrix::exp_decay(&dist, alpha);
        for a in 0..6 {
            for i in 0..6 {
                for j in 0..6 {
                    if dist.get(a, i) < dist.get(a, j) {
                        assert!(
                            s.get(a, i) >= s.get(a, j),
                            "closer seed got lower similarity"
                        );
                    }
                }
            }
        }
    });
}

#[test]
fn sampling_invariants_hold() {
    cases(48, |rng| {
        let dist = arb_dist(rng, 12);
        let anchor = rng.gen_range(0usize..12);
        let n = rng.gen_range(1usize..8);
        let rng_seed = rng.gen_range(0u64..1000);
        let sim = SimilarityMatrix::auto(&dist);
        for weighted in [true, false] {
            let mut rng = Rng::seed_from_u64(rng_seed);
            let s = if weighted {
                ranked_weighted_samples(&sim, anchor, n, &mut rng)
            } else {
                ranked_random_samples(&sim, anchor, n, &mut rng)
            };
            let all: Vec<usize> = s.similar.iter().chain(&s.dissimilar).copied().collect();
            assert!(!all.contains(&anchor), "anchor sampled as its own pair");
            assert!(all.iter().all(|&i| i < 12));
            // Ranked orders.
            let row = sim.row(anchor);
            for w in s.similar.windows(2) {
                assert!(row[w[0]] >= row[w[1]]);
            }
            for w in s.dissimilar.windows(2) {
                assert!(row[w[0]] <= row[w[1]]);
            }
            // Weighted sampling: each list individually duplicate-free.
            let mut ss = s.similar.clone();
            ss.sort_unstable();
            ss.dedup();
            assert_eq!(ss.len(), s.similar.len());
        }
    });
}

#[test]
fn rank_weights_always_normalized() {
    cases(48, |rng| {
        let n = rng.gen_range(1usize..50);
        for cfg in [RankedBatchLoss::neutraj(), RankedBatchLoss::siamese()] {
            let w = cfg.rank_weights(n);
            assert_eq!(w.len(), n);
            assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(w.iter().all(|&x| x > 0.0));
        }
    });
}

#[test]
fn pair_loss_gradients_match_finite_differences() {
    cases(48, |rng| {
        let anchor = (0..4)
            .map(|_| rng.gen_range(-2.0f64..2.0))
            .collect::<Vec<_>>();
        let sample = (0..4)
            .map(|_| rng.gen_range(-2.0f64..2.0))
            .collect::<Vec<_>>();
        let target = rng.gen_range(0.0f64..1.0);
        // Skip the non-differentiable coincidence point.
        if neutraj_nn::linalg::euclidean(&anchor, &sample) <= 1e-3 {
            return;
        }
        let cfg = RankedBatchLoss::neutraj();
        let out = &cfg.similar_list(&anchor, &[&sample], &[target])[0];
        let eps = 1e-6;
        for k in 0..4 {
            let mut ap = anchor.clone();
            let mut am = anchor.clone();
            ap[k] += eps;
            am[k] -= eps;
            let fp = cfg.similar_list(&ap, &[&sample], &[target])[0].loss;
            let fm = cfg.similar_list(&am, &[&sample], &[target])[0].loss;
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - out.d_anchor[k]).abs() < 1e-5,
                "k={k}: {num} vs {}",
                out.d_anchor[k]
            );
        }
    });
}

#[test]
fn pair_similarity_is_a_valid_kernel() {
    cases(48, |rng| {
        let a = (0..6)
            .map(|_| rng.gen_range(-5.0f64..5.0))
            .collect::<Vec<_>>();
        let b = (0..6)
            .map(|_| rng.gen_range(-5.0f64..5.0))
            .collect::<Vec<_>>();
        let g = pair_similarity(&a, &b);
        assert!(g > 0.0 && g <= 1.0);
        assert!((pair_similarity(&a, &b) - pair_similarity(&b, &a)).abs() < 1e-15);
        assert!((pair_similarity(&a, &a) - 1.0).abs() < 1e-15);
    });
}

/// `a − b` as an unevaluated sum `s + e`, exactly (Knuth's TwoSum).
fn two_diff(a: f64, b: f64) -> (f64, f64) {
    let s = a - b;
    let bb = s - a;
    (s, (a - (s - bb)) - (b + bb))
}

/// The int8 quantizer's core numeric contract, the inequality the exact
/// scan's lower bound rests on (`DESIGN.md` §12): with per-row
/// `scale = range/255` and `offset = min`, each component is within half
/// a step of its dequantization `offset + scale·code`, so a row is within
/// `scale·√d/2` of it — up to the derived rounding term
/// `QuantizedStore::row_error_bound` carries, not a tuned slack. Over
/// magnitudes from 10⁻¹⁵⁰ to 10¹⁵⁰, near-constant rows, rows whose every
/// inner component rounds by almost exactly half a step, and 1 to 64
/// components.
#[test]
fn quantize_dequantize_error_is_bounded_by_half_scale() {
    cases(64, |rng| {
        let dim = rng.gen_range(1usize..=64);
        let magnitude = 10f64.powi(rng.gen_range(-150i32..=150));
        let rows = (0..rng.gen_range(1..12))
            .map(|r| {
                let center = magnitude * (rng.unit_f64() - 0.5);
                let scale = magnitude * rng.unit_f64();
                (0..dim)
                    .map(|c| match r % 3 {
                        0 => center + scale * (rng.unit_f64() - 0.5),
                        1 => center * (1.0 + 1e-14 * rng.unit_f64()),
                        // Pinned to [0, 255·s] by its first two
                        // components, the rest just past a half step.
                        _ => match c {
                            0 => 0.0,
                            1 => 255.0 * scale,
                            _ => scale * (rng.gen_range(0u8..255) as f64 + 0.5 + 1e-9),
                        },
                    })
                    .collect::<Vec<f64>>()
            })
            .collect::<Vec<_>>();
        let store = EmbeddingStore::from_embeddings(dim, &rows);
        let qs = QuantizedStore::from_store(&store);
        for (i, row) in rows.iter().enumerate() {
            let (offset, scale) = qs.offset_scale(i);
            // `‖x − x̂‖` from exact residuals: `v − offset` by TwoSum and
            // `scale·code` by a fused multiply-add's remainder, so the
            // only roundings left are the few below, whose error the
            // final widening covers.
            let mut sq = 0.0;
            for (&v, &code) in row.iter().zip(&qs.codes(i)) {
                let (t, et) = two_diff(v, offset);
                let p = scale * f64::from(code);
                let ep = scale.mul_add(f64::from(code), -p);
                let r = (t - p) + (et - ep);
                sq += r * r;
            }
            let err = sq.sqrt() * (1.0 + (dim as f64 + 4.0) * f64::EPSILON)
                + scale * f64::EPSILON * f64::EPSILON;
            let bound = qs.row_error_bound(i);
            assert!(
                err <= bound,
                "row {i} (d {dim}, magnitude {magnitude:e}): ‖x − x̂‖ {err:e} > {bound:e}"
            );
            // ... and the bound is the half step, not a loose one.
            assert!(bound <= scale * (dim as f64).sqrt() * 0.5 * (1.0 + 1e-11));
        }
    });
}
