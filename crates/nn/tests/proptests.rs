//! Property-based tests of the neural substrate: linear-algebra kernel
//! laws, optimizer behaviour, and encoder invariants on random inputs.

use neutraj_nn::linalg::{
    add_assign, axpy, dot, euclidean, matmul_nt_with_level, norm, sigmoid, softmax_inplace, Mat,
};
use neutraj_nn::{Adam, GruEncoder, LstmEncoder, SamLstmEncoder};
use neutraj_obs::simd::SimdLevel;
use proptest::prelude::*;

fn arb_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-10.0f64..10.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matvec_is_linear(
        data in arb_vec(12),
        x in arb_vec(4),
        y in arb_vec(4),
        s in -5.0f64..5.0,
    ) {
        let a = Mat::from_vec(3, 4, data);
        // A(x + s·y) == Ax + s·Ay
        let mut xs = x.clone();
        axpy(&mut xs, s, &y);
        let lhs = a.matvec(&xs);
        let ax = a.matvec(&x);
        let ay = a.matvec(&y);
        for k in 0..3 {
            prop_assert!((lhs[k] - (ax[k] + s * ay[k])).abs() < 1e-9);
        }
    }

    #[test]
    fn matvec_t_is_adjoint(data in arb_vec(12), x in arb_vec(4), y in arb_vec(3)) {
        // ⟨Ax, y⟩ == ⟨x, Aᵀy⟩
        let a = Mat::from_vec(3, 4, data);
        let ax = a.matvec(&x);
        let mut aty = vec![0.0; 4];
        a.matvec_t_into(&y, &mut aty);
        prop_assert!((dot(&ax, &y) - dot(&x, &aty)).abs() < 1e-9);
    }

    #[test]
    fn outer_acc_matches_definition(u in arb_vec(3), v in arb_vec(4)) {
        let mut a = Mat::zeros(3, 4);
        a.outer_acc(&u, &v);
        for (r, ur) in u.iter().enumerate() {
            for (c, vc) in v.iter().enumerate() {
                prop_assert!((a.get(r, c) - ur * vc).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn euclidean_is_a_metric(a in arb_vec(5), b in arb_vec(5), c in arb_vec(5)) {
        prop_assert!((euclidean(&a, &b) - euclidean(&b, &a)).abs() < 1e-12);
        prop_assert!(euclidean(&a, &a) < 1e-12);
        prop_assert!(euclidean(&a, &c) <= euclidean(&a, &b) + euclidean(&b, &c) + 1e-9);
        prop_assert!((norm(&a) - euclidean(&a, &[0.0; 5])).abs() < 1e-12);
    }

    #[test]
    fn softmax_outputs_are_a_distribution(mut x in arb_vec(6)) {
        softmax_inplace(&mut x);
        prop_assert!((x.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(x.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn softmax_is_shift_invariant(x in arb_vec(5), shift in -100.0f64..100.0) {
        let mut a = x.clone();
        let mut b: Vec<f64> = x.iter().map(|v| v + shift).collect();
        softmax_inplace(&mut a);
        softmax_inplace(&mut b);
        for (p, q) in a.iter().zip(&b) {
            prop_assert!((p - q).abs() < 1e-9);
        }
    }

    #[test]
    fn sigmoid_is_bounded_and_monotone(x in -30.0f64..30.0, dx in 0.001f64..5.0) {
        let a = sigmoid(x);
        let b = sigmoid(x + dx);
        prop_assert!(a > 0.0 && a < 1.0);
        prop_assert!(b > a);
    }

    #[test]
    fn add_assign_then_subtract_roundtrips(a in arb_vec(6), b in arb_vec(6)) {
        let mut acc = a.clone();
        add_assign(&mut acc, &b);
        axpy(&mut acc, -1.0, &b);
        for (x, y) in acc.iter().zip(&a) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn adam_always_moves_against_gradient_first_step(g in 0.001f64..100.0) {
        let mut adam = Adam::new(0.01);
        let slot = adam.register(1);
        let mut x = [0.0f64];
        adam.next_step();
        adam.step(slot, &mut x, &[g]);
        prop_assert!(x[0] < 0.0, "positive gradient must decrease the parameter");
        // Bias-corrected first step has magnitude ≈ lr regardless of g.
        prop_assert!((x[0].abs() - 0.01).abs() < 1e-6);
    }

    #[test]
    fn encoders_are_deterministic_and_finite(
        coords in prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 1..20),
    ) {
        let lstm = LstmEncoder::new(6, 3);
        let (h1, _) = lstm.forward(&coords);
        let (h2, _) = lstm.forward(&coords);
        prop_assert_eq!(&h1, &h2);
        prop_assert!(h1.iter().all(|v| v.is_finite() && v.abs() <= 1.0));

        let gru = GruEncoder::new(6, 4);
        let (g1, _) = gru.forward(&coords);
        prop_assert!(g1.iter().all(|v| v.is_finite() && v.abs() <= 1.0));

        let mut sam = SamLstmEncoder::new(6, 8, 8, 2, 5);
        let cells: Vec<(u32, u32)> = coords
            .iter()
            .map(|&(x, y)| {
                (
                    (((x + 1.0) * 3.5) as u32).min(7),
                    (((y + 1.0) * 3.5) as u32).min(7),
                )
            })
            .collect();
        let (s1, _) = sam.forward(&coords, &cells, false);
        prop_assert!(s1.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn sam_write_then_read_changes_embedding_locally(
        coords in prop::collection::vec((-0.9f64..0.9, -0.9f64..0.9), 4..15),
    ) {
        // After a writing pass, re-encoding the same sequence reads its
        // own traces; the embedding may change but must stay finite.
        let mut sam = SamLstmEncoder::new(4, 8, 8, 1, 9);
        let cells: Vec<(u32, u32)> = coords
            .iter()
            .map(|&(x, y)| {
                (
                    (((x + 1.0) * 3.5) as u32).min(7),
                    (((y + 1.0) * 3.5) as u32).min(7),
                )
            })
            .collect();
        let (before, _) = sam.forward(&coords, &cells, true);
        let (after, _) = sam.forward(&coords, &cells, false);
        prop_assert!(before.iter().all(|v| v.is_finite()));
        prop_assert!(after.iter().all(|v| v.is_finite()));
        prop_assert!(sam.memory.occupancy() > 0.0);
    }
}

/// Values for the small-`m` GEMM property below: mostly ordinary
/// magnitudes, salted with the inputs where a reordered or contracted
/// kernel would show — signed zeros, subnormals, and magnitudes whose
/// products overflow (so sums pass through ±inf and NaN).
fn salted(state: &mut u64) -> f64 {
    const SALT: [f64; 10] = [
        0.0, -0.0, 5e-324, -5e-324, 1.1e-308, -2.2e-308, 1e300, -1e300, 1.3e154, -1.3e154,
    ];
    // splitmix64
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    if z & 7 == 0 {
        SALT[(z >> 8) as usize % SALT.len()]
    } else {
        (z >> 11) as f64 / (1u64 << 53) as f64 * 20.0 - 10.0
    }
}

/// The AVX2 arm of `matmul_nt` equals the scalar oracle and the
/// per-element `dot` bit for bit on every shape around the small-`m`
/// kernel: `m` on both sides of the packing threshold (8), every
/// `n % 4` and `k % 4` remainder. On a host without AVX2 both levels
/// run the scalar arm and the test still pins GEMM == `dot`.
#[test]
fn matmul_nt_small_m_bit_identical_across_levels_and_to_dot() {
    let mut state = 2019u64;
    for m in 1..=8usize {
        for n in 1..=40usize {
            for k in 1..=70usize {
                let a: Vec<f64> = (0..m * k).map(|_| salted(&mut state)).collect();
                let b: Vec<f64> = (0..n * k).map(|_| salted(&mut state)).collect();
                let mut scalar = vec![f64::NAN; m * n];
                let mut wide = vec![f64::NAN; m * n];
                matmul_nt_with_level(SimdLevel::Scalar, &a, &b, &mut scalar, m, n, k);
                matmul_nt_with_level(SimdLevel::Avx2, &a, &b, &mut wide, m, n, k);
                for i in 0..m {
                    for j in 0..n {
                        // `dot` folds from -0.0 where the GEMM
                        // accumulators start at +0.0: the chains differ
                        // only in the sign of an all-(-0.0) sum, which
                        // `0.0 +` maps onto the accumulator's.
                        let want = 0.0 + dot(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
                        let (s, w) = (scalar[i * n + j], wide[i * n + j]);
                        assert_eq!(s.to_bits(), w.to_bits(), "{m}x{n}x{k} at ({i},{j})");
                        assert_eq!(s.to_bits(), want.to_bits(), "{m}x{n}x{k} at ({i},{j})");
                    }
                }
            }
        }
    }
}
