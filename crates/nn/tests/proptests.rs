//! Property-based tests of the neural substrate: linear-algebra kernel
//! laws, optimizer behaviour, and encoder invariants on random inputs.

use neutraj_nn::linalg::{
    add_assign, axpy, dot, euclidean, matmul_nt_with_level, norm, sigmoid, softmax_inplace, Mat,
};
use neutraj_nn::{Adam, GruCell, LstmCell, SamLstmEncoder, Workspace, WriteLog};
use neutraj_obs::simd::SimdLevel;
use neutraj_trajectory::rng::{cases, splitmix64, Rng};

fn arb_vec(rng: &mut Rng, len: usize) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(-10.0..10.0)).collect()
}

#[test]
fn matvec_is_linear() {
    cases(64, |rng| {
        let data = arb_vec(rng, 12);
        let x = arb_vec(rng, 4);
        let y = arb_vec(rng, 4);
        let s = rng.gen_range(-5.0f64..5.0);
        let a = Mat::from_vec(3, 4, data);
        // A(x + s·y) == Ax + s·Ay
        let mut xs = x.clone();
        axpy(&mut xs, s, &y);
        let lhs = a.matvec(&xs);
        let ax = a.matvec(&x);
        let ay = a.matvec(&y);
        for k in 0..3 {
            assert!((lhs[k] - (ax[k] + s * ay[k])).abs() < 1e-9);
        }
    });
}

#[test]
fn matvec_t_is_adjoint() {
    cases(64, |rng| {
        let data = arb_vec(rng, 12);
        let x = arb_vec(rng, 4);
        let y = arb_vec(rng, 3);
        // ⟨Ax, y⟩ == ⟨x, Aᵀy⟩
        let a = Mat::from_vec(3, 4, data);
        let ax = a.matvec(&x);
        let mut aty = vec![0.0; 4];
        a.matvec_t_into(&y, &mut aty);
        assert!((dot(&ax, &y) - dot(&x, &aty)).abs() < 1e-9);
    });
}

#[test]
fn outer_acc_matches_definition() {
    cases(64, |rng| {
        let u = arb_vec(rng, 3);
        let v = arb_vec(rng, 4);
        let mut a = Mat::zeros(3, 4);
        a.outer_acc(&u, &v);
        for (r, ur) in u.iter().enumerate() {
            for (c, vc) in v.iter().enumerate() {
                assert!((a.get(r, c) - ur * vc).abs() < 1e-12);
            }
        }
    });
}

#[test]
fn euclidean_is_a_metric() {
    cases(64, |rng| {
        let a = arb_vec(rng, 5);
        let b = arb_vec(rng, 5);
        let c = arb_vec(rng, 5);
        assert!((euclidean(&a, &b) - euclidean(&b, &a)).abs() < 1e-12);
        assert!(euclidean(&a, &a) < 1e-12);
        assert!(euclidean(&a, &c) <= euclidean(&a, &b) + euclidean(&b, &c) + 1e-9);
        assert!((norm(&a) - euclidean(&a, &[0.0; 5])).abs() < 1e-12);
    });
}

#[test]
fn softmax_outputs_are_a_distribution() {
    cases(64, |rng| {
        let mut x = arb_vec(rng, 6);
        softmax_inplace(&mut x);
        assert!((x.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(x.iter().all(|&v| v > 0.0));
    });
}

#[test]
fn softmax_is_shift_invariant() {
    cases(64, |rng| {
        let x = arb_vec(rng, 5);
        let shift = rng.gen_range(-100.0f64..100.0);
        let mut a = x.clone();
        let mut b: Vec<f64> = x.iter().map(|v| v + shift).collect();
        softmax_inplace(&mut a);
        softmax_inplace(&mut b);
        for (p, q) in a.iter().zip(&b) {
            assert!((p - q).abs() < 1e-9);
        }
    });
}

#[test]
fn sigmoid_is_bounded_and_monotone() {
    cases(64, |rng| {
        let x = rng.gen_range(-30.0f64..30.0);
        let dx = rng.gen_range(0.001f64..5.0);
        let a = sigmoid(x);
        let b = sigmoid(x + dx);
        assert!(a > 0.0 && a < 1.0);
        assert!(b > a);
    });
    // Pinned: the case a past run shrank to. Beyond |x| ≈ 36.7 the f64
    // sigmoid rounds to exactly 1.0 — which is why `x` above stays
    // within ±30 — and must saturate without overshooting or dipping.
    let (x, dx) = (45.327668128394016, 0.001);
    let (a, b) = (sigmoid(x), sigmoid(x + dx));
    assert!(a > 0.0 && a <= 1.0);
    assert!(b >= a && b <= 1.0);
}

#[test]
fn add_assign_then_subtract_roundtrips() {
    cases(64, |rng| {
        let a = arb_vec(rng, 6);
        let b = arb_vec(rng, 6);
        let mut acc = a.clone();
        add_assign(&mut acc, &b);
        axpy(&mut acc, -1.0, &b);
        for (x, y) in acc.iter().zip(&a) {
            assert!((x - y).abs() < 1e-9);
        }
    });
}

#[test]
fn adam_always_moves_against_gradient_first_step() {
    cases(64, |rng| {
        let g = rng.gen_range(0.001f64..100.0);
        let mut adam = Adam::new(0.01);
        let slot = adam.register(1);
        let mut x = [0.0f64];
        adam.next_step();
        adam.step(slot, &mut x, &[g]);
        assert!(x[0] < 0.0, "positive gradient must decrease the parameter");
        // Bias-corrected first step has magnitude ≈ lr regardless of g.
        assert!((x[0].abs() - 0.01).abs() < 1e-6);
    });
}

/// One sequence through the SAM encoder: with `write`, a recording
/// training batch of one with its buffered writes committed right behind
/// it; without, the read-only forward.
fn sam_forward(
    enc: &mut SamLstmEncoder,
    coords: &[(f64, f64)],
    cells: &[(u32, u32)],
    write: bool,
) -> Vec<f64> {
    let (seq, ws) = ([(coords, cells)], &mut Workspace::new());
    if !write {
        return enc
            .cell
            .forward_batch(&seq, &enc.memory, enc.scan_width, None, ws)[0]
            .clone();
    }
    enc.begin_batch(std::iter::once(coords.len()));
    let mut log = WriteLog::new();
    let mut spans = enc.tapes.tapes_mut();
    let record = Some((&mut spans[..], std::slice::from_mut(&mut log)));
    let h = enc
        .cell
        .forward_batch(&seq, &enc.memory, enc.scan_width, record, ws);
    drop(spans);
    enc.commit(&log);
    h[0].clone()
}

#[test]
fn encoders_are_deterministic_and_finite() {
    cases(64, |rng| {
        let coords = (0..rng.gen_range(1..20))
            .map(|_| (rng.gen_range(-1.0f64..1.0), rng.gen_range(-1.0f64..1.0)))
            .collect::<Vec<_>>();
        let ws = &mut Workspace::new();
        let lstm = LstmCell::new(6, 3);
        let h1 = lstm.forward_batch(&[coords.as_slice()], None, ws);
        let h2 = lstm.forward_batch(&[coords.as_slice()], None, ws);
        assert_eq!(&h1, &h2);
        assert!(h1[0].iter().all(|v| v.is_finite() && v.abs() <= 1.0));

        let gru = GruCell::new(6, 4);
        let g1 = gru.forward_batch(&[coords.as_slice()], None, ws);
        assert!(g1[0].iter().all(|v| v.is_finite() && v.abs() <= 1.0));

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
        let s1 = sam_forward(&mut sam, &coords, &cells, false);
        assert!(s1.iter().all(|v| v.is_finite()));
    });
}

#[test]
fn sam_write_then_read_changes_embedding_locally() {
    cases(64, |rng| {
        let coords = (0..rng.gen_range(4..15))
            .map(|_| (rng.gen_range(-0.9f64..0.9), rng.gen_range(-0.9f64..0.9)))
            .collect::<Vec<_>>();
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
        let before = sam_forward(&mut sam, &coords, &cells, true);
        let after = sam_forward(&mut sam, &coords, &cells, false);
        assert!(before.iter().all(|v| v.is_finite()));
        assert!(after.iter().all(|v| v.is_finite()));
        assert!(sam.memory.occupancy() > 0.0);
    });
}

/// Values for the small-`m` GEMM property below: mostly ordinary
/// magnitudes, salted with the inputs where a reordered or contracted
/// kernel would show — signed zeros, subnormals, and magnitudes whose
/// products overflow (so sums pass through ±inf and NaN).
fn salted(state: &mut u64) -> f64 {
    const SALT: [f64; 10] = [
        0.0, -0.0, 5e-324, -5e-324, 1.1e-308, -2.2e-308, 1e300, -1e300, 1.3e154, -1.3e154,
    ];
    let z = splitmix64(state);
    if z & 7 == 0 {
        SALT[(z >> 8) as usize % SALT.len()]
    } else {
        (z >> 11) as f64 / (1u64 << 53) as f64 * 20.0 - 10.0
    }
}

/// Every arm of `matmul_nt` equals the scalar oracle and the per-element
/// `dot` bit for bit on every shape around the small-`m` kernel and the
/// packed one: `m` on both sides of the packing threshold (8) up to 17
/// (a second stripe of four, a short last stripe), every `n % 4` and
/// `k % 4` remainder, and panel counts odd and even (the AVX-512 tile
/// takes panels in pairs, an odd last one the AVX2 tile). On a host
/// without a tier its level runs the arm below and the test still pins
/// GEMM == `dot`.
#[test]
fn matmul_nt_small_m_bit_identical_across_levels_and_to_dot() {
    let mut state = 2019u64;
    for m in 1..=17usize {
        // Past the threshold, sparser `n` and `k` that keep one, two,
        // three and five panels, full and ragged, and every `k % 4`.
        let (ns, ks): (Vec<usize>, Vec<usize>) = if m <= 8 {
            ((1..=40).collect(), (1..=70).collect())
        } else {
            (
                vec![1, 5, 8, 9, 16, 20, 24, 35, 40],
                vec![1, 2, 3, 4, 7, 16, 35, 64],
            )
        };
        for &n in &ns {
            for &k in &ks {
                let a: Vec<f64> = (0..m * k).map(|_| salted(&mut state)).collect();
                let b: Vec<f64> = (0..n * k).map(|_| salted(&mut state)).collect();
                let run = |level: SimdLevel| {
                    let mut c = vec![f64::NAN; m * n];
                    matmul_nt_with_level(level, &a, &b, &mut c, m, n, k);
                    c
                };
                let scalar = run(SimdLevel::Scalar);
                for level in SimdLevel::ALL {
                    let wide = run(level);
                    for (at, (s, w)) in scalar.iter().zip(&wide).enumerate() {
                        assert_eq!(s.to_bits(), w.to_bits(), "{level:?} {m}x{n}x{k} at {at}");
                    }
                }
                for i in 0..m {
                    for j in 0..n {
                        // `dot` folds from -0.0 where the GEMM
                        // accumulators start at +0.0: the chains differ
                        // only in the sign of an all-(-0.0) sum, which
                        // `0.0 +` maps onto the accumulator's.
                        let want = 0.0 + dot(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
                        let s = scalar[i * n + j];
                        assert_eq!(s.to_bits(), want.to_bits(), "{m}x{n}x{k} at ({i},{j})");
                    }
                }
            }
        }
    }
}
