//! Property tests for the batched serving path: the lockstep GEMM
//! forward must give every trajectory the embedding it gets alone (a
//! lockstep batch of one) for every backbone, batch size and length mix,
//! and the exact top-k must return exactly the scalar query's neighbours —
//! tie ordering included — and exactly what scoring every row into the
//! bounded heap returns (the naive oracle), at every batch width, whether
//! asked through the store or through a copy of its int8 codes.

use neutraj_measures::{Neighbor, NeighborHeap};
use neutraj_model::{BackboneKind, EmbeddingStore, NeuTrajModel, QuantizedStore, TrainConfig};
use neutraj_nn::linalg::dot;
use neutraj_nn::simd::scan_score;
use neutraj_trajectory::rng::{cases, Rng};
use neutraj_trajectory::{BoundingBox, Grid, Point, Trajectory};

fn grid() -> Grid {
    Grid::new(BoundingBox::new(0.0, 0.0, 1000.0, 500.0), 50.0).unwrap()
}

fn model(kind: BackboneKind) -> NeuTrajModel {
    let cfg = TrainConfig {
        backbone: kind,
        dim: 8,
        seed: 9,
        ..TrainConfig::neutraj()
    };
    NeuTrajModel::untrained(cfg, grid())
}

/// A deterministic trajectory of `len` points, shaped by `id` so every
/// batch slot differs.
fn traj(id: u64, len: usize) -> Trajectory {
    Trajectory::new_unchecked(
        id,
        (0..len)
            .map(|k| {
                let t = k as f64;
                let i = id as f64;
                Point::new(
                    500.0 + 450.0 * (0.37 * t + 0.13 * i).sin(),
                    250.0 + 220.0 * (0.23 * t - 0.29 * i).cos(),
                )
            })
            .collect(),
    )
}

/// The reference: one trajectory at a time through `embed`, a lockstep
/// batch of one — no other slot, no packed panels, nothing retiring
/// around it. (The per-sequence loops the lockstep replaced are
/// `neutraj-nn`'s `#[cfg(test)]` oracles, which each cell's
/// `forward_batch` is checked against there.)
fn scalar_embed(m: &NeuTrajModel, t: &Trajectory) -> Vec<f64> {
    m.embed(t)
}

/// Tentpole invariant: `embed_batch` is bit-identical to embedding each
/// trajectory alone for every backbone at batch sizes 1..=17 with mixed
/// sequence lengths.
#[test]
fn embed_batch_bit_identical_to_scalar_embed() {
    cases(12, |rng| {
        let lens = (0..rng.gen_range(1..=17))
            .map(|_| rng.gen_range(2usize..40))
            .collect::<Vec<_>>();
        for kind in [BackboneKind::SamLstm, BackboneKind::Lstm, BackboneKind::Gru] {
            let m = model(kind);
            let ts: Vec<Trajectory> = lens
                .iter()
                .enumerate()
                .map(|(i, &len)| traj(i as u64, len))
                .collect();
            let batched = m.embed_batch(&ts);
            assert_eq!(batched.len(), ts.len());
            for (t, got) in ts.iter().zip(&batched) {
                let want = scalar_embed(&m, t);
                assert_eq!(&want, got, "backbone {:?} diverged", kind);
            }
        }
    });
}

/// `knn_batch` returns exactly `knn` per query — same indices, same
/// distances, same tie ordering. Embeddings are drawn from a small
/// discrete set so duplicate rows (distance ties) are common, and the
/// corpus spans more than one scan block.
#[test]
fn knn_batch_exactly_matches_scalar_knn() {
    cases(12, |rng| {
        let vals = (0..600).map(|_| rng.gen_range(0u8..6)).collect::<Vec<_>>();
        let qvals = (0..8).map(|_| rng.gen_range(0u8..6)).collect::<Vec<_>>();
        let k = rng.gen_range(1usize..20);
        let dim = 4;
        let embs: Vec<Vec<f64>> = vals
            .chunks(dim)
            .map(|c| c.iter().map(|&v| v as f64).collect())
            .collect();
        let store = EmbeddingStore::from_embeddings(dim, &embs);
        let queries: Vec<Vec<f64>> = qvals
            .chunks(dim)
            .map(|c| c.iter().map(|&v| v as f64).collect())
            .collect();
        let qrefs: Vec<&[f64]> = queries.iter().map(|q| q.as_slice()).collect();
        let batch = store.knn_batch(&qrefs, k);
        assert_eq!(batch.len(), queries.len());
        for (q, got) in qrefs.iter().zip(&batch) {
            let want = store.knn(q, k);
            assert_eq!(&want, got, "batched scan diverged from scalar");
        }
    });
}

/// The oracle: every row scored by `scan_score` — the exact top-k's own
/// distance, `max(‖q‖² − 2·q·x + ‖x‖², 0)` — and pushed into a
/// `NeighborHeap`, no bound and no batching.
fn knn_naive_oracle(store: &EmbeddingStore, queries: &[&[f64]], k: usize) -> Vec<Vec<Neighbor>> {
    queries
        .iter()
        .map(|q| {
            let qn = dot(q, q);
            let mut heap = NeighborHeap::new(k);
            for row in 0..store.len() {
                let x = store.get(row);
                heap.push(row, scan_score(q, qn, x, dot(x, x)));
            }
            let mut out = heap.into_sorted();
            for nb in &mut out {
                nb.dist = nb.dist.sqrt();
            }
            out
        })
        .collect()
}

/// `knn_batch` against the oracle, bit for bit, at every [`WIDTHS`]
/// width `queries` (cycled) fills and for every `k` that changes how the
/// bound arms: none kept, one, ten, exactly `N`, more — asked through the
/// store and through a copy of its codes.
fn assert_scan_matches_oracle(store: &EmbeddingStore, queries: &[Vec<f64>], what: &str) {
    let n = store.len();
    assert_scan_matches_oracle_at(store, queries, &[0, 1, 10, n, n + 5], what);
}

/// [`assert_scan_matches_oracle`] at the depths `ks`.
fn assert_scan_matches_oracle_at(
    store: &EmbeddingStore,
    queries: &[Vec<f64>],
    ks: &[usize],
    what: &str,
) {
    let n = store.len();
    let bits = |lists: &[Vec<Neighbor>]| -> Vec<Vec<(usize, u64)>> {
        lists
            .iter()
            .map(|l| l.iter().map(|nb| (nb.index, nb.dist.to_bits())).collect())
            .collect()
    };
    let codes = QuantizedStore::from_store(store);
    for b in WIDTHS {
        let qrefs: Vec<&[f64]> = (queries.iter().cycle().take(b))
            .map(|q| q.as_slice())
            .collect();
        for &k in ks {
            let got = store.knn_batch(&qrefs, k);
            let want = knn_naive_oracle(store, &qrefs, k);
            let shape = format!("B={b} N={n} d={} k={k}", store.dim());
            assert_eq!(bits(&got), bits(&want), "{what}: {shape}");
            assert!(got.iter().all(|l| l.len() == k.min(n)));
            let (via_codes, _) = codes.knn_batch(store, &qrefs, k);
            assert_eq!(bits(&via_codes), bits(&want), "{what}, via codes: {shape}");
        }
    }
}

/// Batch widths of the oracle checks: a lone query; either side of eight
/// and of sixteen, the widths the exact scan used to switch kernels at;
/// and more than two of those.
const WIDTHS: [usize; 7] = [1, 7, 8, 9, 16, 17, 33];

fn random_rows(rng: &mut Rng, rows: usize, dim: usize) -> Vec<Vec<f64>> {
    (0..rows)
        .map(|_| (0..dim).map(|_| rng.unit_f64() - 0.5).collect())
        .collect()
}

/// The exact top-k equals the oracle on every shape the code pass splits
/// differently: row counts of every residue mod 16 (a tile of the codes)
/// with fewer than four included, a store of 513 rows (a whole code chunk
/// and one row of the next), and dimensions on both sides of a four-code
/// word; at every [`WIDTHS`] width.
#[test]
fn knn_batch_matches_the_oracle_on_every_shape() {
    let mut rng = Rng::seed_from_u64(24);
    for dim in [1usize, 3, 4, 31, 32, 33] {
        for n in (0..=16).chain([77, 131, 513]) {
            let store = EmbeddingStore::from_embeddings(dim, &random_rows(&mut rng, n, dim));
            assert_scan_matches_oracle(&store, &random_rows(&mut rng, 33, dim), "random");
        }
    }
}

/// ... and where a bound in front of the heap could go wrong: tied
/// distances and duplicate rows (the index decides), and a query that is a
/// stored row (exact zero); `±0.0`, subnormals, `NaN` and `±∞` in rows and
/// queries (the store is a public type; a NaN score is distance 0 and must
/// not be pruned), and rows without a finite bound — a non-finite
/// component, a range that overflows, a range under `2⁻¹⁰⁰⁰`; a corpus
/// whose distances fall with every row, so each one tightens the
/// threshold the next is tested against, and one whose distances rise,
/// so none does.
#[test]
fn knn_batch_matches_the_oracle_on_ties_specials_and_monotone_corpora() {
    cases(6, |rng| {
        let dim = [3usize, 6, 32][rng.gen_range(0usize..3)];
        let n = rng.gen_range(40usize..200);

        let mut rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.gen_range(0u8..3) as f64).collect())
            .collect();
        rows[n - 1] = rows[0].clone();
        let mut queries: Vec<Vec<f64>> = (0..9)
            .map(|_| (0..dim).map(|_| rng.gen_range(0u8..3) as f64).collect())
            .collect();
        queries[0] = rows[n / 2].clone();
        let store = EmbeddingStore::from_embeddings(dim, &rows);
        assert_scan_matches_oracle(&store, &queries, "ties");

        let tiny = f64::MIN_POSITIVE;
        let special = [
            0.0,
            -0.0,
            5e-324,
            -3.0 * tiny / 4.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut rows = random_rows(rng, n, dim);
        let mut queries = random_rows(rng, 9, dim);
        for v in rows.iter_mut().chain(queries.iter_mut()).flatten() {
            if rng.gen_bool(0.05) {
                *v = special[rng.gen_range(0usize..special.len())];
            }
        }
        rows[1][0] = f64::MAX;
        rows[1][dim - 1] = -f64::MAX;
        rows[2] = (0..dim).map(|c| tiny * (c % 2) as f64).collect();
        rows[3] = vec![5e-324; dim];
        let store = EmbeddingStore::from_embeddings(dim, &rows);
        assert_scan_matches_oracle(&store, &queries, "specials");

        let base = random_rows(rng, 1, dim).remove(0);
        let queries: Vec<Vec<f64>> = (0..9)
            .map(|i| base.iter().map(|v| v + 1e-3 * i as f64).collect())
            .collect();
        for falling in [true, false] {
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|j| {
                    let step = if falling { n - j } else { j + 1 } as f64;
                    base.iter().map(|v| v + step).collect()
                })
                .collect();
            let store = EmbeddingStore::from_embeddings(dim, &rows);
            assert_scan_matches_oracle(&store, &queries, "monotone");
        }
    });
}

/// `x` moved `n` ulps away from zero.
fn ulps(x: f64, n: u64) -> f64 {
    f64::from_bits(x.to_bits() + n)
}

/// Components of a row whose codes all round up by half a step: the
/// minimum `0` and maximum `255·s` pin the row's scale at `s`, and every
/// other component sits just past the middle of its step, so its
/// dequantization is `s/2` larger than it. Returns the row and the codes
/// it quantizes to.
fn half_step_row(rng: &mut Rng, dim: usize, s: f64) -> (Vec<f64>, Vec<f64>) {
    let mut row = vec![0.0; dim];
    let mut codes = vec![0.0; dim];
    row[dim - 1] = 255.0 * s;
    codes[dim - 1] = 255.0;
    for c in 1..dim - 1 {
        let code = rng.gen_range(1u8..254) as f64;
        row[c] = (code + 0.5 + 1e-6) * s;
        codes[c] = code + 1.0;
    }
    (row, codes)
}

/// The inputs a bound over int8 codes could get wrong, each through the
/// oracle at every [`WIDTHS`] width and at `k ∈ {0, 1, 3, N, N + 3}`
/// (`DESIGN.md` §12 derives the bound):
///
/// * constant rows and queries (`scale = 0`: the error bounds are zero
///   and only the rounding slack separates a bound from the approximate
///   distance), an ulp apart, with duplicates;
/// * exact ties at the k-th distance (the index decides);
/// * rows one ulp from the query;
/// * rows whose codes all round up by half a step beside rows the codes
///   hold exactly, with exact queries — only the rows' error bound keeps
///   the half-step rows — and the mirror image, half-step queries among
///   constant rows, where only the query's does;
/// * corpora and queries scaled by 10^±150, and by 10^±160, where
///   squares overflow or underflow;
/// * clustered rows whose jitter within a cluster is below one
///   quantization step, so the codes of a cluster's rows barely differ;
/// * corpora of 0, 1 and 7 rows;
/// * non-finite rows and queries, which have no bound: scored, and no
///   panic.
#[test]
fn bounded_scan_matches_score_matrix_on_adversarial_rows() {
    /// What a case is, its rows, and sixteen queries.
    type Case = (&'static str, Vec<Vec<f64>>, Vec<Vec<f64>>);
    let dim = 8;
    cases(4, |rng| {
        let mut stores: Vec<Case> = Vec::new();
        let constant = |v: f64| vec![v; dim];

        let c = 0.5 + rng.unit_f64();
        let rows = (0..40).map(|j| constant(ulps(c, j % 25))).collect();
        let queries = (0..16).map(|i| constant(ulps(c, 2 * i))).collect();
        stores.push(("constant rows an ulp apart", rows, queries));

        // The origin and its two nearest rows, then 2·dim rows all at
        // distance exactly 1: k = 3 cuts through the tie.
        let mut rows = vec![constant(0.0)];
        for sign in [0.5, -0.5] {
            rows.push((0..dim).map(|c| if c == 0 { sign } else { 0.0 }).collect());
        }
        for c in 0..dim {
            for sign in [1.0, -1.0] {
                rows.push((0..dim).map(|i| if i == c { sign } else { 0.0 }).collect());
            }
        }
        rows.extend((0..20).map(|_| (0..dim).map(|_| rng.gen_range(0u8..3) as f64).collect()));
        let mut queries = vec![constant(0.0); 8];
        queries.extend(rows[..8].iter().cloned());
        stores.push(("ties at the k-th distance", rows, queries));

        let q: Vec<f64> = (0..dim).map(|_| rng.unit_f64() - 0.5).collect();
        let mut rows = vec![q.clone(), q.clone()];
        for c in 0..dim {
            for step in [f64::next_up, f64::next_down] {
                let mut row = q.clone();
                row[c] = step(row[c]);
                rows.push(row);
            }
        }
        rows.extend((0..20).map(|_| {
            q.iter()
                .map(|v| v + 1e-3 * (rng.unit_f64() - 0.5))
                .collect()
        }));
        let queries = (0..16).map(|i| rows[i % rows.len()].clone()).collect();
        stores.push(("rows an ulp from the query", rows, queries));

        // Half-step rows `H` and, for each, an exactly held row `E` whose
        // norm lies between `‖H‖` and `‖Ĥ‖`; queries are constant and at
        // or below every component, so `Ĥ` is farther from them than `H`.
        let mut rows = Vec::new();
        for _ in 0..20 {
            let s = 1e-3 * (1.0 + rng.unit_f64());
            let (h, codes) = half_step_row(rng, dim, s);
            let norm = |v: &[f64]| dot(v, v).sqrt();
            let target = 0.5 * (norm(&h) + s * norm(&codes));
            let mu = target / norm(&codes);
            rows.push(h);
            rows.push(codes.iter().map(|c| mu * c).collect());
        }
        let queries = (0..16).map(|i| constant(-1e-4 * i as f64)).collect();
        stores.push(("half-step rows, exact queries", rows, queries));

        // Constant rows densely around the mean of half-step queries (one
        // query with its middle components rotated, so all share it).
        let q = half_step_row(rng, dim, 1e-3).0;
        let queries: Vec<Vec<f64>> = (0..16)
            .map(|i| {
                let mut q = q.clone();
                q[1..dim - 1].rotate_left(i % (dim - 2));
                q
            })
            .collect();
        let mean = q.iter().sum::<f64>() / dim as f64;
        let rows = (0..40)
            .map(|j| constant(mean + (j as f64 - 20.0) * 6e-5))
            .collect();
        stores.push(("half-step queries, constant rows", rows, queries));

        // Positive components at 10^160: a squared norm, and with it the
        // approximate distance, is +∞ (mixed signs make it NaN, which the
        // kernels' clamp maps to 0 — row 47).
        for scale in [1e150, 1e-150, 1e160, 1e-160] {
            let scaled = |rows: Vec<Vec<f64>>| -> Vec<Vec<f64>> {
                rows.into_iter()
                    .map(|r| r.into_iter().map(|v| (v + 1.0) * scale).collect())
                    .collect()
            };
            stores.push((
                "scaled corpus and queries",
                scaled(random_rows(rng, 60, dim)),
                scaled(random_rows(rng, 16, dim)),
            ));
        }
        let mut rows = random_rows(rng, 60, dim);
        for (at, scale) in [(3, 1e150), (17, 1e-150), (29, 1e160), (41, 1e-160)] {
            rows[at].iter_mut().for_each(|v| *v = (*v + 1.0) * scale);
        }
        rows[47].iter_mut().for_each(|v| *v *= 1e160);
        let mut queries = random_rows(rng, 16, dim);
        queries[2].iter_mut().for_each(|v| *v = (*v + 1.0) * 1e160);
        stores.push(("a few scaled rows and queries", rows, queries));

        // Four clusters of 150 rows, centres in [0, 300) and jitter
        // in [0, 2): a row's range spans the centres, so its quantization
        // step (≈ 1.2) is wider than the jitter, and a cluster holds
        // more rows than any small over-fetch of the codes' ranking could
        // be sure to cover. Half the queries are stored rows, half fresh
        // jitter around the centres.
        let centres: Vec<Vec<f64>> = (0..4)
            .map(|_| (0..dim).map(|_| rng.gen_range(0u32..300) as f64).collect())
            .collect();
        let mut jittered = |c: &[f64]| -> Vec<f64> {
            c.iter()
                .map(|v| v + rng.gen_range(0u32..100) as f64 / 50.0)
                .collect()
        };
        let rows: Vec<Vec<f64>> = (0..600).map(|i| jittered(&centres[i % 4])).collect();
        let mut queries: Vec<Vec<f64>> = (0..8).map(|i| rows[i * 71].clone()).collect();
        queries.extend((0..8).map(|i| jittered(&centres[i % 4])));
        stores.push(("clusters finer than a quantization step", rows, queries));

        for n in [0, 1, 7] {
            stores.push((
                "tiny corpus",
                random_rows(rng, n, dim),
                random_rows(rng, 16, dim),
            ));
        }

        let mut rows = random_rows(rng, 50, dim);
        rows[5][2] = f64::NAN;
        rows[23][0] = f64::INFINITY;
        rows[37] = constant(f64::NEG_INFINITY);
        let mut queries = random_rows(rng, 16, dim);
        queries[1][4] = f64::NAN;
        stores.push(("non-finite rows and a non-finite query", rows, queries));

        for (what, rows, queries) in stores {
            let store = EmbeddingStore::from_embeddings(dim, &rows);
            let n = store.len();
            assert_scan_matches_oracle_at(&store, &queries, &[0, 1, 3, n, n + 3], what);
        }
    });
}

/// Non-property pin for the batch sizes below the GEMM's packing
/// threshold (`m < 8`), which take `matmul_nt`'s small-`m` arm — the
/// lanes-across-rows AVX2 kernel or, under `NEUTRAJ_NO_SIMD=1`, its
/// scalar oracle: the lockstep embed and the norm-trick scan still equal
/// their scalar paths bit for bit. The store's shape leaves remainders
/// in both kernel dimensions (`d = 6`, a 189-row last scan block), and
/// duplicate rows put ties in the top-k.
#[test]
fn small_batches_match_scalar_embed_and_knn() {
    let dim = 6;
    let embs: Vec<Vec<f64>> = (0..701usize)
        .map(|i| {
            (0..dim)
                .map(|c| ((i * 7 + c * 3) % 11) as f64 * 0.5)
                .collect()
        })
        .collect();
    let store = EmbeddingStore::from_embeddings(dim, &embs);
    for b in [1usize, 3, 4, 7] {
        for kind in [BackboneKind::SamLstm, BackboneKind::Lstm, BackboneKind::Gru] {
            let m = model(kind);
            let ts: Vec<Trajectory> = (0..b).map(|i| traj(i as u64, 3 + (i * 11) % 29)).collect();
            let batched = m.embed_batch(&ts);
            for (t, got) in ts.iter().zip(&batched) {
                assert_eq!(&scalar_embed(&m, t), got, "B={b} backbone {kind:?}");
            }
        }
        let queries: Vec<Vec<f64>> = (0..b)
            .map(|q| (0..dim).map(|c| ((q * 5 + c) % 9) as f64 * 0.5).collect())
            .collect();
        let qrefs: Vec<&[f64]> = queries.iter().map(|q| q.as_slice()).collect();
        let batch = store.knn_batch(&qrefs, 12);
        assert_eq!(batch.len(), b);
        for (q, got) in qrefs.iter().zip(&batch) {
            assert_eq!(&store.knn(q, 12), got, "B={b}");
        }
    }
}

/// Non-property pin: batching across the scalar/batched embed boundary
/// composes — a `SimilarityDb` filled via scalar inserts answers batched
/// queries bit-identically to scalar ones.
#[test]
fn db_knn_batch_matches_scalar_knn() {
    use neutraj_model::{Query, SimilarityDb};
    let m = model(BackboneKind::SamLstm);
    let mut db = SimilarityDb::new(m);
    for i in 0..40 {
        db.insert(traj(i, 3 + (i as usize * 7) % 25)).unwrap();
    }
    let queries: Vec<Trajectory> = (100..109).map(|i| traj(i, 5 + (i as usize) % 20)).collect();
    let q = Query::new(5);
    let batch = db.search_batch(&queries, &q).unwrap();
    for (one, got) in queries.iter().zip(&batch) {
        assert_eq!(&db.search(one, &q).unwrap(), got);
    }
}

/// A store grown through `SimilarityDb::inserted` — batches of 1, 8 and
/// 63 rows, from corpora on both sides of the 64-row row-chunk and the
/// 512-row code-chunk boundaries —
/// is the store a bulk load builds over the same rows: `==` (rows, norms
/// and codes), the same exact answers as the bulk store and the oracle, the same
/// IVF and graph shortlists, and `as_flat` the same bits. A clone does
/// not carry `as_flat`'s copy.
#[test]
fn store_grown_by_inserted_equals_the_bulk_store() {
    use neutraj_model::{AnnParams, HnswParams, SimilarityDb};
    let m = model(BackboneKind::Lstm);
    let batches = [1usize, 8, 63];
    let grown_by: usize = batches.iter().sum();
    let ts: Vec<Trajectory> = (0..513 + grown_by)
        .map(|i| traj(i as u64, 3 + (i * 7) % 13))
        .collect();
    let queries: Vec<Vec<f64>> = (0..16)
        .map(|i| m.embed(&traj(1000 + i, 4 + i as usize)))
        .collect();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for start in [0usize, 1, 63, 64, 65, 129, 511, 512, 513] {
        let mut db = SimilarityDb::new(m.clone());
        let mut at = start;
        db = db.inserted(&ts[..start], 1).unwrap();
        for n in batches {
            db = db.inserted(&ts[at..at + n], 2).unwrap();
            at += n;
        }
        let rows = &ts[..at];
        let grown = db.store();
        let embs = m.embed_batch(rows);
        let bulk = EmbeddingStore::from_embeddings(m.dim(), &embs);
        let what = format!("from {start} rows to {at}");
        assert!(grown == &bulk, "{what}: store");
        assert_eq!(
            bits(grown.as_flat()),
            bits(&embs.concat()),
            "{what}: as_flat"
        );
        let twin = grown.clone();
        assert_ne!(
            twin.as_flat().as_ptr(),
            grown.as_flat().as_ptr(),
            "{what}: cache cloned"
        );

        for b in [1, 8, 16] {
            let qrefs: Vec<&[f64]> = queries[..b].iter().map(|q| q.as_slice()).collect();
            for k in [1, 10, at] {
                assert_eq!(
                    grown.knn_batch(&qrefs, k),
                    bulk.knn_batch(&qrefs, k),
                    "{what}: B={b} k={k}"
                );
            }
        }
        assert_scan_matches_oracle_at(grown, &queries, &[10], &what);

        let mut views = SimilarityDb::with_corpus(m.clone(), rows.to_vec(), 1);
        let ann = AnnParams {
            nlists: 4,
            ..AnnParams::default()
        };
        views.build_ann_index(&ann).unwrap();
        views.build_graph_index(&HnswParams::default(), 1).unwrap();
        assert!(views.store() == &bulk, "{what}: bulk database store");
        let (ivf, graph) = (views.ann_index().unwrap(), views.graph_index().unwrap());
        let qrefs: Vec<&[f64]> = queries.iter().map(|q| q.as_slice()).collect();
        assert_eq!(
            grown.knn_ann_batch(&qrefs, 10, ivf, 2),
            bulk.knn_ann_batch(&qrefs, 10, ivf, 2),
            "{what}: ivf shortlist"
        );
        assert_eq!(
            grown.knn_graph_batch(&qrefs, 10, graph, 16),
            bulk.knn_graph_batch(&qrefs, 10, graph, 16),
            "{what}: graph shortlist"
        );
    }
}
