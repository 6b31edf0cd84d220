//! Bit-exact thread-count invariance of the batch training paths.
//!
//! The contract (DESIGN.md, "Threading & determinism"): for every backbone,
//! `forward_train_batch` and `backward_batch` are functions of the batch
//! alone — embeddings, BPTT gradients and (for SAM) the post-batch spatial
//! memory are **bit-identical** at every thread count. These properties
//! drive random batches through threads ∈ {1, 2, 4, 8} and compare with
//! `==`, not a tolerance.

use neutraj_model::{
    Backbone, BackboneCache, BackboneGrads, BackboneKind, NeuTrajModel, SeqInputs, TrainConfig,
};
use neutraj_nn::SpatialMemory;
use neutraj_trajectory::rng::{cases, Rng};
use neutraj_trajectory::{BoundingBox, Grid, Point, Trajectory};

/// Grid of 20 × 10 cells (1000 × 500 span, 50-unit cells).
fn grid() -> Grid {
    Grid::new(BoundingBox::new(0.0, 0.0, 1000.0, 500.0), 50.0).unwrap()
}

const COLS: u32 = 20;
const ROWS: u32 = 10;

fn build(kind: BackboneKind) -> Backbone {
    let cfg = TrainConfig {
        backbone: kind,
        dim: 8,
        ..TrainConfig::neutraj()
    };
    Backbone::build(&cfg, &grid())
}

/// Random batch of variable-length sequences with in-grid cells.
fn arb_batch(rng: &mut Rng) -> Vec<SeqInputs> {
    (0..rng.gen_range(5..12))
        .map(|_| {
            let len = rng.gen_range(2usize..12);
            let coords = (0..len)
                .map(|_| (rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            let cells = (0..len)
                .map(|_| (rng.gen_range(0..COLS), rng.gen_range(0..ROWS)))
                .collect();
            (coords, cells)
        })
        .collect()
}

/// Sixteen lingering, self-crossing random walks like `training_is_pinned`'s
/// (steps shorter than a cell, lengths 10–29): from its second step on, a
/// SAM sequence's scan window holds cells it has written, so its reads go
/// through its own write log's overlay inside one lockstep batch. Sixteen
/// sequences make phase-A parts of 8, 4, 2 and 1 at threads 1, 2, 4, 8 —
/// lockstep widths on both sides of the packing threshold (8) — and
/// LSTM/GRU parts of 16, 8, 4 and 2.
fn walk_batch(rng: &mut Rng) -> Vec<SeqInputs> {
    let model = NeuTrajModel::untrained(TrainConfig::neutraj(), grid());
    (0..16u64)
        .map(|id| {
            let (mut x, mut y) = (rng.gen_range(100.0..900.0), rng.gen_range(100.0..400.0));
            let pts = (0..rng.gen_range(10..30))
                .map(|_| {
                    x = (x + rng.gen_range(-45.0..45.0f64)).clamp(0.0, 1000.0);
                    y = (y + rng.gen_range(-45.0..45.0f64)).clamp(0.0, 500.0);
                    Point::new(x, y)
                })
                .collect();
            model.seq_inputs(&Trajectory::new_unchecked(id, pts))
        })
        .collect()
}

/// Flattens a gradient buffer into comparable tensors.
fn grad_tensors(g: &BackboneGrads) -> Vec<Vec<f64>> {
    match g {
        BackboneGrads::Sam(g) => vec![
            g.p.as_slice().to_vec(),
            g.w_his.as_slice().to_vec(),
            g.b_his.clone(),
        ],
        BackboneGrads::Lstm(g) => vec![g.p.as_slice().to_vec()],
        BackboneGrads::Gru(g) => vec![g.pzr.as_slice().to_vec(), g.ph.as_slice().to_vec()],
    }
}

fn memory_of(b: &Backbone) -> Option<SpatialMemory> {
    match b {
        Backbone::Sam(e) => Some(e.memory.clone()),
        _ => None,
    }
}

/// Deterministic, non-trivial pseudo loss gradients derived from the
/// embeddings themselves (so every coordinate gets training signal).
fn pseudo_d_embs(out: &[(Vec<f64>, BackboneCache)]) -> Vec<Vec<f64>> {
    out.iter()
        .enumerate()
        .map(|(i, (h, _))| {
            h.iter()
                .enumerate()
                .map(|(k, v)| (0.37 + 0.11 * i as f64 - 0.05 * k as f64) * (1.0 + v))
                .collect()
        })
        .collect()
}

fn assert_thread_invariance(kind: BackboneKind, batch: &[SeqInputs]) {
    let inputs: Vec<&SeqInputs> = batch.iter().collect();

    // Reference run on one thread.
    let mut b_ref = build(kind);
    let ref_out = b_ref.forward_train_batch(&inputs, 1);
    let ref_mem = memory_of(&b_ref);
    let d_embs = pseudo_d_embs(&ref_out);
    let mut g_ref = b_ref.zero_grads();
    let jobs: Vec<(&BackboneCache, &[f64])> = ref_out
        .iter()
        .zip(&d_embs)
        .map(|((_, c), d)| (c, d.as_slice()))
        .collect();
    b_ref.backward_batch(&jobs, &mut g_ref, 1);
    let ref_grads = grad_tensors(&g_ref);

    for threads in [2usize, 4, 8] {
        let mut b = build(kind);
        let out = b.forward_train_batch(&inputs, threads);
        assert_eq!(out.len(), ref_out.len());
        for (i, ((h_t, _), (h_1, _))) in out.iter().zip(&ref_out).enumerate() {
            assert_eq!(
                h_t, h_1,
                "{:?}: embedding {} diverged at {} threads",
                kind, i, threads
            );
        }
        assert_eq!(
            memory_of(&b),
            ref_mem.clone(),
            "{:?}: spatial memory diverged at {} threads",
            kind,
            threads
        );
        let mut g = b.zero_grads();
        let jobs: Vec<(&BackboneCache, &[f64])> = out
            .iter()
            .zip(&d_embs)
            .map(|((_, c), d)| (c, d.as_slice()))
            .collect();
        b.backward_batch(&jobs, &mut g, threads);
        assert_eq!(
            grad_tensors(&g),
            ref_grads.clone(),
            "{:?}: gradients diverged at {} threads",
            kind,
            threads
        );
    }
}

#[test]
fn lstm_batch_is_thread_count_invariant() {
    cases(10, |rng| {
        let batch = arb_batch(rng);
        assert_thread_invariance(BackboneKind::Lstm, &batch);
    });
}

#[test]
fn gru_batch_is_thread_count_invariant() {
    cases(10, |rng| {
        let batch = arb_batch(rng);
        assert_thread_invariance(BackboneKind::Gru, &batch);
    });
}

#[test]
fn sam_batch_is_thread_count_invariant() {
    cases(10, |rng| {
        let batch = arb_batch(rng);
        assert_thread_invariance(BackboneKind::SamLstm, &batch);
    });
}

#[test]
fn walks_reading_their_own_writes_are_thread_count_invariant() {
    cases(4, |rng| {
        let batch = walk_batch(rng);
        for kind in [BackboneKind::SamLstm, BackboneKind::Lstm, BackboneKind::Gru] {
            assert_thread_invariance(kind, &batch);
        }
    });
}

/// The tiny-batch sequential fallback (`len < 4`) must agree with the
/// threaded path's protocol too — a 3-sequence batch exercises it.
#[test]
fn tiny_batches_and_empty_jobs_are_consistent() {
    let batch: Vec<SeqInputs> = (0..3)
        .map(|i| {
            let coords: Vec<(f64, f64)> = (0..5)
                .map(|t| (0.1 * t as f64 - 0.2 * i as f64, 0.05 * t as f64))
                .collect();
            let cells: Vec<(u32, u32)> = (0..5)
                .map(|t| (t as u32 % COLS, (t + i) as u32 % ROWS))
                .collect();
            (coords, cells)
        })
        .collect();
    let inputs: Vec<&SeqInputs> = batch.iter().collect();
    for kind in [BackboneKind::SamLstm, BackboneKind::Lstm, BackboneKind::Gru] {
        let mut b1 = build(kind);
        let o1 = b1.forward_train_batch(&inputs, 1);
        let mut b8 = build(kind);
        let o8 = b8.forward_train_batch(&inputs, 8);
        for ((h1, _), (h8, _)) in o1.iter().zip(&o8) {
            assert_eq!(h1, h8, "{kind:?}");
        }
        assert_eq!(memory_of(&b1), memory_of(&b8), "{kind:?}");
        // Empty job lists are a no-op at any thread count.
        let mut g = b1.zero_grads();
        b1.backward_batch(&[], &mut g, 8);
        assert!(grad_tensors(&g).iter().all(|t| t.iter().all(|v| *v == 0.0)));
    }
}
