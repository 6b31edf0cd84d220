//! Format pins: the CRC-32 of every `NT*` payload (and of the binary
//! corpus) for one tiny fixed-seed object each, plus one fold of every
//! draw mapping of the generator.
//!
//! The constants were recorded at the last commit that still built
//! against external `rand`/`bytes` — through the xoshiro256++ stand-in
//! under `benchmark/stubs`, whose streams and draw mappings
//! `neutraj_trajectory::rng` reproduces — so a pin that moves means a
//! byte format or a random stream changed, and every saved model,
//! snapshot and recorded result with it. The objects are built from
//! IEEE-exact arithmetic only (no `exp`/`ln`-dependent training), so
//! the pins do not depend on the host's libm.

use neutraj_cluster::{KMeans, KMeansParams};
use neutraj_index::{HnswIndex, HnswParams, IvfIndex};
use neutraj_model::persist::seal_payload;
use neutraj_model::{
    Backbone, BackboneKind, Checkpoint, EmbeddingStore, NeuTrajModel, TrainConfig, TrainState,
};
use neutraj_nn::AdamState;
use neutraj_serve::{ShardConfig, Snapshot};
use neutraj_trajectory::io::encode_binary;
use neutraj_trajectory::rng::Rng;
use neutraj_trajectory::{BoundingBox, Dataset, Grid, Point, Trajectory};

/// CRC-32 of `payload`, read back from the `NTFILE01` envelope trailer.
fn crc(payload: &[u8]) -> u32 {
    let sealed = seal_payload(payload);
    u32::from_le_bytes(sealed[sealed.len() - 4..].try_into().unwrap())
}

fn corpus() -> Vec<Trajectory> {
    let mut rng = Rng::seed_from_u64(13);
    (0..12u64)
        .map(|id| {
            let pts = (0..rng.gen_range(3..9))
                .map(|_| Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..=500.0)))
                .collect();
            Trajectory::new_unchecked(id, pts)
        })
        .collect()
}

fn model() -> NeuTrajModel {
    let cfg = TrainConfig {
        dim: 4,
        seed: 13,
        ..TrainConfig::neutraj()
    };
    let grid = Grid::new(BoundingBox::new(0.0, 0.0, 1000.0, 500.0), 50.0).unwrap();
    NeuTrajModel::untrained(cfg, grid)
}

/// `n` rows of `dim` values in `[-1, 1)`.
fn rows(n: usize, dim: usize) -> Vec<f64> {
    let mut rng = Rng::seed_from_u64(29);
    (0..n * dim).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

#[test]
fn draw_mappings_are_pinned() {
    let mut rng = Rng::seed_from_u64(2019);
    let mut order: Vec<u64> = (0..10).collect();
    rng.shuffle(&mut order);
    let mut fold = order.iter().fold(0u64, |h, &v| h.wrapping_mul(31) ^ v);
    for _ in 0..64 {
        let draws = [
            rng.gen_range(-3.5..7.25f64).to_bits(),
            rng.gen_range(1.0..=1.5f64).to_bits(),
            rng.gen_range(0..1000usize) as u64,
            rng.gen_range(-40..=40i32) as u64,
            rng.gen_range(0..=255u8) as u64,
            rng.gen_bool(0.3) as u64,
        ];
        fold = draws
            .iter()
            .fold(fold, |h, &v| h.wrapping_mul(0x100_0000_01b3) ^ v);
    }
    assert_eq!(fold, 0x4212_2d0f_8e26_ff07);
}

#[test]
fn binary_corpus_is_pinned() {
    assert_eq!(crc(&encode_binary(&Dataset::new(corpus()))), 0x99e3_b35a);
}

#[test]
fn ntmodel1_and_ntckpt01_are_pinned() {
    let model = model();
    assert_eq!(crc(&model.to_bytes()), 0xb225_5afd);
    let ckpt = Checkpoint {
        model,
        state: TrainState {
            next_epoch: 2,
            early_stopped: false,
            best_loss: 0.5,
            stale: 1,
            alpha: 2.0,
            epoch_losses: vec![0.75, 0.5],
            epoch_seconds: vec![0.125, 0.25],
            adam: AdamState {
                t: 7,
                moments: vec![(vec![0.01; 6], vec![0.02; 6])],
            },
        },
    };
    assert_eq!(crc(&ckpt.to_bytes()), 0x70cb_c2d6);
}

#[test]
fn ntivf01_and_nthnsw01_are_pinned() {
    let (n, dim) = (120, 4);
    let data = rows(n, dim);
    let params = KMeansParams {
        k: 5,
        ..Default::default()
    };
    let ivf = IvfIndex::build(KMeans::fit(&data, dim, &params), &data);
    assert_eq!(crc(&ivf.to_bytes()), 0x8c2b_afe5);
    let dist = |a: u32, b: u32| -> f64 {
        let (ra, rb) = (
            &data[a as usize * dim..][..dim],
            &data[b as usize * dim..][..dim],
        );
        ra.iter().zip(rb).map(|(x, y)| (x - y) * (x - y)).sum()
    };
    let graph = HnswIndex::build(HnswParams::default(), n, 2, &dist);
    assert_eq!(crc(&graph.to_bytes()), 0xfd93_aaa5);
}

#[test]
fn ntsnap02_is_pinned() {
    let cfg = ShardConfig {
        quantized: true,
        graph: Some(HnswParams::default()),
        ..ShardConfig::new(2)
    };
    let snapshot = Snapshot::build(&model(), corpus(), &cfg).unwrap();
    assert_eq!(crc(&snapshot.to_bytes()), 0x6b9d_91d5);
}

/// The forward pass is IEEE-exact operations only (`neutraj_nn::activation`
/// instead of libm, one accumulation order in every kernel arm), so an
/// embedding is a fixed bit pattern: the same on every host, with
/// `NEUTRAJ_NO_SIMD=1` or without. One pin per backbone, under the
/// untrained seed-2019 model; the SAM memory is filled first so the
/// attention read scores, exponentiates and mixes non-trivial rows.
#[test]
fn embeddings_are_pinned() {
    let grid = Grid::new(BoundingBox::new(0.0, 0.0, 1000.0, 500.0), 50.0).unwrap();
    let pins = [
        (BackboneKind::SamLstm, 0x17c8_e684u32),
        (BackboneKind::Lstm, 0x3f93_3ec8),
        (BackboneKind::Gru, 0x3a88_57ee),
    ];
    for (backbone, pin) in pins {
        let cfg = TrainConfig {
            backbone,
            dim: 8,
            seed: 2019,
            ..TrainConfig::neutraj()
        };
        let mut model = NeuTrajModel::untrained(cfg, grid.clone());
        if let Backbone::Sam(enc) = model.backbone_mut() {
            let mut rng = Rng::seed_from_u64(2019);
            for row in 0..grid.rows() {
                for col in 0..grid.cols() {
                    let v: Vec<f64> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    enc.memory.write(col, row, &[1.0; 8], &v);
                }
            }
        }
        let bytes: Vec<u8> = model
            .embed_batch(&corpus())
            .iter()
            .flatten()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        assert_eq!(crc(&bytes), pin, "{backbone:?}");
    }
}

/// A graph deep enough to have several upper layers (n = 5 000 at
/// m = 16 draws levels 0..=3), plus one `knn_graph_batch` answer and
/// its work counters. Recorded on the commit before the pool beam, the
/// upper-layer arena and the hop-batched oracle landed: the walk must
/// make the same expansions in the same order, so graph bytes, answer
/// bits and `hops`/`candidates_scanned` all stay put. The store-backed
/// oracle and the pair closure must build the same bytes.
#[test]
fn deep_graph_and_graph_answer_are_pinned() {
    let (n, dim) = (5000, 8);
    let embs: Vec<Vec<f64>> = rows(n, dim).chunks(dim).map(<[f64]>::to_vec).collect();
    let store = EmbeddingStore::from_embeddings(dim, &embs);
    let graph = HnswIndex::build(HnswParams::default(), n, 2, &|a, b| store.row_dist_sq(a, b));
    assert!(graph.max_level() >= 2, "pin must cover ≥ 3 levels");
    assert_eq!(crc(&graph.to_bytes()), 0x02a0_902a);
    assert_eq!(HnswIndex::build(HnswParams::default(), n, 2, &store), graph);
    let queries: Vec<&[f64]> = [3usize, 1711, 4999].iter().map(|&i| store.get(i)).collect();
    let (answers, stats) = store.knn_graph_batch(&queries, 10, &graph, 48);
    let mut bytes = Vec::new();
    for nb in answers.iter().flatten() {
        bytes.extend_from_slice(&(nb.index as u64).to_le_bytes());
        bytes.extend_from_slice(&nb.dist.to_le_bytes());
    }
    assert_eq!(crc(&bytes), 0x0b7a_107b);
    assert_eq!((stats.hops, stats.candidates_scanned), (363, 2049));
}

/// Training is pinned too: epoch losses, the embedding of seed 0 and the
/// fitted model's bytes (every weight and the whole spatial memory) of a
/// 2-epoch, 40-seed, dim-8 fit, per backbone, at 1 and 4 threads.
/// Recorded on the commit before the id tape, the reused batch tape and
/// the GEMM-shaped weight gradients landed, so "the training step is
/// bit-equal to the one it replaced" is a test, not a benchmark
/// observation. The seeds are random walks that linger and cross
/// themselves, so a sequence reads its own pending writes. Unlike the
/// other pins this one runs `exp`/`ln` from the host's libm (similarity
/// matrix, pair loss, weighted sampling): it holds on one libm, which is
/// what Tier-1 runs on.
#[test]
fn training_is_pinned() {
    use neutraj_measures::{DistanceMatrix, Hausdorff};
    use neutraj_model::Trainer;

    let grid = Grid::new(BoundingBox::new(0.0, 0.0, 1000.0, 500.0), 50.0).unwrap();
    let mut rng = Rng::seed_from_u64(16);
    let seeds: Vec<Trajectory> = (0..40u64)
        .map(|id| {
            let (mut x, mut y) = (rng.gen_range(100.0..900.0), rng.gen_range(100.0..400.0));
            let pts = (0..rng.gen_range(10..30))
                .map(|_| {
                    x = (x + rng.gen_range(-45.0..45.0f64)).clamp(0.0, 1000.0);
                    y = (y + rng.gen_range(-45.0..45.0f64)).clamp(0.0, 500.0);
                    Point::new(x, y)
                })
                .collect();
            Trajectory::new_unchecked(id, pts)
        })
        .collect();
    let rescaled: Vec<Trajectory> = seeds.iter().map(|t| grid.rescale_trajectory(t)).collect();
    let dist = DistanceMatrix::compute(&Hausdorff, &rescaled);
    let pins = [
        (BackboneKind::SamLstm, 0x740a_ec57u32),
        (BackboneKind::Lstm, 0x5dd6_7182),
        (BackboneKind::Gru, 0x8f5b_4b25),
    ];
    for (backbone, pin) in pins {
        for threads in [1, 4] {
            let cfg = TrainConfig {
                backbone,
                dim: 8,
                epochs: 2,
                ..TrainConfig::neutraj()
            };
            let (model, report) =
                Trainer::new(cfg, grid.clone())
                    .with_threads(threads)
                    .fit(&seeds, &dist, |_| {});
            let mut bytes: Vec<u8> = report
                .epoch_losses
                .iter()
                .chain(&model.embed(&seeds[0]))
                .flat_map(|v| v.to_le_bytes())
                .collect();
            bytes.extend_from_slice(&model.to_bytes());
            assert_eq!(crc(&bytes), pin, "{backbone:?} at {threads} threads");
        }
    }
}
