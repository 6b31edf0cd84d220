//! `train_offline`: the paper's offline half.
//!
//! Three phases on one world: `gt` computes the exact Fréchet and DTW
//! distance matrices of the seed set (all of it in `measures`), `train`
//! fits the NeuTraj preset to the Fréchet matrix (sampling and loss in
//! `model`, forward and backward in `nn`), and `eval` ranks held-out
//! queries by embedding distance against their exact Fréchet neighbours.
//! `serve` does nothing here. HR@10 is in the metrics so that a training
//! speed-up that breaks learning shows as a quality loss.

use super::{gemm_gflops, run_trials, timed, RunArgs, RunResult, DIM, K, MODEL_SEED, SETUP_REPS};
use crate::host;
use crate::inputs::{self, purpose, World};
use crate::names::{self, Workload};
use crate::report::{Metrics, Tally};
use crate::rng::Fnv64;
use crate::stats::{median, quiet_rate, quiet_time};
use crate::trace::Tracer;
use neutraj_measures::{DistanceMatrix, GroundTruthEngine, MeasureKind, Neighbor};
use neutraj_model::{Backbone, EmbeddingStore, NeuTrajModel, TrainConfig, Trainer};
use neutraj_nn::Adam;
use neutraj_obs::{names as obs, Registry};
use neutraj_trajectory::Trajectory;

const ROUTES: usize = 24;
const SEEDS: usize = 300;
const SEEDS_SMOKE: usize = 60;
const TEST_DB: usize = 2_100;
const TEST_DB_SMOKE: usize = 300;
const LENGTHS: (usize, usize) = (30, 90);
/// Held-out queries: the first rows of the test database. A thousand of
/// them, so that HR@10 moves by well under a point from seed to seed.
const QUERIES: usize = 1_000;
/// Depth of the exact neighbour lists.
const TRUTH_DEPTH: usize = 50;
/// HR@10 of a random ranking is 10 / (rows - 1); a trained model must be
/// an order of magnitude above it.
const HR_FLOOR: f64 = 0.05;

struct Inputs {
    /// Seeds and test database in world coordinates (model input) and in
    /// grid units (the scale the exact measures are computed on).
    seeds: Vec<Trajectory>,
    db: Vec<Trajectory>,
    fnv64: u64,
}

fn make_inputs(args: &RunArgs) -> Inputs {
    let world = World::new(args.seed, ROUTES);
    let (n_seeds, n_db) = if args.smoke {
        (SEEDS_SMOKE, TEST_DB_SMOKE)
    } else {
        (SEEDS, TEST_DB)
    };
    let seeds = world.trajectories(purpose::SEEDS, 0, n_seeds, LENGTHS);
    let db = world.trajectories(purpose::TEST_DB, 1 << 40, n_db, LENGTHS);
    let mut hash = Fnv64::default();
    inputs::fingerprint(&mut hash, &seeds);
    inputs::fingerprint(&mut hash, &db);
    Inputs {
        seeds,
        db,
        fnv64: hash.finish(),
    }
}

fn train_config(args: &RunArgs) -> TrainConfig {
    TrainConfig {
        dim: DIM,
        seed: MODEL_SEED,
        // One trial per epoch; at least four so the loss trend is
        // checkable.
        epochs: args.trials(0.8, 4),
        patience: None,
        ..TrainConfig::neutraj()
    }
}

/// World preparation: both sets in grid units, and the exact Fréchet
/// neighbour lists of the held-out queries.
struct Prepared {
    seeds_grid: Vec<Trajectory>,
    truth: Vec<Vec<Neighbor>>,
}

fn prepare(inputs: &Inputs, registry: Option<&Registry>) -> Prepared {
    let grid = inputs::grid();
    let seeds_grid = inputs
        .seeds
        .iter()
        .map(|t| grid.rescale_trajectory(t))
        .collect();
    let db_grid: Vec<Trajectory> = inputs
        .db
        .iter()
        .map(|t| grid.rescale_trajectory(t))
        .collect();
    let frechet = MeasureKind::Frechet.measure();
    let mut engine = GroundTruthEngine::new(&*frechet, &db_grid);
    if let Some(r) = registry {
        engine = engine.with_metrics(r);
    }
    let queries: Vec<usize> = (0..QUERIES.min(db_grid.len())).collect();
    let truth = engine.knn_lists(&queries, TRUTH_DEPTH, host::cpus());
    Prepared { seeds_grid, truth }
}

/// Both seed matrices; returns the Fréchet one (the training target).
fn ground_truth(
    seeds_grid: &[Trajectory],
    registry: Option<&Registry>,
) -> (DistanceMatrix, f64, f64) {
    let mut out = None;
    let mut secs = [0.0; 2];
    for (slot, kind) in [MeasureKind::Frechet, MeasureKind::Dtw]
        .into_iter()
        .enumerate()
    {
        let measure = kind.measure();
        let mut engine = GroundTruthEngine::new(&*measure, seeds_grid);
        if let Some(r) = registry {
            engine = engine.with_metrics(r);
        }
        let (matrix, s) = timed(|| engine.matrix(host::cpus()));
        secs[slot] = s;
        if kind == MeasureKind::Frechet {
            out = Some(matrix);
        }
    }
    (out.expect("Frechet is in the list"), secs[0], secs[1])
}

/// Mean HR@10 of `model` over the held-out queries.
fn hr_at_10(
    model: &NeuTrajModel,
    inputs: &Inputs,
    truth: &[Vec<Neighbor>],
    tally: &mut Tally,
) -> f64 {
    let store = EmbeddingStore::build(model, &inputs.db, host::cpus());
    let mut hits = 0;
    for (q, want) in truth.iter().enumerate() {
        // The query is row q of the database: ask for one more and drop it.
        let got = store.knn(store.get(q), K + 1);
        tally.check(got.len() == K + 1 && got.iter().all(|n| n.dist.is_finite()));
        hits += got
            .iter()
            .filter(|n| n.index != q)
            .take(K)
            .filter(|n| want.iter().take(K).any(|w| w.index == n.index))
            .count();
    }
    hits as f64 / (truth.len() * K) as f64
}

pub fn run(workload: &'static Workload, args: &RunArgs) -> RunResult {
    let inputs = make_inputs(args);
    println!(
        "{}: {} seeds, {} test rows, {} queries, host cpus {}",
        workload.name,
        inputs.seeds.len(),
        inputs.db.len(),
        QUERIES.min(inputs.db.len()),
        host::cpus()
    );
    let mut out = RunResult {
        workload,
        metrics: Metrics::new(workload, args.trace),
        tally: Default::default(),
        inputs_fnv64: inputs.fnv64,
        tracer: Tracer::new(args.trace),
    };
    let jiffies0 = host::cpu_jiffies();
    let registry = args.trace.then(Registry::new);
    let registry = registry.as_ref();
    let RunResult {
        metrics: m,
        tally,
        tracer: tr,
        ..
    } = &mut out;

    // --- set-up: world preparation and the exact evaluation lists ---
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup = Vec::new();
    let mut prepared = None;
    for _ in 0..reps {
        let (p, secs) = tr.timed("measures.knn_lists", None, 0, || prepare(&inputs, registry));
        setup.push(secs);
        prepared = Some(p);
    }
    let Prepared { seeds_grid, truth } = prepared.expect("at least one repeat");
    tally.require(truth.iter().all(|t| t.len() >= K), || {
        "an exact neighbour list is shorter than k".into()
    });
    let knn_pairs = registry.map(|r| {
        (
            r.counter(obs::MEASURES_PAIRS_TOTAL).get(),
            r.counter(obs::MEASURES_LB_PRUNED_TOTAL).get()
                + r.counter(obs::MEASURES_EA_ABANDONED_TOTAL).get(),
        )
    });

    // --- gt: both seed matrices, once per trial ---
    let n = inputs.seeds.len();
    let pairs_per_trial = (n * (n - 1)) as f64; // two measures x n(n-1)/2
    let cells0 = registry.map_or(0, |r| r.counter(obs::MEASURES_DP_CELLS_TOTAL).get());
    let mut dist = None;
    let gt = run_trials(args.trials(2.0, 4), args.guard(0.3), |i| {
        let id = tr.begin("measures.matrix", None, i as u64);
        let (matrix, frechet_s, dtw_s) = ground_truth(&seeds_grid, registry);
        tr.end(id);
        dist = Some(matrix);
        (frechet_s, dtw_s)
    });
    let dist = dist.expect("at least one gt trial");
    let gt_s: Vec<f64> = gt.iter().map(|(f, d)| f + d).collect();
    let gt_pairs_per_s = pairs_per_trial / quiet_time(&gt_s);
    println!(
        "  gt: {} trials of {pairs_per_trial} pairs, pairs/s quiet-decile {gt_pairs_per_s:.0} (median {:.0})",
        gt.len(),
        pairs_per_trial / median(&gt_s)
    );
    tally.check((0..n).all(|i| dist.get(i, i) == 0.0 && dist.row(i).iter().all(|d| d.is_finite())));

    // --- train: each epoch is a trial ---
    let cfg = train_config(args);
    let pairs_per_epoch = (n * 2 * cfg.n_samples) as f64;
    let mut trainer = Trainer::new(cfg.clone(), inputs::grid()).with_threads(host::cpus());
    if let Some(r) = registry {
        trainer = trainer.with_metrics(r);
    }
    let fit = tr.begin("model.fit", None, 0);
    let mut epoch_end = std::time::Instant::now();
    let (model, report) = trainer.fit(&inputs.seeds, &dist, |e| {
        let now = std::time::Instant::now();
        tr.record("model.epoch", epoch_end, now, e.epoch as u64);
        epoch_end = now;
    });
    tr.end(fit);
    let train_pairs_per_s = quiet_rate(
        &report
            .epoch_seconds
            .iter()
            .map(|s| pairs_per_epoch / s)
            .collect::<Vec<_>>(),
    );
    println!(
        "  train: {} epochs of {pairs_per_epoch} pairs, pairs/s quiet-decile {train_pairs_per_s:.0}, loss {:.4} -> {:.4}",
        report.epoch_losses.len(),
        report.epoch_losses[0],
        report.epoch_losses[report.epoch_losses.len() - 1]
    );
    let losses = &report.epoch_losses;
    let half = losses.len() / 2;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    tally.check(losses.iter().all(|l| l.is_finite()));
    tally.require(mean(&losses[half..]) <= mean(&losses[..half]), || {
        format!("training loss rose on average: {losses:.4?}")
    });

    // --- eval ---
    let (hr, eval_s) = tr.timed("model.eval", None, 0, || {
        hr_at_10(&model, &inputs, &truth, tally)
    });
    println!(
        "  eval: HR@10 {hr:.4} over {} queries in {eval_s:.3} s",
        truth.len()
    );
    tally.check(hr.is_finite());
    tally.require(hr >= HR_FLOOR, || {
        format!("HR@10 {hr:.4} is under the chance floor {HR_FLOOR}")
    });

    if !args.trace {
        println!("  setup repeats (s): {setup:.3?}");
        m.set(names::SETUP_S, median(&setup));
        m.set(names::OPS_PER_S, train_pairs_per_s);
        m.set(names::LATENCY_US, 1e6 / gt_pairs_per_s);
        m.set(names::QUALITY_AT_10, hr);
        m.set(names::RSS_MB, host::peak_rss_mb());
        return out;
    }

    // --- per-layer metrics of the traced run ---
    let r = registry.expect("traced runs carry a registry");
    m.set("host.cpus", host::cpus() as f64);
    m.set("host.calib_ms", host::calib_ms());
    let (knn_pairs, knn_pruned) = knn_pairs.expect("traced");
    m.set(
        "measures.knn_us_per_query",
        setup[0] * 1e6 / truth.len() as f64,
    );
    m.set(
        "measures.knn_pruned_share",
        knn_pruned as f64 / knn_pairs.max(1) as f64,
    );
    // Cells per trial repeat exactly; split them between the measures by
    // rerunning each alone would double the phase, so both matrices have
    // the same cell count (same pairs, same lengths) and share it evenly.
    let cells = r.counter(obs::MEASURES_DP_CELLS_TOTAL).get() - cells0;
    let cells_per_matrix = cells as f64 / (2 * gt.len()) as f64;
    m.set(
        "measures.matrix_cells_total",
        cells as f64 / gt.len() as f64,
    );
    let frechet_s: Vec<f64> = gt.iter().map(|g| g.0).collect();
    let dtw_s: Vec<f64> = gt.iter().map(|g| g.1).collect();
    m.set(
        "measures.frechet_ns_per_cell",
        quiet_time(&frechet_s) * 1e9 / cells_per_matrix,
    );
    m.set(
        "measures.dtw_ns_per_cell",
        quiet_time(&dtw_s) * 1e9 / cells_per_matrix,
    );
    m.set("measures.gt_pairs_per_s", gt_pairs_per_s);
    m.set("model.train_pairs_per_s", train_pairs_per_s);
    m.set("model.train_epoch_s", quiet_time(&report.epoch_seconds));
    let counted = r.counter(obs::TRAIN_PAIRS_TOTAL).get() as f64 / report.epoch_losses.len() as f64;
    tally.require(counted == pairs_per_epoch, || {
        format!("neutraj_train_pairs_total counts {counted} pairs per epoch, expected {pairs_per_epoch}")
    });
    m.set("model.pairs_per_epoch", counted);
    nn_kernels(&inputs, &cfg, args, m);
    m.set("host.steal_share", host::steal_share(jiffies0));
    m.set("trace.spans_total", tr.len() as f64);
    out
}

/// The training kernels on their own: one forward + backward over a
/// batch of seed sequences, one Adam step, and the two GEMM shapes.
fn nn_kernels(inputs: &Inputs, cfg: &TrainConfig, args: &RunArgs, m: &mut Metrics) {
    let trials = if args.smoke { 3 } else { 7 };
    let grid = inputs::grid();
    let shaper = NeuTrajModel::untrained(cfg.clone(), grid.clone());
    let batch: Vec<_> = inputs
        .seeds
        .iter()
        .take(40)
        .map(|t| shaper.seq_inputs(t))
        .collect();
    let refs: Vec<_> = batch.iter().collect();
    let points: usize = inputs.seeds.iter().take(40).map(Trajectory::len).sum();
    let mut backbone = Backbone::build(cfg, &grid);
    let mut grads = backbone.zero_grads();
    let d_emb = vec![1e-3; cfg.dim];
    let secs: Vec<f64> = (0..trials)
        .map(|_| {
            backbone.reset_memory();
            grads.fill_zero();
            timed(|| {
                let results = backbone.forward_train_batch(&refs, host::cpus());
                let jobs: Vec<_> = results
                    .iter()
                    .map(|(_, cache)| (cache, d_emb.as_slice()))
                    .collect();
                backbone.backward_batch(&jobs, &mut grads, host::cpus());
            })
            .1
        })
        .collect();
    m.set(
        "nn.sam_train_ns_per_point",
        quiet_time(&secs) * 1e9 / points as f64,
    );

    let mut adam = Adam::new(cfg.lr);
    let slots = backbone.register_adam(&mut adam);
    let steps = 20;
    let secs: Vec<f64> = (0..trials)
        .map(|_| {
            timed(|| {
                for _ in 0..steps {
                    adam.next_step();
                    backbone.adam_step(&mut adam, &slots, &grads, 1.0);
                }
            })
            .1
        })
        .collect();
    m.set(
        "nn.adam_ns_per_param",
        quiet_time(&secs) * 1e9 / (steps * backbone.num_params()) as f64,
    );

    let (nt, nn) = gemm_gflops(trials);
    m.set("nn.gemm_nt_gflops", nt);
    m.set("nn.gemm_nn_gflops", nn);
}
