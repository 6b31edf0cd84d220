//! Training-throughput benchmark for the two-phase parallel SAM trainer.
//!
//! Trains the full NeuTraj preset (SAM backbone) on the same world at 1
//! and 4 worker threads and writes per-epoch wall-clock seconds plus the
//! resulting speedup to `BENCH_training.json`. Because batch training is
//! bit-identical across thread counts (see `DESIGN.md`, "Threading &
//! determinism"), the two runs do the exact same numerical work — the
//! timing delta is pure parallel efficiency. The trainer clamps workers
//! to the host's cores, so the recorded `host_cpus` field is needed to
//! interpret the speedup (a 1-core host reports ≈ 1.0 by construction).
//!
//! Each run also reports where its seconds went — batch forwards, batch
//! backwards, and everything else (sampling, pair losses, Adam, epoch
//! bookkeeping) — from the trainer's own `neutraj_train_*_seconds`
//! histograms, and the run ends with the BPTT tape's bytes per point,
//! which must stay under `TAPE_BYTES_PER_POINT_MAX` (4 096): a tape
//! that copies attention windows again (6.4 KB a step at the default
//! shape) cannot come back unnoticed.
//!
//! ```text
//! cargo run -p neutraj-bench --release --bin bench_training [-- --size 250 --epochs 5]
//! ```

use neutraj_bench::Cli;
use neutraj_eval::harness::DatasetKind;
use neutraj_measures::{DistanceMatrix, MeasureKind};
use neutraj_model::{Backbone, NeuTrajModel, TrainConfig, Trainer};
use neutraj_obs::{names, MetricsReport, Registry};
use neutraj_trajectory::par;

const THREAD_COUNTS: [usize; 2] = [1, 4];

/// Gate on the tape: ids, activations and one local row per step fit in
/// 3.4 KB at `d = 32`, `w = 2`; a copied window alone is 6.4 KB.
const TAPE_BYTES_PER_POINT_MAX: usize = 4096;

/// One fit: thread count, per-epoch seconds, their mean, and the seconds
/// spent in batch forwards and batch backwards over the whole fit.
struct Run {
    threads: usize,
    epoch_seconds: Vec<f64>,
    mean: f64,
    forward: f64,
    backward: f64,
}

impl Run {
    /// Fit seconds outside the batch forwards and backwards.
    fn other(&self) -> f64 {
        self.epoch_seconds.iter().sum::<f64>() - self.forward - self.backward
    }
}

fn main() {
    let cli = Cli::parse(Cli {
        size: 250,
        epochs: 5,
        ..Cli::defaults()
    });

    let world = cli.world(DatasetKind::PortoLike);
    let seeds = world.seed_trajectories();
    let seed_rescaled = world.seed_rescaled();
    let measure = MeasureKind::Frechet.measure();
    let dist = DistanceMatrix::compute_parallel(&*measure, &seed_rescaled, par::threads());

    let host_cpus = par::threads();
    println!(
        "bench_training: SAM backbone, {} seeds, dim {}, {} epochs, threads {:?}, host cpus {}",
        seeds.len(),
        cli.dim,
        cli.epochs,
        THREAD_COUNTS,
        host_cpus
    );

    let mut runs: Vec<Run> = Vec::new();
    let mut metrics = MetricsReport::default();
    for threads in THREAD_COUNTS {
        let cfg = TrainConfig {
            dim: cli.dim,
            epochs: cli.epochs,
            patience: None,
            ..TrainConfig::neutraj()
        };
        // Fresh registry per run so counters cover exactly one fit();
        // the last run's snapshot lands in BENCH_training.json.
        let registry = Registry::new();
        let trainer = Trainer::new(cfg.clone(), world.grid.clone())
            .with_threads(threads)
            .with_metrics(&registry);
        let (_, report) = trainer.fit(&seeds, &dist, |s| {
            println!(
                "  threads={threads} epoch {} {:.3}s loss {:.5}",
                s.epoch, s.seconds, s.loss
            );
        });
        let mean = report.epoch_seconds.iter().sum::<f64>() / report.epoch_seconds.len() as f64;
        let run = Run {
            threads,
            epoch_seconds: report.epoch_seconds,
            mean,
            forward: registry.histogram(names::TRAIN_FORWARD_SECONDS).sum(),
            backward: registry.histogram(names::TRAIN_BACKWARD_SECONDS).sum(),
        };
        println!(
            "  threads={threads}: mean epoch {mean:.3}s = forward {:.3}s + backward {:.3}s + other {:.3}s per epoch",
            run.forward / cli.epochs as f64,
            run.backward / cli.epochs as f64,
            run.other() / cli.epochs as f64
        );
        runs.push(run);
        metrics = registry.snapshot();
    }

    let speedup = runs[0].mean / runs[runs.len() - 1].mean;
    println!("speedup ({}t vs 1t): {speedup:.2}x", THREAD_COUNTS[1]);

    // The tape's size per point is a function of the model shape alone;
    // read it off one recorded batch.
    let cfg = TrainConfig {
        dim: cli.dim,
        ..TrainConfig::neutraj()
    };
    let shaper = NeuTrajModel::untrained(cfg.clone(), world.grid.clone());
    let probe: Vec<_> = seeds.iter().take(8).map(|t| shaper.seq_inputs(t)).collect();
    let mut backbone = Backbone::build(&cfg, &world.grid);
    let _ = backbone.forward_train_batch(&probe.iter().collect::<Vec<_>>(), 1);
    let (tape_bytes, points) = backbone.tape_size();
    let tape_bytes_per_point = tape_bytes / points;
    println!("tape: {tape_bytes_per_point} bytes per point (limit {TAPE_BYTES_PER_POINT_MAX})");
    assert!(
        tape_bytes_per_point <= TAPE_BYTES_PER_POINT_MAX,
        "BPTT tape grew to {tape_bytes_per_point} bytes per point"
    );
    println!("TRAINING_GATE tape-bytes-per-point ok");
    print!("{}", metrics.to_prometheus());

    let json = render_json(
        &runs,
        speedup,
        tape_bytes_per_point,
        &cli,
        host_cpus,
        &metrics,
    );
    let path = "BENCH_training.json";
    std::fs::write(path, json).expect("write BENCH_training.json");
    println!("wrote {path}");
}

/// Hand-rolled JSON (the dependency set has no serde_json).
fn render_json(
    runs: &[Run],
    speedup: f64,
    tape_bytes_per_point: usize,
    cli: &Cli,
    host_cpus: usize,
    metrics: &MetricsReport,
) -> String {
    let fmt_list = |v: &[f64]| {
        v.iter()
            .map(|s| format!("{s:.6}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let run_objs = runs
        .iter()
        .map(|run| {
            format!(
                "    {{\n      \"threads\": {},\n      \"epoch_seconds\": [{}],\n      \"mean_epoch_seconds\": {:.6},\n      \"forward_seconds\": {:.6},\n      \"backward_seconds\": {:.6},\n      \"other_seconds\": {:.6}\n    }}",
                run.threads,
                fmt_list(&run.epoch_seconds),
                run.mean,
                run.forward,
                run.backward,
                run.other()
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"bench\": \"training\",\n  \"backbone\": \"sam_lstm\",\n  \"dataset\": \"porto_like\",\n  \"corpus_size\": {},\n  \"seeds\": {},\n  \"dim\": {},\n  \"epochs\": {},\n  \"host_cpus\": {},\n  \"runs\": [\n{}\n  ],\n  \"speedup_vs_single_thread\": {:.4},\n  \"tape_bytes_per_point\": {},\n  \"metrics\": {}\n}}\n",
        cli.size,
        (cli.size as f64 * 0.2) as usize,
        cli.dim,
        cli.epochs,
        host_cpus,
        run_objs,
        speedup,
        tape_bytes_per_point,
        metrics.to_json_indented(2)
    )
}
