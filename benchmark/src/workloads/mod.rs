//! The four workloads and what they share: run arguments, the result of
//! a run, and the trial loop.

pub mod serve;
pub mod train;

use crate::names::Workload;
use crate::report::{Metrics, Tally};
use crate::trace::Tracer;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Embedding width of every model the benchmark builds (the paper's
/// small configuration; `TrainConfig::neutraj()`'s default).
pub const DIM: usize = 32;
/// Seed of every model's initial weights. Weights are part of the
/// program under test, not an input, so they do not move with `--seed`.
pub const MODEL_SEED: u64 = 2019;
/// Neighbours per query; the paper's top-k experiments use 10.
pub const K: usize = 10;
/// Times the set-up is repeated in an untraced run; `setup_s` is their
/// median.
pub const SETUP_REPS: usize = 3;

/// Arguments of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    /// Seconds the run should measure for. Trial counts are fixed
    /// multiples of this — never adapted to a measured speed — so the
    /// same arguments do the same work on every commit.
    pub seconds: f64,
    pub trace: bool,
    /// Shrinks every size (N = 2 000, 3 trials) for the self-test.
    pub smoke: bool,
    /// Where the trace file and the snapshot round-trip file go.
    pub out_dir: PathBuf,
}

impl RunArgs {
    /// Number of trials for a phase calibrated at `per_second` trials
    /// per second of `--seconds` (3 under `--smoke`), at least `min`.
    pub fn trials(&self, per_second: f64, min: usize) -> usize {
        if self.smoke {
            return 3;
        }
        ((self.seconds * per_second).round() as usize).max(min)
    }

    /// The wall-clock guard of a phase given `share` of `--seconds`: a
    /// phase that takes more than twice its share stops early, so a slow
    /// host cannot run the benchmark past the driver's time limit.
    pub fn guard(&self, share: f64) -> Duration {
        Duration::from_secs_f64((self.seconds * share * 2.0).max(0.5))
    }
}

/// What a run hands back to `main`.
#[derive(Debug)]
pub struct RunResult {
    pub workload: &'static Workload,
    pub metrics: Metrics,
    pub tally: Tally,
    pub inputs_fnv64: u64,
    pub tracer: Tracer,
}

/// Runs `trial` up to `count` times, stopping early once `guard` has
/// passed (but never before 3 trials), and returns what each returned.
pub fn run_trials<T>(count: usize, guard: Duration, mut trial: impl FnMut(usize) -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        if i >= 3 && start.elapsed() > guard {
            println!("  (phase guard hit after {i} of {count} trials)");
            break;
        }
        out.push(trial(i));
    }
    out
}

/// GFLOP/s of the two GEMM kernels under every layer, at the shapes the
/// hot paths call them with: `matmul_nt` on the scan block (16 queries x
/// 512 rows x 32 dims, `C = A * B^T`) and `matmul` on a recurrent-gate
/// step (16 sequences x (2 + d) inputs x 4d gates, `C = A * B`).
pub fn gemm_gflops(trials: usize) -> (f64, f64) {
    let fill = |len: usize| -> Vec<f64> {
        (0..len)
            .map(|i| ((i * 37) % 101) as f64 * 0.01 - 0.5)
            .collect()
    };
    let rate = |nt: bool, (m, n, k): (usize, usize, usize), reps: usize| {
        let (a, b, mut c) = (fill(m * k), fill(n * k), vec![0.0; m * n]);
        let secs: Vec<f64> = (0..trials)
            .map(|_| {
                timed(|| {
                    for _ in 0..reps {
                        if nt {
                            neutraj_nn::linalg::matmul_nt(&a, &b, &mut c, m, n, k);
                        } else {
                            neutraj_nn::linalg::matmul(&a, &b, &mut c, m, n, k);
                        }
                        std::hint::black_box(&mut c);
                    }
                })
                .1
            })
            .collect();
        (2 * m * n * k * reps) as f64 / crate::stats::quiet_time(&secs) / 1e9
    };
    (
        rate(true, (16, 512, DIM), 400),
        rate(false, (16, 4 * DIM, 2 + DIM), 1000),
    )
}

/// Times `f` in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}
