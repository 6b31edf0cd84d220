//! **Figure 6** — HR@10 of NeuTraj vs NT-No-SAM as the training-set size
//! varies (paper: 500→8000 Porto seeds; scaled sweep here), on Fréchet,
//! Hausdorff and DTW.
//!
//! ```text
//! cargo run -p neutraj-bench --release --bin fig6 [-- --size N]
//! ```

use neutraj_bench::Cli;
use neutraj_eval::harness::{DatasetKind, ExperimentWorld, WorldConfig};
use neutraj_eval::report::{fmt_ratio, Table};
use neutraj_measures::MeasureKind;
use neutraj_model::TrainConfig;
use neutraj_trajectory::SplitRatios;

fn main() {
    let cli = Cli::parse(Cli {
        size: 600,
        queries: 30,
        epochs: 8,
        ..Cli::defaults()
    });
    // Give the world a generous training pool to subsample from.
    let world = ExperimentWorld::build(WorldConfig {
        size: cli.size,
        seed: cli.seed,
        ratios: SplitRatios {
            train: 0.5,
            validation: 0.0,
        },
        ..WorldConfig::small(DatasetKind::PortoLike)
    });
    let pool = world.seed_trajectories();
    let max_seeds = pool.len();
    let sweep: Vec<usize> = [max_seeds / 8, max_seeds / 4, max_seeds / 2, max_seeds]
        .into_iter()
        .filter(|&n| n >= 20)
        .collect();
    println!(
        "Fig 6: HR@10 vs training size (Porto-like, sweep {:?}, {} queries)\n",
        sweep, cli.queries
    );

    for kind in [
        MeasureKind::Frechet,
        MeasureKind::Hausdorff,
        MeasureKind::Dtw,
    ] {
        let gt = world.ground_truth(kind, cli.queries);
        // Each model trains on the first `n` seeds of the pool.
        let hr10 = |preset, n: usize| {
            let (model, _) = world.fit(gt.measure(), cli.train_config(preset), &pool[..n]);
            fmt_ratio(world.score(&model, &gt).hr10)
        };
        let mut table = Table::new(vec!["#seeds", "NeuTraj", "NT-No-SAM"]);
        for &n in &sweep {
            table.row(vec![
                format!("{n}"),
                hr10(TrainConfig::neutraj(), n),
                hr10(TrainConfig::nt_no_sam(), n),
            ]);
        }
        println!("[{kind}]");
        println!("{}", table.render());
    }
}
