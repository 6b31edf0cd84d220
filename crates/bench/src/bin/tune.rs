//! Hyper-parameter probing utility (not a paper artifact): sweeps the
//! similarity sharpness `α` (as a multiple of the auto heuristic) and the
//! loss shape, reporting HR@10. Used to calibrate the reproduction's
//! defaults; kept in-tree so the calibration is repeatable.
//!
//! ```text
//! cargo run -p neutraj-bench --release --bin tune [-- --size N]
//! ```

use neutraj_bench::Cli;
use neutraj_eval::harness::DatasetKind;
use neutraj_eval::report::{fmt_ratio, Table};
use neutraj_measures::{DistanceMatrix, MeasureKind};
use neutraj_model::{RankedBatchLoss, SimilarityMatrix, TrainConfig};
use neutraj_trajectory::par;

fn main() {
    let cli = Cli::parse(Cli {
        queries: 30,
        ..Cli::defaults()
    });
    for dataset in [DatasetKind::GeolifeLike, DatasetKind::PortoLike] {
        let world = cli.world(dataset);
        let gt = world.ground_truth(MeasureKind::Frechet, cli.queries);
        let dist =
            DistanceMatrix::compute_parallel(gt.measure(), &world.seed_rescaled(), par::threads());
        let auto = SimilarityMatrix::auto_alpha(&dist);
        println!("== {} (auto alpha {:.4}) ==", dataset.name(), auto);

        let mut table = Table::new(vec!["alpha x", "loss", "HR@10", "HR@50"]);
        for alpha_mul in [0.25, 0.5, 1.0, 2.0] {
            for (loss_name, loss) in [
                ("ranking", RankedBatchLoss::neutraj()),
                ("mse", RankedBatchLoss::siamese()),
            ] {
                let cfg = TrainConfig {
                    alpha: Some(auto * alpha_mul),
                    loss,
                    ..cli.train_config(TrainConfig::neutraj())
                };
                let (model, _) = world.train(gt.measure(), cfg);
                let q = world.score(&model, &gt);
                table.row(vec![
                    format!("{alpha_mul}"),
                    loss_name.to_string(),
                    fmt_ratio(q.hr10),
                    fmt_ratio(q.hr50),
                ]);
            }
        }
        println!("{}", table.render());
    }
}
