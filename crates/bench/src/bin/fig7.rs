//! **Figure 7** — HR@10 of NeuTraj vs NT-No-SAM as the embedding
//! dimension `d` varies (paper: 8→256), on Fréchet, Hausdorff and DTW.
//!
//! ```text
//! cargo run -p neutraj-bench --release --bin fig7 [-- --size N --full]
//! ```

use neutraj_bench::Cli;
use neutraj_eval::harness::DatasetKind;
use neutraj_eval::report::{fmt_ratio, Table};
use neutraj_eval::sweeps::sweep;
use neutraj_measures::MeasureKind;
use neutraj_model::TrainConfig;

fn main() {
    let cli = Cli::parse(Cli {
        queries: 30,
        epochs: 8,
        dim: 0, // swept
        ..Cli::defaults()
    });
    let dims: &[usize] = if cli.full {
        &[8, 16, 32, 64, 128]
    } else {
        &[8, 16, 32, 64]
    };
    println!(
        "Fig 7: HR@10 vs embedding dimension d (Porto-like size={}, sweep {:?})\n",
        cli.size, dims
    );

    let world = cli.world(DatasetKind::PortoLike);
    let with_dim = |base: &TrainConfig, dim| TrainConfig {
        dim,
        ..base.clone()
    };
    for kind in [
        MeasureKind::Frechet,
        MeasureKind::Hausdorff,
        MeasureKind::Dtw,
    ] {
        let gt = world.ground_truth(kind, cli.queries);
        let mut table = Table::new(vec!["d", "NeuTraj", "NT-No-SAM"]);
        let base_full = cli.train_config(TrainConfig::neutraj());
        let base_nosam = cli.train_config(TrainConfig::nt_no_sam());
        let full = sweep(&world, &gt, &base_full, dims, with_dim);
        let nosam = sweep(&world, &gt, &base_nosam, dims, with_dim);
        for ((d, qf), (_, qn)) in full.iter().zip(&nosam) {
            table.row(vec![format!("{d}"), fmt_ratio(qf.hr10), fmt_ratio(qn.hr10)]);
        }
        println!("[{kind}]");
        println!("{}", table.render());
    }
}
