//! **Figure 8** — HR@10 of NeuTraj as the SAM scan width `w` varies in
//! `{0, 1, 2, 3, 4}`, on Fréchet, Hausdorff and DTW.
//!
//! ```text
//! cargo run -p neutraj-bench --release --bin fig8 [-- --size N]
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
        ..Cli::defaults()
    });
    println!(
        "Fig 8: HR@10 vs scan width w (Porto-like size={}, w in 0..=4)\n",
        cli.size
    );

    let world = cli.world(DatasetKind::PortoLike);
    for kind in [
        MeasureKind::Frechet,
        MeasureKind::Hausdorff,
        MeasureKind::Dtw,
    ] {
        let gt = world.ground_truth(kind, cli.queries);
        let mut table = Table::new(vec!["w", "NeuTraj HR@10"]);
        let base = cli.train_config(TrainConfig::neutraj());
        let widths = sweep(&world, &gt, &base, &[0, 1, 2, 3, 4], |b, w| TrainConfig {
            scan_width: w,
            ..b.clone()
        });
        for (w, q) in widths {
            table.row(vec![format!("{w}"), fmt_ratio(q.hr10)]);
        }
        println!("[{kind}]");
        println!("{}", table.render());
    }
}
