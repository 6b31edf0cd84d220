//! **Table II** — performance comparison of AP, Siamese and NeuTraj on
//! Fréchet, Hausdorff, ERP and DTW over both datasets.
//!
//! ```text
//! cargo run -p neutraj-bench --release --bin table2 [-- --size N --full]
//! ```

use neutraj_bench::{accuracy_tables, Cli, MethodSpec};
use neutraj_eval::harness::DatasetKind;
use neutraj_model::TrainConfig;

fn main() {
    let cli = Cli::parse(Cli {
        queries: 40,
        ..Cli::defaults()
    })
    .scaled_for_full();
    println!(
        "Table II: performance comparison (size={}, queries={}, epochs={}, d={})\n",
        cli.size, cli.queries, cli.epochs, cli.dim
    );
    let methods = [
        MethodSpec::Ap,
        MethodSpec::Learned(cli.train_config(TrainConfig::siamese())),
        MethodSpec::Learned(cli.train_config(TrainConfig::neutraj())),
    ];
    for kind in [DatasetKind::GeolifeLike, DatasetKind::PortoLike] {
        let world = cli.world(kind);
        println!(
            "== {} ({} trajectories, {} seeds, {} test) ==",
            kind.name(),
            world.corpus.len(),
            world.split.train.len(),
            world.split.test.len()
        );
        accuracy_tables(&world, cli.queries, &methods);
    }
}
