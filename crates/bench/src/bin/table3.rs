//! **Table III** — ablation study: NT-No-WS, NT-No-SAM vs full NeuTraj on
//! all four measures and both datasets.
//!
//! ```text
//! cargo run -p neutraj-bench --release --bin table3 [-- --size N --full]
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
        "Table III: ablation study (size={}, queries={}, epochs={}, d={})\n",
        cli.size, cli.queries, cli.epochs, cli.dim
    );
    let methods = [
        TrainConfig::nt_no_ws(),
        TrainConfig::nt_no_sam(),
        TrainConfig::neutraj(),
    ]
    .map(|preset| MethodSpec::Learned(cli.train_config(preset)));
    for kind in [DatasetKind::GeolifeLike, DatasetKind::PortoLike] {
        let world = cli.world(kind);
        println!("== {} ==", kind.name());
        accuracy_tables(&world, cli.queries, &methods);
    }
}
