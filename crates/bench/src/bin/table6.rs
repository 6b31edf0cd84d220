//! **Table VI** — offline training time (per-epoch time, epochs to
//! converge, total) and corpus-embedding time, for Siamese, NeuTraj and
//! the two ablations, on the Porto-like dataset under Fréchet.
//!
//! ```text
//! cargo run -p neutraj-bench --release --bin table6 [-- --full]
//! ```

use neutraj_bench::Cli;
use neutraj_eval::harness::DatasetKind;
use neutraj_eval::report::{fmt_seconds, Table};
use neutraj_measures::MeasureKind;
use neutraj_model::{EmbeddingStore, TrainConfig};
use neutraj_trajectory::gen::PortoLikeGenerator;
use neutraj_trajectory::Trajectory;
use std::time::Instant;

fn main() {
    let mut cli = Cli::parse(Cli {
        size: 500,
        epochs: 30,
        ..Cli::defaults()
    });
    let mut embed_n = 5_000usize;
    if cli.full {
        cli.size = cli.size.max(2_000);
        embed_n = 50_000;
    }
    println!(
        "Table VI: offline training & embedding time (Frechet, {} seeds from a {}-trajectory corpus; embedding corpus {})\n",
        (cli.size as f64 * 0.2) as usize,
        cli.size,
        embed_n
    );

    let world = cli.world(DatasetKind::PortoLike);
    let measure = MeasureKind::Frechet.measure();

    let embed_corpus: Vec<Trajectory> = PortoLikeGenerator {
        num_trajectories: embed_n,
        ..Default::default()
    }
    .generate(cli.seed ^ 0xE3B)
    .into_trajectories();

    let mut table = Table::new(vec![
        "Method",
        "t_epoch",
        "#epoch",
        "t_total",
        &format!("Embed {embed_n}"),
    ]);

    for preset in [
        TrainConfig::siamese(),
        TrainConfig::neutraj(),
        TrainConfig::nt_no_sam(),
        TrainConfig::nt_no_ws(),
    ] {
        let cfg = TrainConfig {
            epochs: cli.epochs,
            patience: Some(3), // "converged" = 3 stale epochs
            ..cli.train_config(preset)
        };
        let name = cfg.method_name().to_string();
        let t0 = Instant::now();
        let (model, report) = world.train(&*measure, cfg);
        let total = t0.elapsed().as_secs_f64();
        let epochs = report.epoch_losses.len();
        let t_epoch = report.epoch_seconds.iter().sum::<f64>() / epochs.max(1) as f64;

        let t0 = Instant::now();
        let store = EmbeddingStore::build(&model, &embed_corpus, num_threads());
        let embed_time = t0.elapsed().as_secs_f64();
        std::hint::black_box(store);

        table.row(vec![
            name,
            fmt_seconds(t_epoch),
            format!("{epochs}"),
            fmt_seconds(total),
            fmt_seconds(embed_time),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Note: t_total includes the seed distance matrix; #epoch is the count\n\
         until early stopping (patience 3) or the --epochs cap."
    );
}

fn num_threads() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get())
}
