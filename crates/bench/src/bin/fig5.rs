//! **Figure 5** — convergence curves of NeuTraj vs NT-No-SAM on the four
//! measures over 20 epochs (training loss per epoch).
//!
//! ```text
//! cargo run -p neutraj-bench --release --bin fig5 [-- --size N]
//! ```

use neutraj_bench::Cli;
use neutraj_eval::harness::DatasetKind;
use neutraj_eval::report::Table;
use neutraj_measures::MeasureKind;
use neutraj_model::TrainConfig;

fn main() {
    let cli = Cli::parse(Cli {
        epochs: 20,
        ..Cli::defaults()
    });
    println!(
        "Fig 5: convergence (loss per epoch), Porto-like size={}, {} epochs\n",
        cli.size, cli.epochs
    );

    let world = cli.world(DatasetKind::PortoLike);

    for kind in MeasureKind::ALL {
        let measure = kind.measure();
        let mut table_header = vec!["Epoch".to_string()];
        table_header.push("NeuTraj".to_string());
        table_header.push("NT-No-SAM".to_string());
        let mut table = Table::new(table_header);

        let run = |preset: TrainConfig| -> Vec<f64> {
            let cfg = TrainConfig {
                patience: None,
                ..cli.train_config(preset)
            };
            world.train(&*measure, cfg).1.epoch_losses
        };
        let full = run(TrainConfig::neutraj());
        let no_sam = run(TrainConfig::nt_no_sam());
        for e in 0..full.len().max(no_sam.len()) {
            table.row(vec![
                format!("{}", e + 1),
                full.get(e).map_or("-".into(), |l| format!("{l:.5}")),
                no_sam.get(e).map_or("-".into(), |l| format!("{l:.5}")),
            ]);
        }
        println!("[{kind}]");
        println!("{}", table.render());
    }
}
