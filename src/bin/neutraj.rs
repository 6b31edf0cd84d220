//! `neutraj` — command-line interface to NeuTraj-RS.
//!
//! Subcommands:
//!
//! ```text
//! neutraj generate --kind porto --n 2000 --seed 1 --out corpus.csv
//! neutraj stats    --data corpus.csv
//! neutraj train    --data corpus.csv --measure frechet --seeds 400 \
//!                  --dim 64 --epochs 15 --out model.ntm \
//!                  [--checkpoint-dir ckpts/ --checkpoint-every 1 --resume]
//! neutraj embed    --model model.ntm --data corpus.csv --out embeddings.csv
//! neutraj knn      --model model.ntm --data corpus.csv --query 17 --k 10 [--rerank] [--metrics]
//! ```
//!
//! Trajectory CSV format: one line per trajectory, `id,x0,y0,x1,y1,...`
//! (see `neutraj::trajectory::io`).

use neutraj::prelude::*;
use neutraj::trajectory::io;
use neutraj::trajectory::stats::CorpusStats;
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let flags = match parse_flags(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "generate" => cmd_generate(&flags),
        "stats" => cmd_stats(&flags),
        "train" => cmd_train(&flags),
        "embed" => cmd_embed(&flags),
        "knn" => cmd_knn(&flags),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command: {other}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "neutraj — linear-time trajectory similarity (NeuTraj, ICDE'19)

USAGE:
  neutraj generate --kind porto|geolife --n N [--seed S] --out FILE.csv
  neutraj stats    --data FILE.csv
  neutraj train    --data FILE.csv --measure frechet|hausdorff|erp|dtw
                   [--seeds N] [--dim D] [--epochs E] [--cell-size M]
                   [--seed S] [--threads T] --out MODEL.ntm
                   [--checkpoint-dir DIR [--checkpoint-every N]
                    [--halt-after N] [--resume]] [--metrics]
  neutraj embed    --model MODEL.ntm --data FILE.csv --out EMB.csv
  neutraj knn      --model MODEL.ntm --data FILE.csv --query ID --k K
                   [--measure M --rerank] [--metrics]";

type Flags = HashMap<String, String>;

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(name) = a.strip_prefix("--") else {
            return Err(format!("expected --flag, got {a}"));
        };
        // Boolean flags take no value.
        if name == "rerank" || name == "metrics" || name == "resume" {
            flags.insert(name.to_string(), "true".to_string());
            continue;
        }
        let v = it
            .next()
            .ok_or_else(|| format!("flag --{name} needs a value"))?;
        flags.insert(name.to_string(), v.clone());
    }
    Ok(flags)
}

fn req<'a>(flags: &'a Flags, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required flag --{name}"))
}

fn opt_parse<T: std::str::FromStr>(flags: &Flags, name: &str, default: T) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("flag --{name}: cannot parse {v:?}")),
    }
}

fn load_corpus(flags: &Flags) -> Result<Dataset, String> {
    let path = req(flags, "data")?;
    io::read_csv_file(path).map_err(|e| format!("reading {path}: {e}"))
}

fn cmd_generate(flags: &Flags) -> Result<(), String> {
    let kind = req(flags, "kind")?;
    let n: usize = opt_parse(flags, "n", 1000)?;
    let seed: u64 = opt_parse(flags, "seed", 2019)?;
    let out = req(flags, "out")?;
    let ds = match kind {
        "porto" => PortoLikeGenerator {
            num_trajectories: n,
            ..Default::default()
        }
        .generate(seed),
        "geolife" => GeolifeLikeGenerator {
            num_trajectories: n,
            ..Default::default()
        }
        .generate(seed),
        other => return Err(format!("unknown dataset kind: {other} (porto|geolife)")),
    };
    io::write_csv_file(&ds, out).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {} trajectories to {out}", ds.len());
    Ok(())
}

fn cmd_stats(flags: &Flags) -> Result<(), String> {
    let ds = load_corpus(flags)?;
    match CorpusStats::compute(&ds) {
        Some(s) => println!("{s}"),
        None => println!("empty corpus"),
    }
    Ok(())
}

fn cmd_train(flags: &Flags) -> Result<(), String> {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let ds = load_corpus(flags)?;
    if ds.is_empty() {
        return Err("corpus is empty".into());
    }
    let measure_kind: MeasureKind = req(flags, "measure")?.parse()?;
    let n_seeds: usize = opt_parse(flags, "seeds", (ds.len() / 5).max(2))?;
    let dim: usize = opt_parse(flags, "dim", 64)?;
    let epochs: usize = opt_parse(flags, "epochs", 15)?;
    let cell_size: f64 = opt_parse(flags, "cell-size", 50.0)?;
    let seed: u64 = opt_parse(flags, "seed", 2019)?;
    let threads: usize = opt_parse(flags, "threads", default_threads())?;
    let out = req(flags, "out")?;
    let ckpt_dir = flags.get("checkpoint-dir").cloned();
    let ckpt_every: usize = opt_parse(flags, "checkpoint-every", 1)?;
    let halt_after: usize = opt_parse(flags, "halt-after", 0)?;
    let resume = flags.contains_key("resume");
    if (resume || halt_after > 0) && ckpt_dir.is_none() {
        return Err("--resume / --halt-after need --checkpoint-dir".into());
    }

    let grid = Grid::covering(ds.trajectories(), cell_size).map_err(|e| format!("grid: {e}"))?;
    let seed_idx = ds.sample_indices(n_seeds, seed);
    let seeds: Vec<Trajectory> = seed_idx
        .iter()
        .map(|&i| ds.trajectories()[i].clone())
        .collect();
    let rescaled: Vec<Trajectory> = seeds.iter().map(|t| grid.rescale_trajectory(t)).collect();
    eprintln!(
        "computing {}x{} seed {} distances on {threads} threads...",
        seeds.len(),
        seeds.len(),
        measure_kind
    );
    let measure = measure_kind.measure();
    let dist = if flags.contains_key("metrics") {
        let registry = Registry::new();
        let dist = DistanceMatrix::compute_instrumented(&*measure, &rescaled, threads, &registry);
        // Ground-truth engine counters (pairs / prunes / DP cells) for the
        // seed matrix, in Prometheus text like `neutraj knn --metrics`.
        eprint!("{}", registry.snapshot().to_prometheus());
        dist
    } else {
        DistanceMatrix::compute_parallel(&*measure, &rescaled, threads)
    };
    let cfg = TrainConfig {
        dim,
        epochs,
        seed,
        ..TrainConfig::neutraj()
    };

    // `--halt-after N` raises the trainer's graceful-stop flag from the
    // N-th epoch callback: a final checkpoint is written at that boundary
    // and the run exits without saving `--out` (resume later instead).
    let stop = Arc::new(AtomicBool::new(false));
    let mut trainer = Trainer::new(cfg, grid).with_threads(threads);
    if let Some(dir) = &ckpt_dir {
        let mut policy = CheckpointPolicy::every_epochs(dir, ckpt_every.max(1));
        if halt_after > 0 {
            policy = policy.with_stop_flag(stop.clone());
        }
        trainer = trainer.with_checkpoints(policy);
    }
    let on_epoch = |e: &neutraj::model::EpochStats| {
        eprintln!(
            "  epoch {:>3}: loss {:.6} ({:.1}s)",
            e.epoch + 1,
            e.loss,
            e.seconds
        );
        if halt_after > 0 && e.epoch + 1 == halt_after {
            stop.store(true, Ordering::Relaxed);
        }
    };
    let (model, report) = if resume {
        let dir = ckpt_dir.as_deref().expect("checked above");
        eprintln!("resuming NeuTraj from newest checkpoint in {dir}...");
        trainer
            .resume(dir, &seeds, &dist, on_epoch)
            .map_err(|e| format!("resuming from {dir}: {e}"))?
    } else {
        eprintln!("training NeuTraj (d={dim}, {epochs} epochs)...");
        trainer.fit(&seeds, &dist, on_epoch)
    };
    if report.interrupted {
        let dir = ckpt_dir.as_deref().expect("interrupt implies checkpoints");
        println!(
            "halted after {} epochs; checkpoint saved in {dir} (resume with --resume); \
             model NOT written to {out}",
            report.epoch_losses.len()
        );
        return Ok(());
    }
    model.save(out).map_err(|e| format!("saving {out}: {e}"))?;
    println!(
        "saved model to {out} (alpha {:.5}, final loss {:.6})",
        report.alpha,
        report.epoch_losses.last().copied().unwrap_or(f64::NAN)
    );
    Ok(())
}

fn cmd_embed(flags: &Flags) -> Result<(), String> {
    let model = NeuTrajModel::load(req(flags, "model")?).map_err(|e| e.to_string())?;
    let ds = load_corpus(flags)?;
    let out = req(flags, "out")?;
    let threads: usize = opt_parse(flags, "threads", default_threads())?;
    let embs = model.embed_all(ds.trajectories(), threads);
    let mut text = String::new();
    for (t, e) in ds.trajectories().iter().zip(&embs) {
        text.push_str(&t.id.to_string());
        for v in e {
            text.push(',');
            text.push_str(&format!("{v}"));
        }
        text.push('\n');
    }
    std::fs::write(out, text).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "embedded {} trajectories (d={}) -> {out}",
        ds.len(),
        model.dim()
    );
    Ok(())
}

fn cmd_knn(flags: &Flags) -> Result<(), String> {
    let model = NeuTrajModel::load(req(flags, "model")?).map_err(|e| e.to_string())?;
    let ds = load_corpus(flags)?;
    let query_id: u64 = req(flags, "query")?
        .parse()
        .map_err(|_| "bad --query id".to_string())?;
    let k: usize = opt_parse(flags, "k", 10)?;
    let threads: usize = opt_parse(flags, "threads", default_threads())?;
    let rerank = flags.contains_key("rerank");

    let trajs = ds.trajectories().to_vec();
    let q_pos = trajs
        .iter()
        .position(|t| t.id == query_id)
        .ok_or_else(|| format!("query id {query_id} not in corpus"))?;
    let mut db = SimilarityDb::with_corpus(model, trajs, threads);
    let registry = Registry::new();
    if flags.contains_key("metrics") {
        db.instrument(&registry);
    }
    // A stored-index target excludes the query itself from the results.
    // The CLI speaks the same owned QuerySpec as the serving layer;
    // with_query lowers it to the borrowed form, which db.search
    // validates.
    let mut spec = QuerySpec::new(k);
    if rerank {
        let kind: MeasureKind = req(flags, "measure")?.parse()?;
        spec = spec.shortlist((k + 1).max(50)).rerank(kind);
    }
    let results = spec
        .with_query(|query| db.search(q_pos, query))
        .map_err(|e| e.to_string())?;
    println!("top-{k} similar to T{query_id}:");
    for n in &results {
        println!(
            "  T{:<8} dist {:.5}",
            db.get(n.index).expect("result index in corpus").id,
            n.dist
        );
    }
    if flags.contains_key("metrics") {
        eprint!("{}", registry.snapshot().to_prometheus());
    }
    Ok(())
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get())
}
