//! Command line of the benchmark; `run.sh` builds and invokes it.

use neutraj_benchmark::names::{self, Workload, WORKLOADS};
use neutraj_benchmark::report::result_line;
use neutraj_benchmark::workloads::{serve, train, RunArgs, RunResult};
use neutraj_benchmark::RUSTFLAGS;
use std::process::ExitCode;

const USAGE: &str = "\
usage: benchmark/run.sh [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
  --workload   serve_exact | serve_graph | serve_mixed_churn | train_offline | all (default)
  --seed       input seed (default 2019; 7 is the held-out seed, see README.md)
  --seconds    seconds one run measures for (default: run_seconds of BENCHMARK.json)
  --trace      1: per-layer run, writes benchmark/out/trace-<workload>.json (default 0)
  --smoke      small sizes and 3 trials per phase, for the self-test
  --out-dir    where trace files go (default: out, i.e. benchmark/out)
  --print-benchmark-json   render BENCHMARK.json from the declared names and exit
The last line of each workload's output is its result as one JSON object.";

struct Cli {
    workloads: Vec<&'static Workload>,
    args: RunArgs,
}

fn parse(argv: &[String]) -> Result<Cli, String> {
    let mut workloads: Vec<&'static Workload> = WORKLOADS.iter().collect();
    let mut args = RunArgs {
        seed: 2019,
        seconds: f64::from(names::RUN_SECONDS),
        trace: false,
        smoke: false,
        out_dir: "out".into(),
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("flag {flag} needs {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if name != "all" {
                    let w = names::workload(&name)
                        .ok_or_else(|| format!("unknown workload: {name}"))?;
                    workloads = vec![w];
                }
            }
            "--seed" => {
                let v = value("a whole number")?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed needs a whole number, got {v}"))?;
            }
            "--seconds" => {
                let v = value("a number of seconds")?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 60.0)
                    .ok_or_else(|| format!("--seconds needs a number in (0, 60], got {v}"))?;
            }
            "--trace" => {
                // `--trace 0|1` for the driver, bare `--trace` by hand.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => args.smoke = true,
            "--out-dir" => args.out_dir = value("a directory")?.into(),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(Cli { workloads, args })
}

fn run_one(workload: &'static Workload, args: &RunArgs) -> bool {
    let RunResult {
        metrics,
        mut tally,
        inputs_fnv64,
        tracer,
        ..
    } = match workload.name {
        "serve_exact" => serve::run(serve::Kind::Exact, workload, args),
        "serve_graph" => serve::run(serve::Kind::Graph, workload, args),
        "serve_mixed_churn" => serve::run(serve::Kind::MixedChurn, workload, args),
        "train_offline" => train::run(workload, args),
        other => unreachable!("workload {other} is declared but has no runner"),
    };
    println!("  inputs_fnv64 {inputs_fnv64:#018x} (seed {})", args.seed);
    if args.trace {
        let path = args.out_dir.join(format!("trace-{}.json", workload.name));
        match tracer.write_json(&path, workload.name, args.seed) {
            Ok(()) => println!("  wrote {} spans to {}", tracer.len(), path.display()),
            Err(e) => tally
                .violations
                .push(format!("cannot write {}: {e}", path.display())),
        }
        println!("  layer self times (ms):");
        for (name, (count, total_ns, self_ns)) in tracer.self_times() {
            println!(
                "    {name:<28} {count:>7} spans  total {:>10.3}  self {:>10.3}",
                total_ns as f64 * 1e-6,
                self_ns as f64 * 1e-6
            );
        }
    }
    let values = match metrics.finish() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("benchmark bug: {e}");
            return false;
        }
    };
    for (name, value, unit) in &values {
        println!("  {name:<36} {value:>16.4} {unit}");
    }
    println!(
        "  failed_share {} / {} = {:.6}",
        tally.failed,
        tally.attempted,
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    for v in &tally.violations {
        println!("  VIOLATION: {v}");
    }
    println!("{}", result_line(&tally, &values));
    tally.correct()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if argv.iter().any(|a| a == "--print-benchmark-json") {
        print!("{}", names::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let cli = match parse(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("rustflags: {RUSTFLAGS}");
    if !RUSTFLAGS.contains("target-cpu=native") {
        eprintln!(
            "refusing to measure: built without -C target-cpu=native; build through \
             benchmark/run.sh, which runs cargo from inside the repository tree"
        );
        return ExitCode::from(2);
    }
    let mut all_correct = true;
    for workload in &cli.workloads {
        all_correct &= run_one(workload, &cli.args);
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
