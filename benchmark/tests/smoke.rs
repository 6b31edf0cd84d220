//! Drives the built benchmark end to end in `--smoke` mode (N = 2 000,
//! 3 trials per phase): every workload, untraced and traced, must exit
//! 0, report `correct: true`, and end with a result line that holds
//! exactly the metrics `BENCHMARK.json` declares.

use neutraj_benchmark::names::{END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::Command;

fn out_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("smoke-{tag}-{}", std::process::id()))
}

/// Runs the binary and returns its standard output.
fn run(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_neutraj-benchmark"))
        .args(args)
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "exit {:?}\nstdout:\n{stdout}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// The result lines of a run over all workloads, in declaration order.
fn result_lines(stdout: &str) -> Vec<&str> {
    stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .collect()
}

fn assert_metrics(line: &str, declared: &[(&str, &str)]) {
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains("\"failed\": 0, \"metrics\": {"), "{line}");
    for (name, unit) in declared {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&key)
            .unwrap_or_else(|| panic!("{name} missing in {line}"));
        let rest = &line[at + key.len()..];
        let value: f64 = rest[..rest.find(',').expect("value then unit")]
            .parse()
            .unwrap_or_else(|_| panic!("{name} is not a number in {line}"));
        assert!(value.is_finite(), "{name} = {value}");
        assert!(
            rest.contains(&format!("\"unit\": \"{unit}\"")),
            "{name} unit"
        );
    }
    // Nothing beyond the declared names.
    assert_eq!(line.matches("\"unit\": ").count(), declared.len(), "{line}");
}

#[test]
fn smoke_untraced_reports_every_end_to_end_metric_on_every_workload() {
    let dir = out_dir("e2e");
    let stdout = run(&[
        "--smoke",
        "--seconds",
        "1",
        "--out-dir",
        dir.to_str().unwrap(),
    ]);
    let lines = result_lines(&stdout);
    assert_eq!(lines.len(), WORKLOADS.len(), "{stdout}");
    let declared: Vec<_> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    for line in &lines {
        assert_metrics(line, &declared);
        // End-to-end metrics are never 0.
        assert!(!line.contains("\"value\": 0.0,"), "{line}");
    }
    assert!(stdout.trim_end().ends_with(lines[lines.len() - 1]));
}

#[test]
fn smoke_traced_reports_every_layer_metric_and_writes_the_trace() {
    let dir = out_dir("trace");
    let stdout = run(&[
        "--smoke",
        "--seconds",
        "1",
        "--trace",
        "1",
        "--out-dir",
        dir.to_str().unwrap(),
    ]);
    let lines = result_lines(&stdout);
    assert_eq!(lines.len(), WORKLOADS.len(), "{stdout}");
    let declared: Vec<_> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    for (line, workload) in lines.iter().zip(&WORKLOADS) {
        assert_metrics(line, &declared);
        let trace = dir.join(format!("trace-{}.json", workload.name));
        let text = std::fs::read_to_string(&trace).expect("trace file written");
        assert!(text.contains("\"spans\": ["), "{}", trace.display());
        assert!(
            text.matches("\"start_ns\"").count() >= 5,
            "{}",
            trace.display()
        );
    }
    for needle in [
        "serve.residual_us = ",
        "obs.trace_overhead_share = ",
        "sum of layer self times",
    ] {
        assert!(stdout.contains(needle), "missing `{needle}` in:\n{stdout}");
    }
    std::fs::remove_dir_all(&dir).expect("remove the smoke output");
}

#[test]
fn the_same_seed_runs_the_same_bytes_and_another_seed_does_not() {
    let dir = out_dir("seed");
    let fnv = |seed: &str| -> Vec<String> {
        let d = dir.to_str().unwrap();
        run(&[
            "--smoke",
            "--seconds",
            "1",
            "--workload",
            "serve_graph",
            "--seed",
            seed,
            "--out-dir",
            d,
        ])
        .lines()
        .filter(|l| l.contains("inputs_fnv64") || l.contains("\"quality_at_10\""))
        .map(|l| match l.find("\"quality_at_10\"") {
            // Keep the quality value only: timings differ run to run.
            Some(at) => l[at..].split('}').next().unwrap().to_string(),
            None => l.trim().to_string(),
        })
        .collect()
    };
    let (a, b, c) = (fnv("2019"), fnv("2019"), fnv("7"));
    assert_eq!(a.len(), 2, "{a:?}");
    assert_eq!(a, b);
    assert_ne!(a[0], c[0]);
}
