//! Every name the benchmark declares: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` is rendered from these tables
//! (`--print-benchmark-json`) and a self-test keeps the committed file
//! equal to the rendering, so a name cannot be emitted without being
//! declared or declared without being emitted.

/// One workload: a set of inputs and the phases run on them.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one line, at most 200 characters).
    pub why: &'static str,
    /// This workload's bit in [`Layer::on`].
    pub bit: u8,
}

pub const SERVE_EXACT: u8 = 1;
pub const SERVE_GRAPH: u8 = 2;
pub const SERVE_MIXED_CHURN: u8 = 4;
pub const TRAIN_OFFLINE: u8 = 8;
const SERVE: u8 = SERVE_EXACT | SERVE_GRAPH | SERVE_MIXED_CHURN;
const ALL: u8 = SERVE | TRAIN_OFFLINE;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "serve_exact",
        why: "exact top-10 over 20k rows: embed and f64 GEMM scan cost about the same and scheduling costs more than both, so serve, nn and the scan each show; index does nothing",
        bit: SERVE_EXACT,
    },
    Workload {
        name: "serve_graph",
        why: "HNSW shortlist (ef 256) per query: the graph walk is most of a query and the graph build most of set-up, so index shows; the flat scan does nothing",
        bit: SERVE_GRAPH,
    },
    Workload {
        name: "serve_mixed_churn",
        why: "exact, int8, IVF and Frechet-rerank reads in one batch beside synchronous 8-row inserts into three views: a read gain that costs the write path shows here only",
        bit: SERVE_MIXED_CHURN,
    },
    Workload {
        name: "train_offline",
        why: "the offline half: exact Frechet and DTW seed matrices, NeuTraj training epochs, then HR@10 of the trained model; measures, nn backward and model do the work, serve does nothing",
        bit: TRAIN_OFFLINE,
    },
];

/// An end-to-end metric. Every one is reported on every workload; what
/// it measures on each is in `README.md` ("End-to-end metrics").
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const SETUP_S: &str = "setup_s";
pub const OPS_PER_S: &str = "ops_per_s";
pub const LATENCY_US: &str = "latency_us";
pub const QUALITY_AT_10: &str = "quality_at_10";
pub const RSS_MB: &str = "rss_mb";

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: OPS_PER_S,
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: LATENCY_US,
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: QUALITY_AT_10,
        unit: "ratio",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: RSS_MB,
        unit: "MiB",
        better: "lower",
        bound: 0.25,
    },
];

/// A per-layer metric (layer = crate). Reported by the traced run on
/// every workload; on a workload outside `on` the layer call does not
/// run and the value is 0.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Workloads (bit set) on which the metric is measured.
    pub on: u8,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str, on: u8) -> Layer {
    Layer {
        name,
        unit,
        better,
        on,
    }
}

#[rustfmt::skip]
pub const PER_LAYER: [Layer; 67] = [
    layer("host.calib_ms", "ms", "lower", ALL),
    layer("host.cpus", "count", "higher", ALL),
    layer("host.steal_share", "ratio", "lower", ALL),
    layer("trajectory.validate_ns_per_point", "ns", "lower", SERVE),
    layer("measures.frechet_ns_per_cell", "ns", "lower", TRAIN_OFFLINE),
    layer("measures.dtw_ns_per_cell", "ns", "lower", TRAIN_OFFLINE),
    layer("measures.matrix_cells_total", "count", "lower", TRAIN_OFFLINE),
    layer("measures.knn_us_per_query", "us", "lower", TRAIN_OFFLINE),
    layer("measures.knn_pruned_share", "ratio", "higher", TRAIN_OFFLINE),
    layer("measures.rerank_us_per_candidate", "us", "lower", SERVE_MIXED_CHURN),
    layer("nn.gemm_nt_gflops", "GFLOP/s", "higher", ALL),
    layer("nn.gemm_nn_gflops", "GFLOP/s", "higher", ALL),
    layer("nn.sam_fwd_ns_per_point", "ns", "lower", SERVE),
    layer("nn.sam_train_ns_per_point", "ns", "lower", TRAIN_OFFLINE),
    layer("nn.adam_ns_per_param", "ns", "lower", TRAIN_OFFLINE),
    layer("model.embed_us_per_query", "us", "lower", SERVE),
    layer("model.embed1_us", "us", "lower", SERVE),
    layer("model.scan_f64_ns_per_row", "ns", "lower", SERVE_EXACT | SERVE_MIXED_CHURN),
    layer("model.scan_int8_ns_per_row", "ns", "lower", SERVE_MIXED_CHURN),
    layer("model.db_search_us_per_query", "us", "lower", SERVE),
    layer("model.db_overhead_us_per_query", "us", "lower", SERVE),
    layer("model.corpus_embed_us_per_row", "us", "lower", SERVE),
    layer("model.quant_build_ns_per_row", "ns", "lower", SERVE_MIXED_CHURN),
    layer("model.insert_us_per_row", "us", "lower", SERVE_MIXED_CHURN),
    layer("model.train_epoch_s", "s", "lower", TRAIN_OFFLINE),
    layer("model.pairs_per_epoch", "count", "higher", TRAIN_OFFLINE),
    layer("index.hnsw_build_s", "s", "lower", SERVE_GRAPH),
    layer("index.hnsw_build_us_per_row", "us", "lower", SERVE_GRAPH),
    layer("index.hnsw_bytes_per_row", "B", "lower", SERVE_GRAPH),
    layer("index.hnsw_walk_us_per_query", "us", "lower", SERVE_GRAPH),
    layer("index.hnsw_evals_per_query", "count", "lower", SERVE_GRAPH),
    layer("index.hnsw_hops_per_query", "count", "lower", SERVE_GRAPH),
    layer("index.hnsw_ns_per_eval", "ns", "lower", SERVE_GRAPH),
    layer("index.ivf_build_s", "s", "lower", SERVE_MIXED_CHURN),
    layer("index.ivf_probe_us_per_query", "us", "lower", SERVE_MIXED_CHURN),
    layer("index.ivf_candidates_per_query", "count", "lower", SERVE_MIXED_CHURN),
    layer("index.ivf_insert_ns_per_row", "ns", "lower", SERVE_MIXED_CHURN),
    layer("cluster.kmeans_fit_s", "s", "lower", SERVE_MIXED_CHURN),
    layer("cluster.kmeans_assign_ns_per_row", "ns", "lower", SERVE_MIXED_CHURN),
    layer("serve.snapshot_build_s", "s", "lower", SERVE),
    layer("serve.rotate_ms", "ms", "lower", SERVE_MIXED_CHURN),
    layer("serve.snapshot_search_us_per_query", "us", "lower", SERVE),
    layer("serve.snapshot_search1_us", "us", "lower", SERVE),
    layer("serve.closed16_qps", "1/s", "higher", SERVE),
    layer("serve.lone_p50_us", "us", "lower", SERVE),
    layer("serve.lone_p99_us", "us", "lower", SERVE),
    layer("serve.residual_us", "us", "lower", SERVE),
    layer("serve.sat_residual_share", "ratio", "lower", SERVE),
    layer("serve.batch_size_mean", "count", "higher", SERVE),
    layer("serve.coalesce_p50_us", "us", "lower", SERVE),
    layer("serve.cpu_us_per_query", "us", "lower", SERVE),
    layer("serve.open400_p50_us", "us", "lower", SERVE),
    layer("serve.open400_p99_us", "us", "lower", SERVE),
    layer("serve.open400_late_p99_us", "us", "lower", SERVE),
    layer("serve.open400_failed", "count", "lower", SERVE),
    layer("serve.shed_total", "count", "lower", SERVE),
    layer("serve.degraded_total", "count", "lower", SERVE),
    layer("serve.deadline_expired_total", "count", "lower", SERVE),
    layer("serve.quarantined_total", "count", "lower", SERVE),
    layer("serve.snapshot_save_mb_per_s", "MB/s", "higher", SERVE),
    layer("serve.snapshot_load_s", "s", "lower", SERVE),
    layer("obs.trace_overhead_share", "ratio", "lower", SERVE),
    layer("trace.layers_lone_us", "us", "lower", SERVE),
    layer("trace.layers_sat_us_per_query", "us", "lower", SERVE),
    layer("trace.spans_total", "count", "higher", ALL),
    layer("measures.gt_pairs_per_s", "1/s", "higher", TRAIN_OFFLINE),
    layer("model.train_pairs_per_s", "1/s", "higher", TRAIN_OFFLINE),
];

/// The driver's command: `bash benchmark/run.sh`.
pub const COMMAND: [&str; 2] = ["bash", "benchmark/run.sh"];
/// The one directory the benchmark owns.
pub const PATHS: [&str; 1] = ["benchmark"];
/// Seconds one run measures for.
pub const RUN_SECONDS: u32 = 10;

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Renders `BENCHMARK.json` from the tables above.
pub fn benchmark_json() -> String {
    let quote_list = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect::<Vec<_>>()
        .join(",\n");
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{end_to_end}\n  ],\n  \
         \"per_layer\": [\n{per_layer}\n  ]\n}}\n",
        quote_list(&COMMAND),
        quote_list(&PATHS),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n') && !w.why.contains('"'));
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.better == "lower" || m.better == "higher");
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.better == "lower" || m.better == "higher");
            assert!(m.on != 0 && m.on & !ALL == 0, "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let setup = END_TO_END.iter().find(|m| m.name == SETUP_S).unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn committed_benchmark_json_is_the_rendering_of_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `benchmark/run.sh --print-benchmark-json > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
        assert!((1..=60).contains(&RUN_SECONDS));
    }
}
