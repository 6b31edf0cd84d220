//! Load generator for the async similarity service: coalesced
//! micro-batching throughput and open-loop latency under Poisson-ish
//! arrivals, swept across shard counts and batch deadlines.
//!
//! Three measurements:
//!
//! * **saturation** — closed-loop throughput with `CLIENTS` concurrent
//!   callers hammering `SimilarityService::query`, coalescing scheduler
//!   (`max_batch = CLIENTS`) versus the one-query-at-a-time baseline
//!   (`max_batch = 1`, dispatching the instant anything is queued).
//!   Every response is checked against the per-query sequential
//!   reference before it counts — the ≥ 1.5x gate is for *identical*
//!   answers. Panics below 1.5x (the `SERVING_GATE coalesce:` line is
//!   the CI grep marker).
//! * **sweep** — open-loop arrivals (exponential inter-arrival gaps from
//!   the deterministic splitmix64 stream; the generator never waits for
//!   answers) at several offered loads × shard counts × batch deadlines,
//!   recording achieved qps and p50/p99 latency measured from each
//!   request's *scheduled arrival* (so queueing delay counts, the
//!   standard open-loop correction).
//! * **smoke** — at offered load 1.2× the unbatched saturation, the
//!   coalescing service must keep p99 at or under the unbatched
//!   service's p99: the baseline's queue grows without bound past its
//!   saturation point while batching's capacity absorbs the same load.
//!   Panics otherwise (`SERVING_GATE smoke-p99:` is the marker).
//! * **overload** (`--overload`) — at 1.5× the *batched* saturation, a
//!   bounded-admission service (`max_queue = 2×CLIENTS`, typed
//!   `Overloaded` shedding) versus the unbounded baseline: accepted-work
//!   p99 must be at or under the baseline's (shedding trades goodput for
//!   latency; an unbounded queue trades latency for nothing once past
//!   saturation). Requires nonzero `neutraj_serve_shed_total` and panics
//!   if the gate fails (`SERVING_GATE overload-p99:` is the marker).
//!
//! The three *timing* gates are asserted from the default corpus size
//! (20k rows) up. Below it — the CI smoke run is 2k rows — a lone request
//! is too cheap for the ratios to exist: over ten runs at 2k rows the
//! coalescing speedup read 1.03–1.47x, and with no headroom behind it the
//! order of the two smoke p99s was a coin flip (5 of 10) and the
//! overload pair came within 4 % of each other and crossed (1 of 10). So
//! a smaller run prints `SERVING_GATE coalesce: skipped (corpus under
//! 20000 rows)` and records the same numbers without asserting them, the
//! way `bench_measures` prints `frechet-gate: skipped`. What does not depend
//! on timing is asserted at every size: every answer bit-identical to
//! the sequential reference, and a nonzero shed count under overload.
//!
//! Results land in `BENCH_serving.json` (qps/p50_us/p99_us per operating
//! point, plus the `neutraj_serve_*` metrics snapshot).
//!
//! ```text
//! cargo run -p neutraj-bench --release --bin bench_serving [-- --size 2000 --queries 32]
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use neutraj_measures::Neighbor;
use neutraj_model::{BackboneKind, NeuTrajModel, TrainConfig};
use neutraj_obs::{MetricsReport, Registry};
use neutraj_serve::{
    sequential_reference, QuerySpec, ServeRequest, ServiceConfig, SimilarityService,
};
use neutraj_trajectory::rng::{splitmix64, GOLDEN_GAMMA};
use neutraj_trajectory::{par, BoundingBox, Grid, Point, Trajectory};

/// Search depth; k = 10 matches the paper's top-k experiments.
const K: usize = 10;

/// Closed-loop caller threads. Also the coalescing `max_batch`: with as
/// many slots as callers, a full wave of resubmissions dispatches the
/// moment the last one lands instead of waiting out the deadline.
const CLIENTS: usize = 16;

/// Wall-clock per closed-loop throughput measurement.
const SATURATION_SECS: f64 = 1.0;

/// The default corpus size, and the smallest at which the timing gates
/// are asserted (see the module docs).
const DEFAULT_SIZE: usize = 20_000;

fn main() {
    let cli = neutraj_bench::Cli::parse(neutraj_bench::Cli {
        size: DEFAULT_SIZE,
        queries: 32,
        epochs: 0,
        ..neutraj_bench::Cli::defaults()
    });
    let host_cpus = par::threads();
    println!(
        "bench_serving: corpus {}, dim {}, k {K}, query pool {}, clients {CLIENTS}, host cpus {host_cpus}",
        cli.size, cli.dim, cli.queries
    );

    let grid = Grid::new(BoundingBox::new(0.0, 0.0, 1000.0, 500.0), 50.0).unwrap();
    let model = NeuTrajModel::untrained(
        TrainConfig {
            backbone: BackboneKind::SamLstm,
            dim: cli.dim,
            seed: cli.seed,
            ..TrainConfig::neutraj()
        },
        grid,
    );
    let corpus: Vec<Trajectory> = (0..cli.size as u64)
        .map(|i| synth_traj(i, 20 + (i as usize * 7) % 41))
        .collect();
    let pool: Vec<Trajectory> = (0..cli.queries as u64)
        .map(|i| synth_traj(1_000_000 + i, 25 + (i as usize * 5) % 31))
        .collect();
    let spec = QuerySpec::new(K);

    let registry = Registry::new();

    // --- saturation: coalesced vs one-at-a-time, bit-identity checked ---
    let unbatched = SimilarityService::new(
        model.clone(),
        corpus.clone(),
        &ServiceConfig {
            max_batch: 1,
            ..base_config(1)
        },
    )
    .expect("build unbatched service");
    let batched =
        SimilarityService::with_metrics(model.clone(), corpus.clone(), &base_config(1), &registry)
            .expect("build batched service");
    let want = reference_answers(&batched, &pool, spec);

    let unbatched_qps = closed_loop_qps(&unbatched, &pool, &want, spec);
    let batched_qps = closed_loop_qps(&batched, &pool, &want, spec);
    let speedup = batched_qps / unbatched_qps;
    println!(
        "SERVING_GATE coalesce: batched {batched_qps:.1} q/s vs unbatched {unbatched_qps:.1} q/s \
         ({speedup:.2}x) bit_identical=true"
    );
    let gated = cli.size >= DEFAULT_SIZE;
    if !gated {
        println!("SERVING_GATE coalesce: skipped (corpus under {DEFAULT_SIZE} rows)");
    }
    assert!(
        !gated || speedup >= 1.5,
        "SERVING_GATE coalesce: {speedup:.2}x is under the 1.5x floor \
         (batched {batched_qps:.1} q/s, unbatched {unbatched_qps:.1} q/s)"
    );

    // --- open-loop sweep: offered load × shard count × deadline ---
    let offered_points = [0.5, 0.85, 1.2].map(|f| f * unbatched_qps);
    let configs: [(usize, u64); 4] = [(1, 200), (2, 200), (4, 200), (1, 1000)];
    let mut sweep_rows = Vec::new();
    for (nshards, deadline_us) in configs {
        let service = SimilarityService::new(
            model.clone(),
            corpus.clone(),
            &ServiceConfig {
                batch_deadline: Duration::from_micros(deadline_us),
                ..base_config(nshards)
            },
        )
        .expect("build sweep service");
        for offered in offered_points {
            let run = open_loop(&service, &pool, spec, offered, cli.seed ^ deadline_us);
            println!(
                "  sweep shards={nshards} deadline={deadline_us}us offered {offered:.1} q/s: \
                 qps {:.1} p50_us {:.0} p99_us {:.0}",
                run.qps, run.p50_us, run.p99_us
            );
            sweep_rows.push(SweepRow {
                nshards,
                deadline_us,
                offered_qps: offered,
                run,
            });
        }
    }

    // --- smoke: p99 past the unbatched saturation point ---
    let smoke_offered = 1.2 * unbatched_qps;
    let smoke_unbatched = open_loop(&unbatched, &pool, spec, smoke_offered, cli.seed ^ 0xA5);
    let smoke_batched = open_loop(&batched, &pool, spec, smoke_offered, cli.seed ^ 0xA5);
    println!(
        "SERVING_GATE smoke-p99: batched {:.0}us vs unbatched {:.0}us at offered {smoke_offered:.1} q/s",
        smoke_batched.p99_us, smoke_unbatched.p99_us
    );
    assert!(
        !gated || smoke_batched.p99_us <= smoke_unbatched.p99_us,
        "SERVING_GATE smoke-p99: batched p99 {:.0}us above unbatched {:.0}us at offered {smoke_offered:.1} q/s",
        smoke_batched.p99_us,
        smoke_unbatched.p99_us
    );

    // --- overload: bounded admission + shedding vs the unbounded
    //     baseline, past saturation (gated behind --overload) ---
    let overload = cli.overload.then(|| {
        let shed_registry = Registry::new();
        let bounded = SimilarityService::with_metrics(
            model.clone(),
            corpus.clone(),
            &ServiceConfig {
                max_queue: 2 * CLIENTS,
                ..base_config(1)
            },
            &shed_registry,
        )
        .expect("build bounded service");
        let offered = 1.5 * batched_qps;
        let unbounded_run = open_loop_shedding(&batched, &pool, spec, offered, cli.seed ^ 0xC3);
        let bounded_run = open_loop_shedding(&bounded, &pool, spec, offered, cli.seed ^ 0xC3);
        drop(bounded); // flush before reading the shed counter
        let shed_total = shed_registry
            .counter(neutraj_obs::names::SERVE_SHED_TOTAL)
            .get();
        println!(
            "  overload offered {offered:.1} q/s: bounded accepted {}/{} \
             (serve_shed_total={shed_total})",
            bounded_run.accepted, bounded_run.requests
        );
        assert!(
            shed_total > 0,
            "overload leg at 1.5x saturation against a {}-deep queue must shed",
            2 * CLIENTS
        );
        println!(
            "SERVING_GATE overload-p99: bounded {:.0}us vs unbounded {:.0}us at offered \
             {offered:.1} q/s shed_total={shed_total}",
            bounded_run.p99_us, unbounded_run.p99_us
        );
        assert!(
            !gated || bounded_run.p99_us <= unbounded_run.p99_us,
            "SERVING_GATE overload-p99: bounded-queue p99 {:.0}us above the unbounded \
             baseline's {:.0}us at offered {offered:.1} q/s — shedding must buy latency",
            bounded_run.p99_us,
            unbounded_run.p99_us
        );
        OverloadLeg {
            offered_qps: offered,
            max_queue: 2 * CLIENTS,
            unbounded: unbounded_run,
            bounded: bounded_run,
            shed_total,
        }
    });

    drop(unbatched);
    drop(batched); // flush the instrumented scheduler before snapshotting
    let report = registry.snapshot();
    let json = render_json(
        &cli,
        host_cpus,
        unbatched_qps,
        batched_qps,
        &sweep_rows,
        smoke_offered,
        &smoke_unbatched,
        &smoke_batched,
        overload.as_ref(),
        &report,
    );
    let path = "BENCH_serving.json";
    std::fs::write(path, json).expect("write BENCH_serving.json");
    println!("wrote {path}");
}

/// The coalescing configuration every measurement varies from. The
/// queue is explicitly unbounded here: the saturation/sweep/smoke legs
/// measure the scheduler, not the admission ladder, and the unbounded
/// queue is also the overload leg's baseline.
fn base_config(nshards: usize) -> ServiceConfig {
    ServiceConfig {
        nshards,
        max_batch: CLIENTS,
        batch_deadline: Duration::from_micros(200),
        scan_threads: 1,
        build_threads: 1,
        ann: None,
        quantized: false,
        max_queue: usize::MAX,
        ..ServiceConfig::default()
    }
}

/// Per-query sequential reference answers over the service's snapshot.
fn reference_answers(
    service: &SimilarityService,
    pool: &[Trajectory],
    spec: QuerySpec,
) -> Vec<Vec<Neighbor>> {
    let requests: Vec<ServeRequest> = pool
        .iter()
        .enumerate()
        .map(|(i, q)| ServeRequest::new(i as u64, q.clone(), spec))
        .collect();
    sequential_reference(&service.snapshot(), &requests)
        .into_iter()
        .map(|r| r.expect("reference query"))
        .collect()
}

/// Closed-loop saturation throughput: `CLIENTS` threads issue queries
/// back-to-back for [`SATURATION_SECS`]; every answer is asserted equal
/// to its sequential reference before it counts.
fn closed_loop_qps(
    service: &SimilarityService,
    pool: &[Trajectory],
    want: &[Vec<Neighbor>],
    spec: QuerySpec,
) -> f64 {
    let stop = AtomicBool::new(false);
    let timing = AtomicBool::new(false);
    let completed = AtomicU64::new(0);
    let mut measured = 0.0;
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (stop, timing, completed) = (&stop, &timing, &completed);
            scope.spawn(move || {
                let mut i = c;
                while !stop.load(Ordering::Relaxed) {
                    let qi = i % pool.len();
                    let resp = service
                        .query(ServeRequest::new(qi as u64, pool[qi].clone(), spec))
                        .expect("closed-loop query");
                    assert_eq!(
                        resp.neighbors, want[qi],
                        "coalesced answer diverged from the sequential reference"
                    );
                    if timing.load(Ordering::Relaxed) {
                        completed.fetch_add(1, Ordering::Relaxed);
                    }
                    i += CLIENTS;
                }
            });
        }
        // Warm the scan scratch and settle the thread pool, then time.
        std::thread::sleep(Duration::from_millis(150));
        timing.store(true, Ordering::Relaxed);
        let start = Instant::now();
        std::thread::sleep(Duration::from_secs_f64(SATURATION_SECS));
        timing.store(false, Ordering::Relaxed);
        measured = completed.load(Ordering::Relaxed) as f64 / start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
    });
    measured
}

/// One open-loop operating point: achieved throughput and latency
/// percentiles (microseconds, measured from scheduled arrival). Under a
/// bounded queue, `shed` counts typed `Overloaded` rejections; latency
/// covers the `accepted` requests only (a rejection is an answer, but
/// not a served one).
struct OpenLoopRun {
    requests: usize,
    accepted: usize,
    shed: usize,
    qps: f64,
    p50_us: f64,
    p99_us: f64,
}

/// A sweep row: the operating point plus the configuration that ran it.
struct SweepRow {
    nshards: usize,
    deadline_us: u64,
    offered_qps: f64,
    run: OpenLoopRun,
}

/// The overload leg's result: bounded admission + shedding versus the
/// unbounded baseline at the same past-saturation offered load.
struct OverloadLeg {
    offered_qps: f64,
    max_queue: usize,
    unbounded: OpenLoopRun,
    bounded: OpenLoopRun,
    shed_total: u64,
}

/// Open-loop Poisson-ish load: a generator thread submits requests at
/// exponentially-gapped arrival instants without waiting for answers; a
/// collector drains the reply channels in arrival order. Latency is
/// `completion − scheduled arrival`, so time spent queueing behind an
/// overloaded service counts against it (the open-loop property that
/// closed-loop harnesses hide).
fn open_loop(
    service: &SimilarityService,
    pool: &[Trajectory],
    spec: QuerySpec,
    offered_qps: f64,
    seed: u64,
) -> OpenLoopRun {
    let run = open_loop_shedding(service, pool, spec, offered_qps, seed);
    assert_eq!(
        run.shed, 0,
        "unexpected shedding on an unbounded-queue operating point"
    );
    run
}

/// [`open_loop`] that tolerates typed `Overloaded` rejections — the
/// overload leg's runner. Any other error still aborts the bench.
fn open_loop_shedding(
    service: &SimilarityService,
    pool: &[Trajectory],
    spec: QuerySpec,
    offered_qps: f64,
    seed: u64,
) -> OpenLoopRun {
    let n_req = ((offered_qps * 1.0) as usize).clamp(150, 800);
    let (tx, rx) = std::sync::mpsc::channel();
    let mut latencies_us = Vec::with_capacity(n_req);
    let mut shed = 0usize;
    let mut last_completion = Instant::now();
    let start = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut state = seed ^ GOLDEN_GAMMA;
            let mut t = 0.0f64;
            for i in 0..n_req {
                t += exp_gap(&mut state, offered_qps);
                let scheduled = start + Duration::from_secs_f64(t);
                let now = Instant::now();
                if scheduled > now {
                    std::thread::sleep(scheduled - now);
                }
                let qi = i % pool.len();
                let reply = service.submit(ServeRequest::new(i as u64, pool[qi].clone(), spec));
                tx.send((scheduled, reply)).expect("collector alive");
            }
        });
        for (scheduled, reply) in rx {
            match reply.recv().expect("service alive") {
                Ok(_) => {
                    last_completion = Instant::now();
                    latencies_us
                        .push(last_completion.duration_since(scheduled).as_secs_f64() * 1e6);
                }
                Err(neutraj_serve::ServeError::Overloaded { .. }) => shed += 1,
                Err(other) => panic!("open-loop query failed: {other}"),
            }
        }
    });
    let accepted = latencies_us.len();
    let qps = accepted as f64 / last_completion.duration_since(start).as_secs_f64();
    latencies_us.sort_by(|a, b| a.total_cmp(b));
    let (p50_us, p99_us) = if latencies_us.is_empty() {
        (f64::NAN, f64::NAN)
    } else {
        (
            percentile(&latencies_us, 0.50),
            percentile(&latencies_us, 0.99),
        )
    };
    OpenLoopRun {
        requests: n_req,
        accepted,
        shed,
        qps,
        p50_us,
        p99_us,
    }
}

/// One exponential inter-arrival gap at `rate` arrivals/sec.
fn exp_gap(state: &mut u64, rate: f64) -> f64 {
    // splitmix64 mapped to (0, 1], then inverse-CDF.
    let z = splitmix64(state);
    let u = ((z >> 12) as f64 + 1.0) / (1u64 << 52) as f64;
    -u.ln() / rate
}

/// Nearest-rank percentile of an ascending-sorted sample.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// Deterministic trajectory shaped by `id` so every slot differs.
fn synth_traj(id: u64, len: usize) -> Trajectory {
    Trajectory::new_unchecked(
        id,
        (0..len)
            .map(|k| {
                let (t, i) = (k as f64, id as f64);
                Point::new(
                    500.0 + 450.0 * (0.37 * t + 0.13 * i).sin(),
                    250.0 + 220.0 * (0.23 * t - 0.29 * i).cos(),
                )
            })
            .collect(),
    )
}

/// Hand-rolled JSON (the dependency set has no serde_json).
#[allow(clippy::too_many_arguments)]
fn render_json(
    cli: &neutraj_bench::Cli,
    host_cpus: usize,
    unbatched_qps: f64,
    batched_qps: f64,
    sweep: &[SweepRow],
    smoke_offered: f64,
    smoke_unbatched: &OpenLoopRun,
    smoke_batched: &OpenLoopRun,
    overload: Option<&OverloadLeg>,
    report: &MetricsReport,
) -> String {
    let sweep_objs = sweep
        .iter()
        .map(|r| {
            format!(
                "    {{\n      \"nshards\": {},\n      \"deadline_us\": {},\n      \"offered_qps\": {:.2},\n      \"requests\": {},\n      \"qps\": {:.2},\n      \"p50_us\": {:.1},\n      \"p99_us\": {:.1}\n    }}",
                r.nshards, r.deadline_us, r.offered_qps, r.run.requests, r.run.qps, r.run.p50_us, r.run.p99_us
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let smoke_leg = |run: &OpenLoopRun| {
        format!(
            "{{\n      \"requests\": {},\n      \"qps\": {:.2},\n      \"p50_us\": {:.1},\n      \"p99_us\": {:.1}\n    }}",
            run.requests, run.qps, run.p50_us, run.p99_us
        )
    };
    let overload_leg = |run: &OpenLoopRun| {
        format!(
            "{{\n      \"requests\": {},\n      \"accepted\": {},\n      \"shed\": {},\n      \"qps\": {:.2},\n      \"p50_us\": {:.1},\n      \"p99_us\": {:.1}\n    }}",
            run.requests, run.accepted, run.shed, run.qps, run.p50_us, run.p99_us
        )
    };
    let overload_obj = match overload {
        None => "null".to_string(),
        Some(leg) => format!(
            "{{\n    \"offered_qps\": {:.2},\n    \"max_queue\": {},\n    \"unbounded\": {},\n    \"bounded\": {},\n    \"shed_total\": {},\n    \"p99_ok\": {}\n  }}",
            leg.offered_qps,
            leg.max_queue,
            overload_leg(&leg.unbounded),
            overload_leg(&leg.bounded),
            leg.shed_total,
            leg.bounded.p99_us <= leg.unbounded.p99_us,
        ),
    };
    format!(
        "{{\n  \"bench\": \"serving\",\n  \"n\": {},\n  \"dim\": {},\n  \"k\": {K},\n  \"pool\": {},\n  \"clients\": {CLIENTS},\n  \"host_cpus\": {},\n  \"saturation\": {{\n    \"unbatched_qps\": {:.2},\n    \"batched_qps\": {:.2},\n    \"speedup\": {:.4},\n    \"bit_identical\": true\n  }},\n  \"sweep\": [\n{}\n  ],\n  \"smoke\": {{\n    \"offered_qps\": {:.2},\n    \"unbatched\": {},\n    \"batched\": {},\n    \"p99_ok\": {}\n  }},\n  \"overload\": {},\n  \"metrics\": {}\n}}\n",
        cli.size,
        cli.dim,
        cli.queries,
        host_cpus,
        unbatched_qps,
        batched_qps,
        batched_qps / unbatched_qps,
        sweep_objs,
        smoke_offered,
        smoke_leg(smoke_unbatched),
        smoke_leg(smoke_batched),
        smoke_batched.p99_us <= smoke_unbatched.p99_us,
        overload_obj,
        report.to_json_indented(2)
    )
}
