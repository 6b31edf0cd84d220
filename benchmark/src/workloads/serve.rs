//! The three serving workloads: `serve_exact`, `serve_graph` and
//! `serve_mixed_churn`.
//!
//! Load comes from **one generator thread** (the caller's) that keeps a
//! window of `submit()` receivers in flight: 16 for the saturated phase
//! (`closed16`), 1 for the unloaded phase (`lone`). Both are closed
//! loops — a slot sends its next request when its reply arrives — which
//! is what a library caller of `SimilarityService` does, and which
//! repeats on this host where an open loop does not. The service runs
//! one shard, one scan thread, batches of at most 16 and a 200 µs batch
//! deadline, so generator plus scheduler keep at most two cores busy.

use super::{gemm_gflops, run_trials, timed, RunArgs, RunResult, DIM, K, MODEL_SEED, SETUP_REPS};
use crate::host;
use crate::inputs::{self, purpose, World};
use crate::names::{self, Workload};
use crate::report::{Metrics, Tally};
use crate::rng::{Fnv64, SplitMix64};
use crate::stats::{median, percentile_of, quiet_rate, quiet_time};
use crate::trace::Tracer;
use neutraj_cluster::{KMeans, KMeansParams};
use neutraj_index::IvfIndex;
use neutraj_measures::{MeasureKind, Neighbor};
use neutraj_model::{
    AnnParams, BackboneKind, EmbeddingStore, HnswIndex, HnswParams, NeuTrajModel, QuantizedStore,
    SimilarityDb, TrainConfig,
};
use neutraj_nn::Workspace;
use neutraj_obs::{names as obs, Registry};
use neutraj_serve::{
    sequential_reference, QuerySpec, ServeError, ServeRequest, ServeResponse, ServiceConfig,
    ShardConfig, SimilarityService, Snapshot,
};
use neutraj_trajectory::Trajectory;
use std::collections::VecDeque;
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Exact,
    Graph,
    MixedChurn,
}

/// Corpus rows. The graph workload is the same size as the flat one:
/// three set-ups of a larger graph do not fit the driver's time limit,
/// and at this size the walk is already most of a query.
const CORPUS: usize = 20_000;
const CORPUS_SMOKE: usize = 2_000;
/// Route templates: ~300 trajectories per route at full size.
const ROUTES: usize = 64;
/// Trajectory lengths of corpus, query pool and insert stream.
const LENGTHS: (usize, usize) = (20, 60);
/// Distinct queries, cycled in order.
const POOL: usize = 256;
/// Requests in flight in the saturated phase; also `max_batch`.
const WINDOW: usize = 16;
/// Requests per trial: saturated, unloaded, churn.
const CLOSED_READS: usize = 512;
const LONE_READS: usize = 150;
const CHURN_READS: usize = 1024;
/// Churn: one synchronous `insert_batch` of this many rows after every
/// `INSERT_EVERY` reads.
const INSERT_ROWS: usize = 8;
const INSERT_EVERY: usize = 256;
/// Graph beam width, IVF lists probed, rerank shortlist.
const GRAPH_EF: usize = 256;
const ANN_NPROBE: usize = 8;
const RERANK_SHORTLIST: usize = 50;
/// Recall floors against the exact scan of the same snapshot.
const FLOOR_GRAPH: f64 = 0.99;
const FLOOR_QUANTIZED: f64 = 0.99;
const FLOOR_ANN: f64 = 0.95;
/// Span `request` ids of replayed groups start here.
const REPLAY_IDS: u64 = 1 << 32;
/// Open-loop diagnostic rate (requests per second).
const OPEN_RATE: f64 = 400.0;

type Reply = Result<ServeResponse, ServeError>;

struct Plan {
    kind: Kind,
    n: usize,
    cfg: ServiceConfig,
    /// Pool query `qi` is always sent with `specs[qi % specs.len()]`, so
    /// every batch of 16 consecutive requests holds every spec and a
    /// query's reference answer is needed for one spec only.
    specs: Vec<QuerySpec>,
}

impl Plan {
    fn new(kind: Kind, smoke: bool) -> Self {
        let cfg = ServiceConfig {
            nshards: 1,
            max_batch: WINDOW,
            batch_deadline: Duration::from_micros(200),
            scan_threads: 1,
            build_threads: host::cpus(),
            ann: (kind == Kind::MixedChurn).then(AnnParams::default),
            graph: (kind == Kind::Graph).then(HnswParams::default),
            quantized: kind == Kind::MixedChurn,
            max_queue: 1024,
            ..ServiceConfig::default()
        };
        let specs = match kind {
            Kind::Exact => vec![QuerySpec::new(K)],
            Kind::Graph => vec![QuerySpec::new(K).shortlist_graph(GRAPH_EF)],
            Kind::MixedChurn => vec![
                QuerySpec::new(K),
                QuerySpec::new(K).quantized(),
                QuerySpec::new(K).shortlist_ann(ANN_NPROBE),
                QuerySpec::new(K)
                    .shortlist(RERANK_SHORTLIST)
                    .rerank(MeasureKind::Frechet),
            ],
        };
        Self {
            kind,
            n: if smoke { CORPUS_SMOKE } else { CORPUS },
            cfg,
            specs,
        }
    }

    fn spec_of(&self, qi: usize) -> QuerySpec {
        self.specs[qi % self.specs.len()]
    }

    fn shard_config(&self) -> ShardConfig {
        ShardConfig {
            nshards: self.cfg.nshards,
            build_threads: self.cfg.build_threads,
            ann: self.cfg.ann.clone(),
            graph: self.cfg.graph,
            quantized: self.cfg.quantized,
        }
    }
}

struct Inputs {
    corpus: Vec<Trajectory>,
    pool: Vec<Trajectory>,
    inserts: Vec<Trajectory>,
    fnv64: u64,
}

fn make_inputs(plan: &Plan, args: &RunArgs, churn_trials: usize) -> Inputs {
    let world = World::new(args.seed, ROUTES);
    let corpus = world.trajectories(purpose::CORPUS, 0, plan.n, LENGTHS);
    let pool = world.trajectories(purpose::POOL, 1 << 40, POOL, LENGTHS);
    let insert_rows = churn_trials * (CHURN_READS / INSERT_EVERY) * INSERT_ROWS;
    let inserts = world.trajectories(purpose::INSERTS, 1 << 41, insert_rows, LENGTHS);
    let mut hash = Fnv64::default();
    for part in [&corpus, &pool, &inserts] {
        inputs::fingerprint(&mut hash, part);
    }
    Inputs {
        corpus,
        pool,
        inserts,
        fnv64: hash.finish(),
    }
}

fn model() -> NeuTrajModel {
    NeuTrajModel::untrained(
        TrainConfig {
            backbone: BackboneKind::SamLstm,
            dim: DIM,
            seed: MODEL_SEED,
            ..TrainConfig::neutraj()
        },
        inputs::grid(),
    )
}

/// The closed-loop load generator.
struct Generator<'a> {
    service: &'a SimilarityService,
    pool: &'a [Trajectory],
    plan: &'a Plan,
    /// Requests sent so far; request `i` carries pool query `i % POOL`.
    sent: usize,
}

impl Generator<'_> {
    fn submit(&mut self) -> (usize, Instant, Receiver<Reply>) {
        let qi = self.sent % self.pool.len();
        let req = ServeRequest::new(
            self.sent as u64,
            self.pool[qi].clone(),
            self.plan.spec_of(qi),
        );
        self.sent += 1;
        let at = Instant::now();
        (qi, at, self.service.submit(req))
    }

    /// Completes `reads` requests with `window` in flight and returns the
    /// elapsed seconds. `on_reply(qi, reply, sent, received)` sees every
    /// reply; `after(done)` runs on this thread after the `done`-th.
    fn run(
        &mut self,
        window: usize,
        reads: usize,
        mut on_reply: impl FnMut(usize, Reply, Instant, Instant),
        mut after: impl FnMut(usize),
    ) -> f64 {
        let start = Instant::now();
        let mut inflight = VecDeque::with_capacity(window);
        let mut to_send = reads;
        while to_send > 0 && inflight.len() < window {
            inflight.push_back(self.submit());
            to_send -= 1;
        }
        let mut done = 0;
        while let Some((qi, sent, rx)) = inflight.pop_front() {
            let reply = rx.recv().unwrap_or(Err(ServeError::Dropped));
            on_reply(qi, reply, sent, Instant::now());
            done += 1;
            after(done);
            if to_send > 0 {
                inflight.push_back(self.submit());
                to_send -= 1;
            }
        }
        start.elapsed().as_secs_f64()
    }
}

/// The recall@10 an approximate spec must reach against the exact scan
/// of the same snapshot; `None` for a spec that must match it exactly.
fn recall_floor(spec: &QuerySpec) -> Option<f64> {
    if spec.graph_ef().is_some() {
        Some(FLOOR_GRAPH)
    } else if spec.ann_nprobe().is_some() {
        Some(FLOOR_ANN)
    } else if spec.is_quantized() {
        Some(FLOOR_QUANTIZED)
    } else {
        None
    }
}

/// How many of `want`'s indices `got` found.
fn overlap(got: &[Neighbor], want: &[Neighbor]) -> usize {
    got.iter()
        .filter(|g| want.iter().any(|w| w.index == g.index))
        .count()
}

/// Checks replies of a read-only corpus against precomputed exact
/// answers: bit for bit for an exact spec, by recall for an approximate
/// one. (A rerank spec orders by another distance; its answers are
/// checked where the corpus changes, in [`verify_churn`].)
struct Checker<'a> {
    plan: &'a Plan,
    exact_want: &'a [Vec<Neighbor>],
    hits: usize,
    possible: usize,
}

impl Checker<'_> {
    fn check(&mut self, tally: &mut Tally, qi: usize, reply: &Reply) {
        let want = &self.exact_want[qi];
        let spec = self.plan.spec_of(qi);
        match reply {
            Ok(r) if !r.degraded && !r.partial => {
                if spec.rerank_measure().is_some() {
                    tally.check(r.neighbors.len() == want.len());
                    return;
                }
                self.hits += overlap(&r.neighbors, want);
                self.possible += want.len();
                tally.check(match recall_floor(&spec) {
                    None => r.neighbors == *want,
                    Some(_) => r.neighbors.len() == want.len(),
                });
            }
            _ => tally.check(false),
        }
    }

    fn recall(&self) -> f64 {
        self.hits as f64 / self.possible.max(1) as f64
    }
}

fn exact_answers(snapshot: &Snapshot, pool: &[Trajectory], k: usize) -> Vec<Vec<Neighbor>> {
    let requests: Vec<ServeRequest> = pool
        .iter()
        .enumerate()
        .map(|(i, q)| ServeRequest::new(i as u64, q.clone(), QuerySpec::new(k)))
        .collect();
    sequential_reference(snapshot, &requests)
        .into_iter()
        .map(|r| r.expect("exact reference over a valid pool"))
        .collect()
}

/// Runs one serving workload.
pub fn run(kind: Kind, workload: &'static Workload, args: &RunArgs) -> RunResult {
    let plan = Plan::new(kind, args.smoke);
    let churn_trials = if kind == Kind::MixedChurn && !args.trace {
        args.trials(1.5, 5)
    } else {
        // The traced run needs rows for 16 calls of the insert path.
        4 * usize::from(kind == Kind::MixedChurn)
    };
    let inputs = make_inputs(&plan, args, churn_trials);
    println!(
        "{}: corpus {} rows, pool {}, insert stream {} rows, host cpus {}",
        workload.name,
        inputs.corpus.len(),
        inputs.pool.len(),
        inputs.inserts.len(),
        host::cpus()
    );
    let mut out = RunResult {
        workload,
        metrics: Metrics::new(workload, args.trace),
        tally: Tally::default(),
        inputs_fnv64: inputs.fnv64,
        tracer: Tracer::new(args.trace),
    };
    if args.trace {
        traced(&plan, &inputs, args, &mut out);
    } else {
        untraced(&plan, &inputs, args, churn_trials, &mut out);
    }
    out
}

// ---------------------------------------------------------------------
// Untraced run: the end-to-end metrics.
// ---------------------------------------------------------------------

fn untraced(
    plan: &Plan,
    inputs: &Inputs,
    args: &RunArgs,
    churn_trials: usize,
    out: &mut RunResult,
) {
    let model = model();
    // Set-up, repeated: each repeat drops the previous service first, as
    // a restart would, so peak memory is one service's.
    let mut setup = Vec::new();
    let mut service = None;
    for _ in 0..SETUP_REPS {
        drop(service.take());
        let (m, corpus) = (model.clone(), inputs.corpus.clone());
        let (s, secs) = timed(|| SimilarityService::new(m, corpus, &plan.cfg));
        setup.push(secs);
        service = Some(s.expect("service over a valid corpus"));
    }
    let service = service.expect("SETUP_REPS > 0");
    println!("  setup repeats (s): {setup:.3?}");
    out.metrics.set(names::SETUP_S, median(&setup));

    let (ops_per_s, latency_us, quality) = if plan.kind == Kind::MixedChurn {
        churn(plan, inputs, args, churn_trials, &service, &mut out.tally)
    } else {
        read_only(plan, inputs, args, &service, &mut out.tally)
    };
    out.metrics.set(names::OPS_PER_S, ops_per_s);
    out.metrics.set(names::LATENCY_US, latency_us);
    out.metrics.set(names::QUALITY_AT_10, quality);
    drop(service);
    out.metrics.set(names::RSS_MB, host::peak_rss_mb());
}

/// `closed16` and `lone` trials, in turn, on a corpus nobody writes to.
fn read_only(
    plan: &Plan,
    inputs: &Inputs,
    args: &RunArgs,
    service: &SimilarityService,
    tally: &mut Tally,
) -> (f64, f64, f64) {
    let want = exact_answers(&service.snapshot(), &inputs.pool, K);
    let mut checker = Checker {
        plan,
        exact_want: &want,
        hits: 0,
        possible: 0,
    };
    let mut gen = Generator {
        service,
        pool: &inputs.pool,
        plan,
        sent: 0,
    };
    // One unmeasured pass fills the scan scratch and the allocator.
    gen.run(WINDOW, POOL, |_, _, _, _| (), |_| ());

    // Rounds of one saturated and one unloaded trial, so both phases
    // sample the whole run: the host's speed drifts over seconds, and a
    // phase confined to one stretch of the run would see one mood of it.
    let mut p50s = Vec::new();
    let rates = run_trials(args.trials(3.2, 5), args.guard(1.0), |_| {
        let secs = gen.run(
            WINDOW,
            CLOSED_READS,
            |qi, reply, _, _| checker.check(tally, qi, &reply),
            |_| (),
        );
        let mut lat = Vec::with_capacity(LONE_READS);
        gen.run(
            1,
            LONE_READS,
            |qi, reply, sent, got| {
                checker.check(tally, qi, &reply);
                lat.push(got.duration_since(sent).as_secs_f64() * 1e6);
            },
            |_| (),
        );
        p50s.push(median(&lat));
        CLOSED_READS as f64 / secs
    });
    println!(
        "  closed16: {} trials of {CLOSED_READS} reads, q/s quiet-decile {:.1} (median {:.1})",
        rates.len(),
        quiet_rate(&rates),
        median(&rates)
    );
    println!(
        "  lone: {} trials of {LONE_READS} reads, p50 us quiet-decile {:.1} (median {:.1})",
        p50s.len(),
        quiet_time(&p50s),
        median(&p50s)
    );
    let recall = checker.recall();
    if let Some(floor) = recall_floor(&plan.specs[0]) {
        tally.require(recall >= floor, || {
            format!("recall@10 {recall:.4} is under the {floor} floor")
        });
    }
    (quiet_rate(&rates), quiet_time(&p50s), recall)
}

/// One recorded churn reply, checked after the run against the final
/// snapshot (see [`verify_churn`]).
struct ChurnReply {
    qi: u32,
    epoch: u64,
    neighbors: Vec<Neighbor>,
}

/// Mixed reads beside synchronous inserts.
fn churn(
    plan: &Plan,
    inputs: &Inputs,
    args: &RunArgs,
    trials: usize,
    service: &SimilarityService,
    tally: &mut Tally,
) -> (f64, f64, f64) {
    let mut gen = Generator {
        service,
        pool: &inputs.pool,
        plan,
        sent: 0,
    };
    gen.run(WINDOW, POOL, |_, _, _, _| (), |_| ());

    let mut replies: Vec<ChurnReply> = Vec::with_capacity(trials * CHURN_READS);
    let mut failed_reads = 0u64;
    // Mean `insert_batch` time of each trial. A call is quick when the
    // scheduler still holds the old snapshot and so frees it, slow when
    // the caller frees it. That is a mixture, not one-sided interference:
    // a trial's four calls average it and the median trial is reported,
    // which repeated within 6 % over twelve runs where the quiet decile
    // (the trial luckiest in who frees) repeated within 8 %.
    let mut insert_us = Vec::new();
    let mut next_row = 0;
    let rates = run_trials(trials, args.guard(0.8), |_| {
        let mut insert_s = 0.0;
        let secs = gen.run(
            WINDOW,
            CHURN_READS,
            |qi, reply, _, _| match reply {
                Ok(r) if !r.degraded && !r.partial => replies.push(ChurnReply {
                    qi: qi as u32,
                    epoch: r.epoch,
                    neighbors: r.neighbors,
                }),
                _ => failed_reads += 1,
            },
            |done| {
                if done % INSERT_EVERY == 0 {
                    let rows = inputs.inserts[next_row..next_row + INSERT_ROWS].to_vec();
                    next_row += INSERT_ROWS;
                    let (res, secs) = timed(|| service.insert_batch(rows));
                    tally.check(res.is_ok());
                    insert_s += secs;
                }
            },
        );
        insert_us.push(insert_s * 1e6 / (CHURN_READS / INSERT_EVERY) as f64);
        CHURN_READS as f64 / secs
    });
    println!(
        "  churn: {} trials of {CHURN_READS} reads + {} inserts of {INSERT_ROWS} rows, reads/s quiet-decile {:.1} (median {:.1})",
        rates.len(),
        CHURN_READS / INSERT_EVERY,
        quiet_rate(&rates),
        median(&rates)
    );
    println!(
        "  insert_batch({INSERT_ROWS}): per-trial mean us, median {:.1} (quiet-decile {:.1}); corpus ends at {} rows",
        median(&insert_us),
        quiet_time(&insert_us),
        service.len()
    );
    tally.attempted += failed_reads;
    tally.failed += failed_reads;
    let quality = verify_churn(plan, inputs, &service.snapshot(), &replies, tally);
    (quiet_rate(&rates), median(&insert_us), quality)
}

/// Checks every churn reply against the snapshot of the epoch that
/// answered it, using only the final snapshot.
///
/// Inserts only append, and both the embedding scan and the rerank sort
/// under a total `(distance, index)` order, so the answer of epoch `e`
/// is the final snapshot's order with the rows that did not exist yet
/// (`index >= n0 + 8·e`) filtered out. Asking the final snapshot for
/// `depth + inserted` neighbours therefore holds every epoch's top
/// `depth` — one reference query per pool query instead of one per
/// reply, from the same `sequential_reference` the exact path must match.
fn verify_churn(
    plan: &Plan,
    inputs: &Inputs,
    last: &Snapshot,
    replies: &[ChurnReply],
    tally: &mut Tally,
) -> f64 {
    let n0 = inputs.corpus.len();
    let rows_at = |epoch: u64| n0 + epoch as usize * INSERT_ROWS;
    let depth = RERANK_SHORTLIST + (last.len() - n0);
    // `spec` for every pool query, or only for those sent with a rerank
    // spec (the reranked order costs `depth` exact distances a query).
    let ask = |spec: QuerySpec, rerank_only: bool| -> Vec<Vec<Neighbor>> {
        let requests: Vec<ServeRequest> = (0..inputs.pool.len())
            .filter(|&qi| !rerank_only || plan.spec_of(qi).rerank_measure().is_some())
            .map(|qi| ServeRequest::new(qi as u64, inputs.pool[qi].clone(), spec))
            .collect();
        let mut out = vec![Vec::new(); inputs.pool.len()];
        for (req, res) in requests.iter().zip(sequential_reference(last, &requests)) {
            out[req.id as usize] = res.expect("reference over a valid pool");
        }
        out
    };
    let by_embedding = ask(QuerySpec::new(depth), false);
    let by_frechet = ask(
        QuerySpec::new(depth)
            .shortlist(depth)
            .rerank(MeasureKind::Frechet),
        true,
    );

    // (found, possible) per spec, for the specs scored by recall.
    let mut scored = vec![(0usize, 0usize); plan.specs.len()];
    for r in replies {
        let qi = r.qi as usize;
        let rows = rows_at(r.epoch);
        let alive = by_embedding[qi].iter().filter(|n| n.index < rows);
        let spec = plan.spec_of(qi);
        if spec.rerank_measure().is_some() {
            let shortlist: Vec<usize> = alive.take(RERANK_SHORTLIST).map(|n| n.index).collect();
            let want: Vec<Neighbor> = by_frechet[qi]
                .iter()
                .filter(|n| shortlist.contains(&n.index))
                .take(K)
                .copied()
                .collect();
            tally.check(r.neighbors == want);
            continue;
        }
        let want: Vec<Neighbor> = alive.take(K).copied().collect();
        let slot = &mut scored[qi % plan.specs.len()];
        slot.0 += overlap(&r.neighbors, &want);
        slot.1 += want.len();
        tally.check(match recall_floor(&spec) {
            None => r.neighbors == want,
            Some(_) => r.neighbors.len() == want.len(),
        });
    }
    for (spec, &(found, possible)) in plan.specs.iter().zip(&scored) {
        if let Some(floor) = recall_floor(spec) {
            let recall = found as f64 / possible.max(1) as f64;
            println!("  recall@10 of {spec:?}: {recall:.4}");
            tally.require(recall >= floor, || {
                format!("recall@10 {recall:.4} of {spec:?} is under the {floor} floor")
            });
        }
    }
    let (found, possible) = scored
        .iter()
        .fold((0, 0), |acc, s| (acc.0 + s.0, acc.1 + s.1));
    found as f64 / possible.max(1) as f64
}

// ---------------------------------------------------------------------
// Traced run: the per-layer metrics.
// ---------------------------------------------------------------------

/// Per-layer seconds and counts of one replay trial (one pass over the
/// pool in batches of a fixed size).
#[derive(Debug, Default, Clone)]
struct ReplayTrial {
    validate_s: f64,
    points: usize,
    embed_s: f64,
    scan_f64_s: f64,
    scan_f64_rows: usize,
    scan_int8_s: f64,
    scan_int8_rows: usize,
    walk_s: f64,
    walk_queries: usize,
    evals: usize,
    hops: usize,
    probe_s: f64,
    probe_queries: usize,
    candidates: usize,
    rerank_s: f64,
    rerank_candidates: usize,
    /// The enclosing `replay.batch` spans: the layers plus the glue
    /// between them.
    batch_s: f64,
    db_search_s: f64,
    snapshot_search_s: f64,
    queries: usize,
}

impl ReplayTrial {
    fn layers_s(&self) -> f64 {
        self.validate_s
            + self.embed_s
            + self.scan_f64_s
            + self.scan_int8_s
            + self.walk_s
            + self.probe_s
            + self.rerank_s
    }
}

/// Replays the pool through the layer calls a service batch makes, in
/// batches of `batch` requests grouped by spec as the scheduler groups
/// them, each call under a child span of the batch's span. The composed
/// answer must equal `Snapshot::search_batch`'s.
fn replay_pass(
    plan: &Plan,
    pool: &[Trajectory],
    snapshot: &Snapshot,
    batch: usize,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> ReplayTrial {
    let mut t = ReplayTrial::default();
    let db: &SimilarityDb = snapshot.shard(0);
    let store: &EmbeddingStore = db.store();
    let grid = snapshot.model().grid();
    let frechet = MeasureKind::Frechet.measure();
    for (b, chunk) in pool.chunks(batch).enumerate() {
        let base = b * batch;
        for (group, spec) in plan.specs.iter().enumerate() {
            let members: Vec<Trajectory> = chunk
                .iter()
                .enumerate()
                .filter(|(off, _)| plan.spec_of(base + off) == *spec)
                .map(|(_, q)| q.clone())
                .collect();
            if members.is_empty() {
                continue;
            }
            // One id per replayed group, apart from the services' request ids.
            let request = REPLAY_IDS + (b * plan.specs.len() + group) as u64;
            t.queries += members.len();
            t.points += members.iter().map(Trajectory::len).sum::<usize>();
            let fetch = match spec.rerank_measure() {
                Some(_) => RERANK_SHORTLIST,
                None => K,
            };

            let root = tr.begin(
                if batch == 1 {
                    "replay.batch1"
                } else {
                    "replay.batch16"
                },
                None,
                request,
            );
            let t_root = Instant::now();
            let layer = |name: &'static str, tr: &mut Tracer, f: &mut dyn FnMut()| -> f64 {
                tr.timed(name, Some(root), request, f).1
            };

            t.validate_s += layer("trajectory.validate", tr, &mut || {
                for q in &members {
                    q.validate().expect("pool trajectories are valid");
                }
            });
            let mut embs = Vec::new();
            t.embed_s += layer("model.embed", tr, &mut || {
                embs = snapshot.model().embed_batch(&members);
            });
            let qrefs: Vec<&[f64]> = embs.iter().map(Vec::as_slice).collect();
            let mut shorts: Vec<Vec<Neighbor>> = Vec::new();
            if let Some(ef) = spec.graph_ef() {
                let graph = db.graph_index().expect("graph workload builds a graph");
                t.walk_s += layer("index.hnsw_walk", tr, &mut || {
                    let (res, stats) = store.knn_graph_batch(&qrefs, fetch, graph, ef);
                    t.evals += stats.candidates_scanned;
                    t.hops += stats.hops;
                    shorts = res;
                });
                t.walk_queries += members.len();
            } else if let Some(nprobe) = spec.ann_nprobe() {
                let ivf = db.ann_index().expect("churn workload builds an IVF index");
                t.probe_s += layer("index.ivf_probe", tr, &mut || {
                    let (res, stats) = store.knn_ann_batch(&qrefs, fetch, ivf, nprobe);
                    t.candidates += stats.candidates_scanned;
                    shorts = res;
                });
                t.probe_queries += members.len();
            } else if spec.is_quantized() {
                let quant = db
                    .quantized_store()
                    .expect("churn workload builds an int8 view");
                t.scan_int8_s += layer("model.scan_int8", tr, &mut || {
                    let (res, stats) = quant.knn_batch(store, &qrefs, fetch);
                    t.scan_int8_rows += stats.rows_scanned;
                    shorts = res;
                });
            } else {
                t.scan_f64_s += layer("model.scan_f64", tr, &mut || {
                    shorts = store.knn_batch(&qrefs, fetch);
                });
                t.scan_f64_rows += members.len() * store.len();
            }
            if spec.rerank_measure().is_some() {
                t.rerank_s += layer("measures.rerank", tr, &mut || {
                    for (short, q) in shorts.iter_mut().zip(&members) {
                        let qs = grid.rescale_trajectory(q);
                        for n in short.iter_mut() {
                            let c = db.get(n.index).expect("shortlisted row exists");
                            n.dist = frechet.dist(qs.points(), grid.rescale_trajectory(c).points());
                        }
                        short.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.index.cmp(&b.index)));
                        short.truncate(K);
                    }
                });
                t.rerank_candidates += members.len() * fetch;
            }
            t.batch_s += t_root.elapsed().as_secs_f64();
            tr.end(root);

            let (via_db, secs) = tr.timed("model.db_search", None, request, || {
                spec.with_query(|q| db.search_batch(&members, q))
            });
            t.db_search_s += secs;
            let (via_snapshot, secs) = tr.timed("serve.snapshot_search", None, request, || {
                snapshot.search_batch(&members, spec, 1)
            });
            t.snapshot_search_s += secs;
            let (via_db, via_snapshot) = (
                via_db.expect("valid batch"),
                via_snapshot.expect("valid batch"),
            );
            // The replay is only a budget if it computes what the
            // service computes.
            tally.check(shorts == via_snapshot && via_db == via_snapshot);
        }
    }
    t
}

fn traced(plan: &Plan, inputs: &Inputs, args: &RunArgs, out: &mut RunResult) {
    let RunResult {
        metrics: m,
        tally,
        tracer: tr,
        workload,
        ..
    } = out;
    let jiffies0 = host::cpu_jiffies();
    let cpus = host::cpus();
    m.set("host.cpus", cpus as f64);
    m.set("host.calib_ms", host::calib_ms());
    let model = model();
    let n = inputs.corpus.len();
    let nf = n as f64;

    // --- Set-up, taken apart: each layer's build call on its own. ---
    let setup = tr.begin("setup", None, 0);
    let (store, secs) = tr.timed("model.corpus_embed", Some(setup), 0, || {
        EmbeddingStore::build(&model, &inputs.corpus, cpus)
    });
    m.set("model.corpus_embed_us_per_row", secs * 1e6 / nf);
    if plan.kind == Kind::Graph {
        let (graph, secs) = tr.timed("index.hnsw_build", Some(setup), 0, || {
            HnswIndex::build(HnswParams::default(), n, cpus, &|a, b| {
                store.row_dist_sq(a, b)
            })
        });
        m.set("index.hnsw_build_s", secs);
        m.set("index.hnsw_build_us_per_row", secs * 1e6 / nf);
        m.set(
            "index.hnsw_bytes_per_row",
            graph.to_bytes().len() as f64 / nf,
        );
    }
    if plan.kind == Kind::MixedChurn {
        let ann = AnnParams::default();
        let params = KMeansParams {
            k: ann.nlists,
            max_iters: ann.train_iters,
            sample: ann.train_sample,
            seed: ann.seed,
        };
        let (kmeans, secs) = tr.timed("cluster.kmeans_fit", Some(setup), 0, || {
            KMeans::fit(store.as_flat(), DIM, &params)
        });
        m.set("cluster.kmeans_fit_s", secs);
        let mut assigned = Vec::new();
        let ((), secs) = tr.timed("cluster.kmeans_assign", Some(setup), 0, || {
            kmeans.assign_batch(store.as_flat(), &mut assigned)
        });
        m.set("cluster.kmeans_assign_ns_per_row", secs * 1e9 / nf);
        let (mut ivf, secs) = tr.timed("index.ivf_build", Some(setup), 0, || {
            IvfIndex::build(kmeans, store.as_flat())
        });
        m.set("index.ivf_build_s", secs);
        let (_, secs) = tr.timed("model.quant_build", Some(setup), 0, || {
            QuantizedStore::from_store(&store)
        });
        m.set("model.quant_build_ns_per_row", secs * 1e9 / nf);
        // IVF insert: assign one new row to its list.
        let rows: Vec<Vec<f64>> = model.embed_batch(&inputs.pool);
        let ((), secs) = tr.timed("index.ivf_insert", Some(setup), 0, || {
            for e in &rows {
                ivf.insert(e);
            }
        });
        m.set(
            "index.ivf_insert_ns_per_row",
            secs * 1e9 / rows.len() as f64,
        );
    }
    drop(store);
    let (snapshot, secs) = tr.timed("serve.snapshot_build", Some(setup), 0, || {
        Snapshot::build(&model, inputs.corpus.clone(), &plan.shard_config())
    });
    let snapshot = snapshot.expect("snapshot over a valid corpus");
    m.set("serve.snapshot_build_s", secs);
    let file = args.out_dir.join(format!("snapshot-{}.bin", workload.name));
    std::fs::create_dir_all(&args.out_dir).expect("create the out directory");
    let (saved, secs) = tr.timed("serve.snapshot_save", Some(setup), 0, || {
        snapshot.save(&file)
    });
    saved.expect("save the snapshot");
    let bytes = std::fs::metadata(&file).map_or(0, |md| md.len());
    m.set("serve.snapshot_save_mb_per_s", bytes as f64 / 1e6 / secs);
    let (loaded, secs) = tr.timed("serve.snapshot_load", Some(setup), 0, || {
        Snapshot::load(&file, cpus)
    });
    let _ = std::fs::remove_file(&file);
    tally.check(loaded.is_ok_and(|s| s.len() == snapshot.len()));
    m.set("serve.snapshot_load_s", secs);
    tr.end(setup);

    // --- The same requests through two services: one plain, one with
    //     the metrics registry and a span per request. ---
    let registry = Registry::new();
    let plain =
        SimilarityService::from_snapshot(snapshot.clone(), &plan.cfg).expect("valid config");
    let metered =
        SimilarityService::from_snapshot_with_metrics(snapshot.clone(), &plan.cfg, &registry)
            .expect("valid config");
    let want = exact_answers(&snapshot, &inputs.pool, K);
    let mut checker = Checker {
        plan,
        exact_want: &want,
        hits: 0,
        possible: 0,
    };
    let mut gen_plain = Generator {
        service: &plain,
        pool: &inputs.pool,
        plan,
        sent: 0,
    };
    let mut gen_metered = Generator {
        service: &metered,
        pool: &inputs.pool,
        plan,
        sent: 0,
    };
    gen_plain.run(WINDOW, POOL, |_, _, _, _| (), |_| ());
    gen_metered.run(WINDOW, POOL, |_, _, _, _| (), |_| ());
    let mut cpu_s = 0.0;
    // Alternating trials, so drift of the host hits both sides alike.
    let pairs = run_trials(args.trials(0.8, 3), args.guard(0.3), |_| {
        let cpu0 = host::process_cpu_s();
        let secs = gen_plain.run(
            WINDOW,
            CLOSED_READS,
            |qi, reply, _, _| checker.check(tally, qi, &reply),
            |_| (),
        );
        cpu_s += host::process_cpu_s() - cpu0;
        let plain_rate = CLOSED_READS as f64 / secs;
        // Replies come back in the order the requests went out.
        let mut id = gen_metered.sent as u64;
        let secs = gen_metered.run(
            WINDOW,
            CLOSED_READS,
            |qi, reply, sent, got| {
                checker.check(tally, qi, &reply);
                tr.record("serve.request", sent, got, id);
                id += 1;
            },
            |_| (),
        );
        (plain_rate, CLOSED_READS as f64 / secs)
    });
    let qps = quiet_rate(&pairs.iter().map(|p| p.0).collect::<Vec<_>>());
    let qps_traced = quiet_rate(&pairs.iter().map(|p| p.1).collect::<Vec<_>>());
    m.set("serve.closed16_qps", qps);
    m.set("obs.trace_overhead_share", 1.0 - qps_traced / qps);
    m.set(
        "serve.cpu_us_per_query",
        cpu_s * 1e6 / (pairs.len() * CLOSED_READS) as f64,
    );
    let batch_size = registry.histogram(obs::SERVE_BATCH_SIZE);
    m.set(
        "serve.batch_size_mean",
        batch_size.sum() / batch_size.count().max(1) as f64,
    );
    m.set(
        "serve.coalesce_p50_us",
        registry
            .histogram(obs::SERVE_COALESCE_SECONDS)
            .quantile(0.5)
            * 1e6,
    );

    let mut all_lone = Vec::new();
    let p50s = run_trials(args.trials(0.8, 3), args.guard(0.15), |_| {
        let mut lat = Vec::with_capacity(LONE_READS);
        let mut id = gen_metered.sent as u64;
        gen_metered.run(
            1,
            LONE_READS,
            |qi, reply, sent, got| {
                checker.check(tally, qi, &reply);
                tr.record("serve.request", sent, got, id);
                id += 1;
                lat.push(got.duration_since(sent).as_secs_f64() * 1e6);
            },
            |_| (),
        );
        all_lone.extend_from_slice(&lat);
        median(&lat)
    });
    let lone_p50 = quiet_time(&p50s);
    m.set("serve.lone_p50_us", lone_p50);
    m.set("serve.lone_p99_us", percentile_of(&all_lone, 0.99));

    open_loop(args, &mut gen_plain, m, tally);

    for (name, counter) in [
        ("serve.shed_total", obs::SERVE_SHED_TOTAL),
        ("serve.degraded_total", obs::SERVE_DEGRADED_TOTAL),
        (
            "serve.deadline_expired_total",
            obs::SERVE_DEADLINE_EXPIRED_TOTAL,
        ),
        (
            "serve.quarantined_total",
            obs::SERVE_SHARD_QUARANTINED_TOTAL,
        ),
    ] {
        let count = registry.counter(counter).get();
        tally.require(count == 0, || format!("{name} = {count}, expected 0"));
        m.set(name, count as f64);
    }
    drop(plain);
    drop(metered);

    // --- The same requests again, on this thread, layer by layer. ---
    let sat = run_trials(args.trials(0.7, 3), args.guard(0.2), |_| {
        replay_pass(plan, &inputs.pool, &snapshot, WINDOW, tr, tally)
    });
    // A lone request is a batch of one.
    let lone = run_trials(args.trials(0.5, 3), args.guard(0.2), |_| {
        replay_pass(plan, &inputs.pool, &snapshot, 1, tr, tally)
    });
    let per =
        |trials: &[ReplayTrial], num: fn(&ReplayTrial) -> f64, den: fn(&ReplayTrial) -> usize| {
            quiet_time(
                &trials
                    .iter()
                    .map(|t| num(t) / den(t).max(1) as f64)
                    .collect::<Vec<_>>(),
            )
        };
    m.set(
        "trajectory.validate_ns_per_point",
        per(&sat, |t| t.validate_s, |t| t.points) * 1e9,
    );
    let embed16 = per(&sat, |t| t.embed_s, |t| t.queries) * 1e6;
    let embed1 = per(&lone, |t| t.embed_s, |t| t.queries) * 1e6;
    m.set("model.embed_us_per_query", embed16);
    m.set("model.embed1_us", embed1);
    if plan.kind != Kind::Graph {
        m.set(
            "model.scan_f64_ns_per_row",
            per(&sat, |t| t.scan_f64_s, |t| t.scan_f64_rows) * 1e9,
        );
    }
    if plan.kind == Kind::Graph {
        let walk = per(&sat, |t| t.walk_s, |t| t.walk_queries);
        let evals = sat[0].evals as f64 / sat[0].walk_queries as f64;
        m.set("index.hnsw_walk_us_per_query", walk * 1e6);
        m.set("index.hnsw_evals_per_query", evals);
        m.set(
            "index.hnsw_hops_per_query",
            sat[0].hops as f64 / sat[0].walk_queries as f64,
        );
        m.set("index.hnsw_ns_per_eval", walk * 1e9 / evals);
        tally.require(
            sat.iter()
                .all(|t| t.evals == sat[0].evals && t.hops == sat[0].hops),
            || "graph evaluation counts differ between identical replay passes".into(),
        );
    }
    if plan.kind == Kind::MixedChurn {
        m.set(
            "model.scan_int8_ns_per_row",
            per(&sat, |t| t.scan_int8_s, |t| t.scan_int8_rows) * 1e9,
        );
        m.set(
            "index.ivf_probe_us_per_query",
            per(&sat, |t| t.probe_s, |t| t.probe_queries) * 1e6,
        );
        m.set(
            "index.ivf_candidates_per_query",
            sat[0].candidates as f64 / sat[0].probe_queries as f64,
        );
        m.set(
            "measures.rerank_us_per_candidate",
            per(&sat, |t| t.rerank_s, |t| t.rerank_candidates) * 1e6,
        );
        churn_write_path(inputs, &snapshot, tr, m);
    }
    let db16 = per(&sat, |t| t.db_search_s, |t| t.queries) * 1e6;
    let layers16 = per(&sat, ReplayTrial::layers_s, |t| t.queries) * 1e6;
    let layers1 = per(&lone, ReplayTrial::layers_s, |t| t.queries) * 1e6;
    m.set("model.db_search_us_per_query", db16);
    m.set("model.db_overhead_us_per_query", db16 - layers16);
    let search16 = per(&sat, |t| t.snapshot_search_s, |t| t.queries) * 1e6;
    let search1 = per(&lone, |t| t.snapshot_search_s, |t| t.queries) * 1e6;
    m.set("serve.snapshot_search_us_per_query", search16);
    m.set("serve.snapshot_search1_us", search1);
    m.set("serve.residual_us", lone_p50 - search1);
    m.set("serve.sat_residual_share", 1.0 - qps * search16 * 1e-6);
    m.set("trace.layers_lone_us", layers1);
    m.set("trace.layers_sat_us_per_query", layers16);

    micro_kernels(&model, inputs, args, m);
    m.set("host.steal_share", host::steal_share(jiffies0));
    m.set("trace.spans_total", tr.len() as f64);

    let glue16 = per(&sat, |t| t.batch_s - t.layers_s(), |t| t.queries) * 1e6;
    let glue1 = per(&lone, |t| t.batch_s - t.layers_s(), |t| t.queries) * 1e6;
    println!("  budget, us per query             lone (B=1)   saturated (B={WINDOW})");
    println!("    sum of layer self times       {layers1:>10.1}   {layers16:>10.1}");
    println!("    replay glue (batch self time) {glue1:>10.1}   {glue16:>10.1}");
    println!("    Snapshot::search_batch        {search1:>10.1}   {search16:>10.1}");
    println!(
        "    through the service           {lone_p50:>10.1}   {:>10.1}   (lone p50; 1e6 / closed16 q/s)",
        1e6 / qps
    );
    println!("  serve.residual_us = {:.1}", lone_p50 - search1);
    println!(
        "  serve.sat_residual_share = {:.4}",
        1.0 - qps * search16 * 1e-6
    );
    println!("  obs.trace_overhead_share = {:.4}", 1.0 - qps_traced / qps);
}

/// Open loop at a fixed 400 requests/s with exponential gaps: latency is
/// counted from the instant a request was due, so a stall delays every
/// request behind it. The generator runs on its own thread and never
/// waits for an answer; this thread collects replies in order. Reported
/// as a diagnostic only: ISSUE 11 measured p50 of 1.26, 1.88 and 2.90 ms
/// in three identical runs on this kind of host.
fn open_loop(args: &RunArgs, gen: &mut Generator<'_>, m: &mut Metrics, tally: &mut Tally) {
    let window_s = if args.smoke { 0.5 } else { args.seconds * 0.2 };
    let count = (OPEN_RATE * window_s).round() as usize;
    let mut arrivals = SplitMix64::stream(args.seed, purpose::ARRIVALS);
    let mut at = 0.0;
    let due: Vec<f64> = (0..count)
        .map(|_| {
            at += arrivals.exp_gap(OPEN_RATE);
            at
        })
        .collect();
    let (tx, rx) = std::sync::mpsc::channel::<(Instant, Instant, Receiver<Reply>)>();
    let start = Instant::now() + Duration::from_millis(5);
    let (mut latency, mut late, mut failed) = (Vec::new(), Vec::new(), 0usize);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for offset in due {
                let due_at = start + Duration::from_secs_f64(offset);
                // Sleep to within 100 us of the due time, then spin: the
                // sleep alone overshoots by about that much here.
                loop {
                    let now = Instant::now();
                    if now >= due_at {
                        break;
                    }
                    let left = due_at - now;
                    if left > Duration::from_micros(150) {
                        std::thread::sleep(left - Duration::from_micros(100));
                    } else {
                        std::hint::spin_loop();
                    }
                }
                let (_, sent, reply) = gen.submit();
                if tx.send((due_at, sent, reply)).is_err() {
                    break;
                }
            }
        });
        for (due_at, sent, reply) in rx {
            match reply.recv().unwrap_or(Err(ServeError::Dropped)) {
                Ok(_) => latency.push(Instant::now().duration_since(due_at).as_secs_f64() * 1e6),
                Err(_) => failed += 1,
            }
            late.push(sent.duration_since(due_at).as_secs_f64() * 1e6);
        }
    });
    tally.attempted += count as u64;
    tally.failed += failed as u64;
    m.set("serve.open400_p50_us", percentile_of(&latency, 0.50));
    m.set("serve.open400_p99_us", percentile_of(&latency, 0.99));
    m.set("serve.open400_late_p99_us", percentile_of(&late, 0.99));
    m.set("serve.open400_failed", failed as f64);
}

/// The write path of the churn workload, one call at a time: insert into
/// a database with IVF and int8 views live, and the copy-on-write
/// rotation of a whole snapshot.
fn churn_write_path(inputs: &Inputs, snapshot: &Snapshot, tr: &mut Tracer, m: &mut Metrics) {
    let reps = inputs.inserts.len() / INSERT_ROWS;
    let batches = || inputs.inserts.chunks_exact(INSERT_ROWS).take(reps);
    let mut db = snapshot.shard(0).clone();
    let insert_s: Vec<f64> = batches()
        .map(|rows| {
            let rows = rows.to_vec();
            tr.timed("model.insert_batch", None, 0, || db.insert_batch(rows, 1))
                .1
        })
        .collect();
    m.set(
        "model.insert_us_per_row",
        quiet_time(&insert_s) * 1e6 / INSERT_ROWS as f64,
    );
    let rotate_s: Vec<f64> = batches()
        .map(|rows| {
            tr.timed("serve.rotate", None, 0, || {
                snapshot.inserted(rows).expect("valid rows")
            })
            .1
        })
        .collect();
    m.set("serve.rotate_ms", quiet_time(&rotate_s) * 1e3);
}

/// Kernels under the layers: the two GEMM shapes and the frozen SAM
/// forward in lockstep batches of 16.
fn micro_kernels(model: &NeuTrajModel, inputs: &Inputs, args: &RunArgs, m: &mut Metrics) {
    let trials = if args.smoke { 3 } else { 9 };
    let (nt, nn) = gemm_gflops(trials);
    m.set("nn.gemm_nt_gflops", nt);
    m.set("nn.gemm_nn_gflops", nn);
    let seqs: Vec<_> = inputs.pool.iter().map(|t| model.seq_inputs(t)).collect();
    let points: usize = inputs.pool.iter().map(Trajectory::len).sum();
    let mut ws = Workspace::new();
    let secs: Vec<f64> = (0..trials)
        .map(|_| {
            timed(|| {
                for chunk in seqs.chunks(WINDOW) {
                    let refs: Vec<_> = chunk.iter().collect();
                    std::hint::black_box(model.backbone().embed_batch_frozen(&refs, &mut ws));
                }
            })
            .1
        })
        .collect();
    m.set(
        "nn.sam_fwd_ns_per_point",
        quiet_time(&secs) * 1e9 / points as f64,
    );
}
