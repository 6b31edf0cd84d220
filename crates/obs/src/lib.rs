//! # neutraj-obs
//!
//! A dependency-free metrics-and-tracing substrate for the NeuTraj-RS
//! serving and training stack.
//!
//! Design constraints (see `DESIGN.md`, "Observability"):
//!
//! * **Global-free.** There is no process-wide default registry. A
//!   [`Registry`] is created by the application, handed to components by
//!   cheap clone ([`Registry`] is an `Arc` handle), and snapshotted
//!   wherever the application wants to export. Components that receive no
//!   registry record nothing — instrumentation is an `Option` branch, not
//!   a lock.
//! * **Hot-path safe.** Every instrument is a small set of atomics.
//!   [`Counter::inc`] is one relaxed `fetch_add`; [`Histogram::observe`]
//!   is a bucket index computation (a few integer ops on the value's bit
//!   pattern) plus four atomic updates. No allocation, no locking, no
//!   syscalls after creation.
//! * **Exact totals.** Counts and bucket tallies are integer atomics, so
//!   concurrent recording is lossless (see `tests/concurrency.rs`).
//!
//! Instruments are named `neutraj_<layer>_<metric>` by convention
//! (`neutraj_db_scan_seconds`, `neutraj_train_loss`, …) so exported
//! snapshots group naturally per subsystem.
//!
//! ```
//! use neutraj_obs::Registry;
//!
//! let registry = Registry::new();
//! let queries = registry.counter("neutraj_db_queries_total");
//! let latency = registry.histogram("neutraj_db_scan_seconds");
//! {
//!     let _span = latency.start_timer(); // records on drop
//!     queries.inc();
//! }
//! let report = registry.snapshot();
//! assert!(report.to_json().contains("neutraj_db_queries_total"));
//! assert!(report.to_prometheus().contains("quantile=\"0.95\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod simd;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

/// A monotone event counter. Clones share the same underlying atomic, so a
/// counter handle can be resolved once and cached in a hot loop.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh counter at zero (unregistered; usually obtained via
    /// [`Registry::counter`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

/// A last-write-wins scalar (corpus size, most recent epoch loss, …).
/// Stores `f64` bits in an atomic, so reads and writes are lock-free.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Self(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl Gauge {
    /// A fresh gauge at `0.0` (usually obtained via [`Registry::gauge`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Mantissa bits kept per bucket: 2^3 = 8 linear sub-buckets per octave,
/// bounding the relative quantile error at one sub-bucket width (12.5% of
/// the bucket's lower bound) before clamping to the observed min/max.
const SUB_BITS: u32 = 3;
/// Smallest resolvable value: `2^MIN_EXP` (≈ 0.93 ns when observing
/// seconds). Anything smaller lands in the catch-all bucket 0.
const MIN_EXP: i32 = -30;
/// Everything at or above `2^(MAX_EXP + 1)` (≈ 68 years in seconds) lands
/// in the last bucket.
const MAX_EXP: i32 = 30;
/// Bucket key of `2^MIN_EXP` in the shifted-bits encoding.
const BASE_KEY: u64 = ((1023 + MIN_EXP) as u64) << SUB_BITS;
/// Total bucket count (61 octaves × 8 sub-buckets).
const NUM_BUCKETS: usize = ((MAX_EXP - MIN_EXP) as usize + 1) << SUB_BITS;

#[derive(Debug)]
struct HistInner {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Running sum as `f64` bits, maintained by CAS.
    sum_bits: AtomicU64,
    /// Smallest observed value as `f64` bits (monotone for non-negative
    /// floats, so `fetch_min` on the bits is exact).
    min_bits: AtomicU64,
    /// Largest observed value as `f64` bits.
    max_bits: AtomicU64,
}

/// A log-bucketed histogram of non-negative values (latencies in seconds,
/// batch sizes, …) supporting exact counts/sums and bounded-error
/// quantiles.
///
/// Values are bucketed by exponent plus the top `SUB_BITS` (3) mantissa bits
/// of their `f64` representation — a monotone, branch-light mapping with 8
/// sub-buckets per power of two. Quantiles report the selected bucket's
/// upper bound clamped into the observed `[min, max]`, so the relative
/// error is at most 12.5% and a constant stream reports its exact value.
///
/// Negative and NaN observations are clamped to `0.0` (they land in the
/// catch-all bucket 0 and contribute `0.0` to the sum).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistInner>);

impl Default for Histogram {
    fn default() -> Self {
        Self(Arc::new(HistInner {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(0f64.to_bits()),
        }))
    }
}

impl Histogram {
    /// A fresh, empty histogram (usually obtained via
    /// [`Registry::histogram`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index a value falls into. Exposed for bucket-boundary
    /// tests and for exporters that want raw buckets.
    pub fn bucket_index(v: f64) -> usize {
        if v.is_nan() || v <= 0.0 {
            return 0;
        }
        let key = v.to_bits() >> (52 - SUB_BITS);
        if key < BASE_KEY {
            0
        } else {
            ((key - BASE_KEY) as usize).min(NUM_BUCKETS - 1)
        }
    }

    /// Inclusive lower bound of bucket `i` for `i >= 1`. Bucket 0 is the
    /// catch-all `[0, bucket_lower(1))`; the last bucket is unbounded
    /// above. Panics when `i >= NUM_BUCKETS` (it is a test/export helper,
    /// not a hot-path API).
    pub fn bucket_lower(i: usize) -> f64 {
        assert!(i < NUM_BUCKETS, "bucket index out of range");
        f64::from_bits((BASE_KEY + i as u64) << (52 - SUB_BITS))
    }

    /// Number of buckets in the fixed layout.
    pub const fn num_buckets() -> usize {
        NUM_BUCKETS
    }

    /// Records one value.
    #[inline]
    pub fn observe(&self, v: f64) {
        let v = if v > 0.0 { v } else { 0.0 };
        let inner = &*self.0;
        inner.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        // Non-negative f64 bit patterns are order-isomorphic to their
        // values, so integer min/max on the bits is value min/max.
        let bits = v.to_bits();
        inner.min_bits.fetch_min(bits, Ordering::Relaxed);
        inner.max_bits.fetch_max(bits, Ordering::Relaxed);
        let mut cur = inner.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match inner.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Starts an RAII span: the elapsed wall-clock seconds are recorded
    /// when the returned [`SpanTimer`] drops.
    pub fn start_timer(&self) -> SpanTimer {
        SpanTimer {
            hist: self.clone(),
            start: Instant::now(),
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// Smallest recorded value (`0.0` when empty).
    pub fn min(&self) -> f64 {
        if self.count() == 0 {
            0.0
        } else {
            f64::from_bits(self.0.min_bits.load(Ordering::Relaxed))
        }
    }

    /// Largest recorded value (`0.0` when empty).
    pub fn max(&self) -> f64 {
        f64::from_bits(self.0.max_bits.load(Ordering::Relaxed))
    }

    /// The `q`-quantile (`0.0 <= q <= 1.0`) of the recorded values: the
    /// upper bound of the bucket containing the target rank, clamped into
    /// the observed `[min, max]`. Returns `0.0` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cum = 0u64;
        let mut bucket = NUM_BUCKETS - 1;
        for (i, b) in self.0.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= target {
                bucket = i;
                break;
            }
        }
        let raw = if bucket + 1 < NUM_BUCKETS {
            Self::bucket_lower(bucket + 1)
        } else {
            self.max()
        };
        raw.clamp(self.min(), self.max())
    }

    /// Full summary of the current contents.
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.to_string(),
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// RAII timer: records the elapsed seconds into its histogram on drop.
/// Obtain via [`Histogram::start_timer`]; bind to `_span` (not `_`, which
/// drops immediately).
#[derive(Debug)]
pub struct SpanTimer {
    hist: Histogram,
    start: Instant,
}

impl SpanTimer {
    /// Stops the span now, recording the elapsed time (equivalent to
    /// dropping it, but reads better at explicit stage boundaries).
    pub fn stop(self) {}
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        self.hist.observe(self.start.elapsed().as_secs_f64());
    }
}

// ---------------------------------------------------------------------------
// Well-known instrument names
// ---------------------------------------------------------------------------

/// The canonical instrument names recorded by the NeuTraj-RS stack, so
/// producers (trainer, serving db, checkpoint machinery) and consumers
/// (dashboards, tests) agree on spelling. Following the
/// `neutraj_<layer>_<metric>` convention.
pub mod names {
    /// Counter: completed training epochs.
    pub const TRAIN_EPOCHS_TOTAL: &str = "neutraj_train_epochs_total";
    /// Counter: training pairs consumed.
    pub const TRAIN_PAIRS_TOTAL: &str = "neutraj_train_pairs_total";
    /// Gauge: most recent epoch loss.
    pub const TRAIN_LOSS: &str = "neutraj_train_loss";
    /// Histogram: wall-clock seconds per epoch.
    pub const TRAIN_EPOCH_SECONDS: &str = "neutraj_train_epoch_seconds";
    /// Histogram: seconds of one batch's training forward (all rounds,
    /// both SAM phases).
    pub const TRAIN_FORWARD_SECONDS: &str = "neutraj_train_forward_seconds";
    /// Histogram: seconds of one batch's BPTT (all groups, merge
    /// included).
    pub const TRAIN_BACKWARD_SECONDS: &str = "neutraj_train_backward_seconds";
    /// Gauge: bytes of the BPTT tape the most recent batch recorded in
    /// the backbone's own storage (the SAM backbone; 0 otherwise).
    pub const TRAIN_TAPE_BYTES: &str = "neutraj_train_tape_bytes";
    /// Counter: Adam optimizer steps.
    pub const ADAM_STEPS_TOTAL: &str = "neutraj_nn_adam_steps_total";
    /// Histogram: SAM two-phase protocol, phase A (parallel forwards).
    pub const SAM_PHASE_A_SECONDS: &str = "neutraj_train_sam_phase_a_seconds";
    /// Histogram: SAM two-phase protocol, phase B (ordered commit).
    pub const SAM_PHASE_B_SECONDS: &str = "neutraj_train_sam_phase_b_seconds";

    /// Counter: checkpoint files written.
    pub const CKPT_WRITES_TOTAL: &str = "neutraj_ckpt_writes_total";
    /// Counter: successful checkpoint restores (resume).
    pub const CKPT_RESTORES_TOTAL: &str = "neutraj_ckpt_restores_total";
    /// Counter: corrupted/unreadable checkpoints detected during resume.
    pub const CKPT_CORRUPTION_TOTAL: &str = "neutraj_ckpt_corruption_total";
    /// Counter: resumes that fell back past a damaged newest checkpoint.
    pub const CKPT_FALLBACK_TOTAL: &str = "neutraj_ckpt_fallback_total";
    /// Histogram: seconds spent writing one checkpoint.
    pub const CKPT_WRITE_SECONDS: &str = "neutraj_ckpt_write_seconds";

    /// Histogram: serving-path query embedding seconds.
    pub const DB_EMBED_SECONDS: &str = "neutraj_db_embed_seconds";
    /// Histogram: serving-path norm-trick scan seconds.
    pub const DB_SCAN_SECONDS: &str = "neutraj_db_scan_seconds";
    /// Histogram: serving-path exact re-rank seconds.
    pub const DB_RERANK_SECONDS: &str = "neutraj_db_rerank_seconds";
    /// Counter: queries answered.
    pub const DB_QUERIES_TOTAL: &str = "neutraj_db_queries_total";
    /// Counter: shortlist candidates produced.
    pub const DB_CANDIDATES_TOTAL: &str = "neutraj_db_candidates_total";
    /// Gauge: stored corpus size.
    pub const DB_CORPUS_SIZE: &str = "neutraj_db_corpus_size";
    /// Counter: inserts/queries rejected by input validation (empty or
    /// non-finite trajectories) before they could poison the store.
    pub const DB_REJECTS_TOTAL: &str = "neutraj_db_rejects_total";

    /// Counter: IVF inverted lists probed by ANN shortlist queries.
    pub const ANN_LISTS_PROBED_TOTAL: &str = "neutraj_ann_lists_probed_total";
    /// Counter: candidate rows exactly scored after IVF probing.
    pub const ANN_CANDIDATES_SCANNED_TOTAL: &str = "neutraj_ann_candidates_scanned_total";
    /// Histogram: per-query rerank depth (candidates scored / corpus
    /// size) — how sub-linear the shortlist actually was.
    pub const ANN_RERANK_DEPTH: &str = "neutraj_ann_rerank_depth";
    /// Gauge: most recent recall@k of the IVF shortlist against the
    /// exhaustive scan (`bench_query` writes it; serving never does).
    pub const ANN_RECALL_AT_K: &str = "neutraj_ann_recall_at_k";

    /// Counter: HNSW graph nodes expanded by graph-shortlist queries.
    pub const GRAPH_HOPS_TOTAL: &str = "neutraj_graph_hops_total";
    /// Counter: distance evaluations performed by graph beam searches.
    pub const GRAPH_CANDIDATES_SCANNED_TOTAL: &str = "neutraj_graph_candidates_scanned_total";
    /// Counter: adjacency entries read (visited-array probes) by graph
    /// beam searches — the walk's bookkeeping beside its distances.
    pub const GRAPH_LINKS_SCANNED_TOTAL: &str = "neutraj_graph_links_scanned_total";
    /// Histogram: the effective beam width (`ef`) of served graph
    /// queries after the fetch-depth floor.
    pub const GRAPH_EF: &str = "neutraj_graph_ef";
    /// Histogram: per-query graph rerank depth (candidates scored /
    /// corpus size) — how sub-linear the graph shortlist actually was.
    pub const GRAPH_RERANK_DEPTH: &str = "neutraj_graph_rerank_depth";
    /// Gauge: most recent recall@k of the graph shortlist + exact
    /// rerank against the exhaustive scan (`bench_query` writes it;
    /// serving never does).
    pub const GRAPH_RECALL_AT_K: &str = "neutraj_graph_recall_at_k";

    /// Gauge: the SIMD dispatch level the process resolved at startup
    /// (`0` scalar, `1` avx2, `2` avx512 — see [`crate::simd::SimdLevel`]).
    /// Written by [`crate::simd::publish`] wherever a vectorized workload
    /// is instrumented, so exported snapshots say which path actually ran.
    pub const SIMD_DISPATCH: &str = "neutraj_simd_dispatch";

    /// Counter: bytes the exact scan streamed through the int8 codes, once
    /// per batch (codes plus the four f64 per-row constants, `dim + 32` a
    /// row at a `dim` that is a multiple of four). Compare against
    /// `dim × 8 + 8` bytes a row for a pass over the f64 rows to see the
    /// realized bandwidth saving.
    pub const QUANT_BYTES_SCANNED_TOTAL: &str = "neutraj_quant_bytes_scanned_total";
    /// Counter: rows the exact scan bounded through their int8 codes (the
    /// corpus once per query).
    pub const QUANT_ROWS_SCANNED_TOTAL: &str = "neutraj_quant_rows_scanned_total";
    /// Histogram: rows an exact top-k query scored in f64 after the int8
    /// lower bound let them through, per query of a batch (summed over
    /// shards). A model whose distances bunch
    /// up shows here before it shows as latency.
    pub const EXACT_BOUND_SURVIVORS: &str = "neutraj_exact_bound_survivors";

    /// Counter: candidate pairs considered by the exact ground-truth
    /// engine (matrix cells, knn candidates, eval rows).
    pub const MEASURES_PAIRS_TOTAL: &str = "neutraj_measures_pairs_total";
    /// Counter: pairs discarded by the lower-bound cascade before any DP
    /// cell was computed.
    pub const MEASURES_LB_PRUNED_TOTAL: &str = "neutraj_measures_lb_pruned_total";
    /// Counter: directed Hausdorff scans abandoned mid-flight once their
    /// partial max exceeded a knn query's running k-th best distance (the
    /// DP measures score every pair they do not prune to the end).
    pub const MEASURES_EA_ABANDONED_TOTAL: &str = "neutraj_measures_ea_abandoned_total";
    /// Counter: DP cells (or Hausdorff point probes) actually computed.
    pub const MEASURES_DP_CELLS_TOTAL: &str = "neutraj_measures_dp_cells_total";
    /// Histogram: wall-clock seconds per distance-matrix build.
    pub const MEASURES_MATRIX_SECONDS: &str = "neutraj_measures_matrix_seconds";
    /// Histogram: wall-clock seconds per knn-list batch.
    pub const MEASURES_KNN_SECONDS: &str = "neutraj_measures_knn_seconds";
    /// Derived gauge (computed at snapshot time, never registered):
    /// `measures_lb_pruned_total / measures_pairs_total`.
    pub const MEASURES_PRUNE_RATE: &str = "neutraj_measures_prune_rate";

    /// Counter: requests accepted by the async similarity service
    /// (rejected requests count into [`DB_REJECTS_TOTAL`] instead).
    pub const SERVE_REQUESTS_TOTAL: &str = "neutraj_serve_requests_total";
    /// Counter: micro-batches dispatched by the coalescing scheduler
    /// (one per lockstep embed + scan, so
    /// `requests_total / batches_total` is the mean realized batch size).
    pub const SERVE_BATCHES_TOTAL: &str = "neutraj_serve_batches_total";
    /// Histogram: requests coalesced into each dispatched micro-batch.
    pub const SERVE_BATCH_SIZE: &str = "neutraj_serve_batch_size";
    /// Gauge: requests waiting in the coalescing queue, sampled at each
    /// dispatch (the scheduler's backlog signal).
    pub const SERVE_QUEUE_DEPTH: &str = "neutraj_serve_queue_depth";
    /// Histogram: seconds a request waited in the coalescing queue
    /// before its batch dispatched — the latency the deadline knob
    /// trades for batching throughput.
    pub const SERVE_COALESCE_SECONDS: &str = "neutraj_serve_coalesce_seconds";
    /// Histogram: seconds from enqueue to response send (queueing +
    /// embed + scan + merge + rerank) per served request.
    pub const SERVE_REQUEST_SECONDS: &str = "neutraj_serve_request_seconds";
    /// Gauge: epoch of the snapshot currently served (bumped once per
    /// writer swap; readers holding the old `Arc` drain undisturbed).
    pub const SERVE_SNAPSHOT_EPOCH: &str = "neutraj_serve_snapshot_epoch";
    /// Histogram: seconds per published insert call (`insert` or
    /// `insert_batch`) as its caller saw it — the wait for the writer
    /// lock, the copy-on-write build of the next snapshot and the swap.
    /// A rejected call records nothing here (see [`DB_REJECTS_TOTAL`]).
    pub const SERVE_INSERT_SECONDS: &str = "neutraj_serve_insert_seconds";
    /// Counter: rows appended by published insert calls, so
    /// `insert_seconds.sum / insert_rows_total` is the served cost of a
    /// new row.
    pub const SERVE_INSERT_ROWS_TOTAL: &str = "neutraj_serve_insert_rows_total";
    /// Counter: requests shed by the overload ladder — bounded-admission
    /// rejections when the queue is full, plus queued lower-priority work
    /// evicted to make room for higher-priority arrivals. Every shed is
    /// answered with a typed `Overloaded` error carrying a retry hint,
    /// never dropped silently.
    pub const SERVE_SHED_TOTAL: &str = "neutraj_serve_shed_total";
    /// Counter: requests whose deadline expired before an answer was
    /// produced — purged at dequeue without burning a scan, or detected
    /// by the between-shard cancellation checks mid-scan. Each is
    /// answered with a typed `DeadlineExceeded` error.
    pub const SERVE_DEADLINE_EXPIRED_TOTAL: &str = "neutraj_serve_deadline_expired_total";
    /// Counter: requests answered in degraded mode — the pressure ladder
    /// downgraded an exact-scan spec to the IVF shortlist, or the
    /// capability ladder a graph spec to it. Responses are tagged
    /// `degraded: true`.
    pub const SERVE_DEGRADED_TOTAL: &str = "neutraj_serve_degraded_total";
    /// Counter: shard quarantine events — a shard scanner panicked, was
    /// isolated by `catch_unwind`, and entered exponential-backoff
    /// quarantine while the service kept answering from healthy shards
    /// (responses tagged `partial: true`).
    pub const SERVE_SHARD_QUARANTINED_TOTAL: &str = "neutraj_serve_shard_quarantined_total";
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A named collection of instruments, shared by cheap clone.
///
/// The registry is only locked at instrument resolution and snapshot time;
/// components resolve their instruments once (at construction) and record
/// through the returned lock-free handles.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    metrics: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves (or creates) the counter `name`. Panics when `name` is
    /// already registered as a different instrument kind — metric names
    /// are programming inputs, not runtime data.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.metrics.lock().expect("obs registry poisoned");
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name} is not a counter"),
        }
    }

    /// Resolves (or creates) the gauge `name`. Panics on kind mismatch.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.metrics.lock().expect("obs registry poisoned");
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name} is not a gauge"),
        }
    }

    /// Resolves (or creates) the histogram `name`. Panics on kind
    /// mismatch.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut m = self.metrics.lock().expect("obs registry poisoned");
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new()))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name} is not a histogram"),
        }
    }

    /// Number of registered instruments.
    pub fn len(&self) -> usize {
        self.metrics.lock().expect("obs registry poisoned").len()
    }

    /// Returns `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time copy of every instrument, sorted by name, plus the
    /// derived gauges of [`MetricsReport::add_derived_gauges`].
    pub fn snapshot(&self) -> MetricsReport {
        let m = self.metrics.lock().expect("obs registry poisoned");
        let mut report = MetricsReport::default();
        for (name, metric) in m.iter() {
            match metric {
                Metric::Counter(c) => report.counters.push((name.clone(), c.get())),
                Metric::Gauge(g) => report.gauges.push((name.clone(), g.get())),
                Metric::Histogram(h) => report.histograms.push(h.snapshot(name)),
            }
        }
        report.add_derived_gauges();
        report
    }
}

// ---------------------------------------------------------------------------
// Snapshots & serialization
// ---------------------------------------------------------------------------

/// Point-in-time summary of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Instrument name.
    pub name: String,
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: f64,
    /// Smallest recorded value (`0.0` when empty).
    pub min: f64,
    /// Largest recorded value (`0.0` when empty).
    pub max: f64,
    /// Median estimate.
    pub p50: f64,
    /// 95th-percentile estimate.
    pub p95: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
}

/// A point-in-time copy of a [`Registry`], serializable to JSON and to the
/// Prometheus text exposition format.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsReport {
    /// `(name, value)` per counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// One summary per histogram, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

/// Formats an `f64` as a JSON value (`null` for non-finite values, which
/// JSON numbers cannot represent).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl MetricsReport {
    /// Returns `true` when the report carries no instruments at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Appends gauges derived from counter ratios — today only
    /// [`names::MEASURES_PRUNE_RATE`] (`lb_pruned / pairs` of the exact
    /// ground-truth engine). Derived gauges exist only in snapshots; they
    /// are never registered, so producers cannot write them and repeated
    /// snapshots stay idempotent. No-op when the source counters are
    /// absent, when no pair was recorded, or when the name is already
    /// taken by a real gauge.
    pub fn add_derived_gauges(&mut self) {
        let counter = |name: &str| {
            self.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
        };
        let (Some(pairs), Some(pruned)) = (
            counter(names::MEASURES_PAIRS_TOTAL),
            counter(names::MEASURES_LB_PRUNED_TOTAL),
        ) else {
            return;
        };
        if pairs == 0 {
            return;
        }
        let name = names::MEASURES_PRUNE_RATE;
        match self.gauges.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(_) => {}
            Err(pos) => self
                .gauges
                .insert(pos, (name.to_string(), pruned as f64 / pairs as f64)),
        }
    }

    /// Renders the report as a self-contained JSON object:
    /// `{"counters": {..}, "gauges": {..}, "histograms": {name: {count,
    /// sum, min, max, p50, p95, p99}}}`.
    pub fn to_json(&self) -> String {
        self.to_json_indented(0)
    }

    /// [`Self::to_json`] with every line indented by `indent` spaces —
    /// for embedding the object inside a larger hand-rolled JSON document
    /// (the `BENCH_*.json` files).
    pub fn to_json_indented(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let counters = self
            .counters
            .iter()
            .map(|(n, v)| format!("{pad}    \"{n}\": {v}"))
            .collect::<Vec<_>>()
            .join(",\n");
        let gauges = self
            .gauges
            .iter()
            .map(|(n, v)| format!("{pad}    \"{n}\": {}", json_num(*v)))
            .collect::<Vec<_>>()
            .join(",\n");
        let hists = self
            .histograms
            .iter()
            .map(|h| {
                format!(
                    "{pad}    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                    h.name,
                    h.count,
                    json_num(h.sum),
                    json_num(h.min),
                    json_num(h.max),
                    json_num(h.p50),
                    json_num(h.p95),
                    json_num(h.p99),
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        let section = |body: String| {
            if body.is_empty() {
                String::new()
            } else {
                format!("\n{body}\n{pad}  ")
            }
        };
        format!(
            "{{\n{pad}  \"counters\": {{{}}},\n{pad}  \"gauges\": {{{}}},\n{pad}  \"histograms\": {{{}}}\n{pad}}}",
            section(counters),
            section(gauges),
            section(hists),
        )
    }

    /// Renders the report in the Prometheus text exposition format:
    /// counters and gauges verbatim, histograms as summaries with
    /// `quantile` labels plus `_sum` / `_count` series.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        }
        for h in &self.histograms {
            out.push_str(&format!("# TYPE {} summary\n", h.name));
            for (q, v) in [("0.5", h.p50), ("0.95", h.p95), ("0.99", h.p99)] {
                out.push_str(&format!("{}{{quantile=\"{q}\"}} {v}\n", h.name));
            }
            out.push_str(&format!("{}_sum {}\n", h.name, h.sum));
            out.push_str(&format!("{}_count {}\n", h.name, h.count));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let c2 = c.clone();
        c2.inc();
        assert_eq!(c.get(), 6, "clones share the atomic");

        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(-2.5);
        assert_eq!(g.get(), -2.5);
    }

    #[test]
    fn bucket_boundaries_are_exact() {
        // Power-of-two boundaries: 1.0 starts a bucket.
        let b1 = Histogram::bucket_index(1.0);
        assert_eq!(Histogram::bucket_lower(b1), 1.0);
        // The value just below a boundary lands one bucket lower.
        let below = f64::from_bits(1.0f64.to_bits() - 1);
        assert_eq!(Histogram::bucket_index(below), b1 - 1);
        // Sub-bucket boundaries: 8 linear sub-buckets per octave, so
        // 1.125 = 1 + 1/8 starts the next bucket after 1.0's.
        assert_eq!(Histogram::bucket_index(1.125), b1 + 1);
        assert_eq!(Histogram::bucket_lower(b1 + 1), 1.125);
        assert_eq!(Histogram::bucket_index(1.1249), b1);
        // One octave spans exactly 8 buckets.
        assert_eq!(Histogram::bucket_index(2.0), b1 + 8);
        // Everything within [lower(i), lower(i+1)) maps back to i.
        for i in [1usize, 7, 8, 100, Histogram::num_buckets() - 2] {
            let lo = Histogram::bucket_lower(i);
            assert_eq!(Histogram::bucket_index(lo), i, "lower bound of {i}");
            let hi = f64::from_bits(Histogram::bucket_lower(i + 1).to_bits() - 1);
            assert_eq!(Histogram::bucket_index(hi), i, "upper edge of {i}");
        }
    }

    #[test]
    fn bucket_extremes_clamp() {
        assert_eq!(Histogram::bucket_index(0.0), 0);
        assert_eq!(Histogram::bucket_index(-3.0), 0);
        assert_eq!(Histogram::bucket_index(f64::NAN), 0);
        assert_eq!(Histogram::bucket_index(1e-300), 0, "below 2^-30");
        assert_eq!(
            Histogram::bucket_index(f64::INFINITY),
            Histogram::num_buckets() - 1
        );
        assert_eq!(
            Histogram::bucket_index(1e300),
            Histogram::num_buckets() - 1,
            "above 2^31"
        );
    }

    #[test]
    fn histogram_summary_statistics() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0.0, "empty histogram");
        for _ in 0..100 {
            h.observe(0.010);
        }
        assert_eq!(h.count(), 100);
        assert!((h.sum() - 1.0).abs() < 1e-12);
        assert_eq!(h.min(), 0.010);
        assert_eq!(h.max(), 0.010);
        // Constant stream: clamping to [min, max] recovers the value.
        assert_eq!(h.quantile(0.5), 0.010);
        assert_eq!(h.quantile(0.99), 0.010);
    }

    #[test]
    fn quantiles_are_order_correct_with_bounded_error() {
        let h = Histogram::new();
        // 90 fast observations, 10 slow ones.
        for _ in 0..90 {
            h.observe(0.001);
        }
        for _ in 0..10 {
            h.observe(1.0);
        }
        let p50 = h.quantile(0.50);
        let p95 = h.quantile(0.95);
        assert!(
            (0.001..=0.001 * 1.125 + 1e-12).contains(&p50),
            "p50 = {p50}"
        );
        assert!((0.9..=1.0).contains(&p95), "p95 = {p95}");
        assert!(h.quantile(0.0) >= h.min());
        assert!(h.quantile(1.0) <= h.max());
    }

    #[test]
    fn negative_and_nan_observations_clamp_to_zero() {
        let h = Histogram::new();
        h.observe(-5.0);
        h.observe(f64::NAN);
        h.observe(2.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 2.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 2.0);
    }

    #[test]
    fn span_timer_records_on_drop() {
        let h = Histogram::new();
        {
            let _span = h.start_timer();
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(h.count(), 1);
        assert!(h.sum() >= 0.002, "recorded {}", h.sum());
        h.start_timer().stop();
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn registry_resolves_shared_instruments() {
        let r = Registry::new();
        assert!(r.is_empty());
        let a = r.counter("neutraj_test_total");
        let b = r.counter("neutraj_test_total");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "same name resolves to the same counter");
        r.gauge("neutraj_test_gauge").set(7.0);
        r.histogram("neutraj_test_seconds").observe(0.5);
        assert_eq!(r.len(), 3);

        let report = r.snapshot();
        assert_eq!(report.counters, vec![("neutraj_test_total".to_string(), 2)]);
        assert_eq!(report.gauges, vec![("neutraj_test_gauge".to_string(), 7.0)]);
        assert_eq!(report.histograms.len(), 1);
        assert_eq!(report.histograms[0].count, 1);
        assert!(!report.is_empty());
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn registry_rejects_kind_mismatch() {
        let r = Registry::new();
        r.gauge("neutraj_test_x");
        r.counter("neutraj_test_x");
    }

    #[test]
    fn prune_rate_gauge_is_derived_at_snapshot_time() {
        let r = Registry::new();
        // No measures counters yet: no derived gauge.
        r.counter("neutraj_db_queries_total").inc();
        assert!(!r
            .snapshot()
            .gauges
            .iter()
            .any(|(n, _)| n == names::MEASURES_PRUNE_RATE));

        // Counters present but zero pairs: still absent (no 0/0 noise).
        let pairs = r.counter(names::MEASURES_PAIRS_TOTAL);
        let pruned = r.counter(names::MEASURES_LB_PRUNED_TOTAL);
        assert!(!r
            .snapshot()
            .gauges
            .iter()
            .any(|(n, _)| n == names::MEASURES_PRUNE_RATE));

        pairs.add(200);
        pruned.add(150);
        let report = r.snapshot();
        let rate = report
            .gauges
            .iter()
            .find(|(n, _)| n == names::MEASURES_PRUNE_RATE)
            .map(|&(_, v)| v)
            .expect("derived gauge present");
        assert_eq!(rate, 0.75);
        // Gauges stay name-sorted so JSON/Prometheus output is stable.
        let mut sorted = report.gauges.clone();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(report.gauges, sorted);
        // Rendered in both export formats.
        assert!(report
            .to_json()
            .contains("\"neutraj_measures_prune_rate\": 0.75"));
        assert!(report
            .to_prometheus()
            .contains("# TYPE neutraj_measures_prune_rate gauge"));
        // The derived name is snapshot-only: a registry that *does* carry
        // a real gauge under the name keeps its value untouched.
        let r2 = Registry::new();
        r2.counter(names::MEASURES_PAIRS_TOTAL).add(10);
        r2.counter(names::MEASURES_LB_PRUNED_TOTAL).add(1);
        r2.gauge(names::MEASURES_PRUNE_RATE).set(0.5);
        let report2 = r2.snapshot();
        let vals: Vec<f64> = report2
            .gauges
            .iter()
            .filter(|(n, _)| n == names::MEASURES_PRUNE_RATE)
            .map(|&(_, v)| v)
            .collect();
        assert_eq!(vals, vec![0.5], "real gauge wins, no duplicate");
    }

    #[test]
    fn json_and_prometheus_render() {
        let r = Registry::new();
        r.counter("neutraj_db_queries_total").add(3);
        r.gauge("neutraj_db_corpus_size").set(100.0);
        let h = r.histogram("neutraj_db_scan_seconds");
        h.observe(0.25);
        h.observe(0.25);
        let report = r.snapshot();

        let json = report.to_json();
        assert!(json.contains("\"neutraj_db_queries_total\": 3"), "{json}");
        assert!(json.contains("\"neutraj_db_corpus_size\": 100"), "{json}");
        assert!(json.contains("\"p95\": 0.25"), "{json}");
        assert!(json.contains("\"count\": 2"), "{json}");

        let prom = report.to_prometheus();
        assert!(prom.contains("# TYPE neutraj_db_queries_total counter"));
        assert!(prom.contains("neutraj_db_queries_total 3"));
        assert!(prom.contains("# TYPE neutraj_db_corpus_size gauge"));
        assert!(prom.contains("# TYPE neutraj_db_scan_seconds summary"));
        assert!(prom.contains("neutraj_db_scan_seconds{quantile=\"0.5\"} 0.25"));
        assert!(prom.contains("neutraj_db_scan_seconds_count 2"));

        // Empty report still renders valid, empty sections.
        let empty = MetricsReport::default().to_json();
        assert!(empty.contains("\"counters\": {}"), "{empty}");
    }
}
