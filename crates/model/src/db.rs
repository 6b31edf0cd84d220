//! A high-level similarity database: one trained model + a growing corpus
//! with precomputed embeddings.
//!
//! This is the deployment-shaped API (§VI-A: "for a trajectory database,
//! the trajectories embeddings only need to be computed once; when new
//! trajectory similarity query is conducted, we generate the embedding of
//! the new trajectory and perform search based on the distance of
//! embeddings").
//!
//! Queries go through one front door: [`SimilarityDb::search`] /
//! [`SimilarityDb::search_batch`] take a [`QueryTarget`] (ad-hoc
//! trajectory, raw embedding, or stored index) plus a [`Query`] describing
//! `k`, the shortlist width, and optional exact re-ranking. The historical
//! `knn*` methods survive as one-line forwards. When instrumented via
//! [`SimilarityDb::instrument`], every query records per-stage latencies
//! (embed / scan / re-rank) and counters into a
//! [`Registry`](neutraj_obs::Registry).
//!
//! At million-trajectory scale the exhaustive `O(N·d)` scan itself
//! becomes the bottleneck; [`SimilarityDb::build_ann_index`] trains an
//! IVF index (k-means coarse quantizer + inverted lists) over the stored
//! embeddings, and [`Query::shortlist_ann`] routes the scan through it —
//! probe the `nprobe` nearest cells, exactly score only their members.
//! Scored distances are bit-identical to the exhaustive scan's (only
//! recall is approximate), inserts keep the index in lockstep, and
//! [`SimilarityDb::save_ann_index`] / [`SimilarityDb::load_ann_index`]
//! persist it inside the standard CRC-sealed envelope.

use crate::backbone::NeuTrajModel;
use crate::loss::pair_similarity;
use crate::persist::{atomic_write, open_payload, seal_payload, PersistError};
use crate::quant::QuantizedStore;
use crate::query::{Query, QueryTarget};
use crate::search::EmbeddingStore;
use neutraj_cluster::{KMeans, KMeansParams};
use neutraj_index::{HnswIndex, HnswParams, IvfIndex};
use neutraj_measures::{Measure, Neighbor};
use neutraj_obs::{names, Counter, Gauge, Histogram, Registry};
use neutraj_trajectory::{TrajError, Trajectory};
use std::path::Path;

/// The concrete ANN index the database serves from: an inverted-file
/// index coarse-quantized by k-means.
pub type AnnIndex = IvfIndex<KMeans>;

/// Typed rejection of invalid serving-path input — the graceful-
/// degradation contract: bad input never panics the process and never
/// poisons the store (a NaN coordinate would otherwise flow into an
/// embedding and corrupt every later distance comparison).
#[derive(Debug)]
pub enum DbError {
    /// A trajectory failed validation (empty, or non-finite coordinate).
    InvalidTrajectory {
        /// The trajectory's id.
        id: u64,
        /// What the validation found.
        reason: TrajError,
    },
    /// A stored-item index beyond the corpus.
    UnknownIndex {
        /// The requested index.
        index: usize,
        /// Current corpus size.
        len: usize,
    },
    /// A raw query embedding with the wrong dimensionality or non-finite
    /// values.
    InvalidEmbedding(String),
    /// A query or index configuration that cannot be served: a zero ANN
    /// probe width, a re-rank shortlist narrower than `k`, an ANN query
    /// against a database with no index, or an index that does not match
    /// the corpus. Typed rather than a panic — misconfiguration is
    /// serving-path input, and it counts into `neutraj_db_rejects_total`
    /// like any other rejected request.
    InvalidConfig(String),
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidTrajectory { id, reason } => {
                write!(f, "invalid trajectory (id {id}): {reason}")
            }
            Self::UnknownIndex { index, len } => {
                write!(
                    f,
                    "no stored trajectory at index {index} (corpus size {len})"
                )
            }
            Self::InvalidEmbedding(msg) => write!(f, "invalid query embedding: {msg}"),
            Self::InvalidConfig(msg) => write!(f, "invalid query configuration: {msg}"),
        }
    }
}

impl std::error::Error for DbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::InvalidTrajectory { reason, .. } => Some(reason),
            _ => None,
        }
    }
}

/// Pre-resolved instrument handles for the serving path, following the
/// `neutraj_db_*` naming convention (see DESIGN.md, "Observability").
/// Resolved once at [`SimilarityDb::instrument`] time so the per-query
/// cost is a handful of atomic ops — no registry lock is ever taken on
/// the query path.
#[derive(Debug, Clone)]
pub struct DbMetrics {
    embed_seconds: Histogram,
    scan_seconds: Histogram,
    rerank_seconds: Histogram,
    queries_total: Counter,
    candidates_total: Counter,
    corpus_size: Gauge,
    rejects_total: Counter,
    ann_lists_probed: Counter,
    ann_candidates_scanned: Counter,
    ann_rerank_depth: Histogram,
    graph_hops: Counter,
    graph_candidates_scanned: Counter,
    graph_links_scanned: Counter,
    graph_ef: Histogram,
    graph_rerank_depth: Histogram,
    quant_rows_scanned: Counter,
    quant_bytes_scanned: Counter,
}

impl DbMetrics {
    /// Resolves the serving-path instruments in `registry`.
    pub fn register(registry: &Registry) -> Self {
        Self {
            embed_seconds: registry.histogram(names::DB_EMBED_SECONDS),
            scan_seconds: registry.histogram(names::DB_SCAN_SECONDS),
            rerank_seconds: registry.histogram(names::DB_RERANK_SECONDS),
            queries_total: registry.counter(names::DB_QUERIES_TOTAL),
            candidates_total: registry.counter(names::DB_CANDIDATES_TOTAL),
            corpus_size: registry.gauge(names::DB_CORPUS_SIZE),
            rejects_total: registry.counter(names::DB_REJECTS_TOTAL),
            ann_lists_probed: registry.counter(names::ANN_LISTS_PROBED_TOTAL),
            ann_candidates_scanned: registry.counter(names::ANN_CANDIDATES_SCANNED_TOTAL),
            ann_rerank_depth: registry.histogram(names::ANN_RERANK_DEPTH),
            graph_hops: registry.counter(names::GRAPH_HOPS_TOTAL),
            graph_candidates_scanned: registry.counter(names::GRAPH_CANDIDATES_SCANNED_TOTAL),
            graph_links_scanned: registry.counter(names::GRAPH_LINKS_SCANNED_TOTAL),
            graph_ef: registry.histogram(names::GRAPH_EF),
            graph_rerank_depth: registry.histogram(names::GRAPH_RERANK_DEPTH),
            quant_rows_scanned: registry.counter(names::QUANT_ROWS_SCANNED_TOTAL),
            quant_bytes_scanned: registry.counter(names::QUANT_BYTES_SCANNED_TOTAL),
        }
    }
}

/// Configuration for [`SimilarityDb::build_ann_index`] — the IVF
/// coarse-quantizer training knobs, forwarded to the k-means fit.
#[derive(Debug, Clone)]
pub struct AnnParams {
    /// Number of inverted lists (k-means centroids). A good default is
    /// `≈ √N`; more lists mean a finer partition (fewer candidates per
    /// probe) but need a larger `nprobe` for the same recall.
    pub nlists: usize,
    /// Maximum Lloyd iterations for the quantizer fit.
    pub train_iters: usize,
    /// Train the quantizer on at most this many embeddings, sampled
    /// deterministically (`0` = all).
    pub train_sample: usize,
    /// Seed for sampling and initialization.
    pub seed: u64,
}

impl Default for AnnParams {
    fn default() -> Self {
        let k = KMeansParams::default();
        Self {
            nlists: k.k,
            train_iters: k.max_iters,
            train_sample: k.sample,
            seed: k.seed,
        }
    }
}

/// A corpus of trajectories indexed by a trained NeuTraj model.
///
/// Inserts cost one `O(L)` embedding; queries cost one embedding plus an
/// `O(N·d)` norm-trick scan through the backing [`EmbeddingStore`]
/// (batched queries share one GEMM per corpus block). The database owns
/// its trajectories so results can be re-ranked with an exact measure on
/// demand.
#[derive(Debug, Clone)]
pub struct SimilarityDb {
    model: NeuTrajModel,
    trajectories: Vec<Trajectory>,
    /// Embeddings + precomputed row norms for norm-trick scans.
    embeddings: EmbeddingStore,
    /// IVF shortlist index over the embeddings, kept in lockstep with the
    /// store by [`SimilarityDb::insert`] once built. `None` until
    /// [`SimilarityDb::build_ann_index`] (or a load) installs one.
    ann: Option<AnnIndex>,
    /// HNSW graph shortlist index over the embeddings, kept in lockstep
    /// with the store by [`SimilarityDb::insert`] once built. `None`
    /// until [`SimilarityDb::build_graph_index`] (or a load) installs
    /// one.
    graph: Option<HnswIndex>,
    /// Int8-quantized view of the embeddings for [`Query::quantized`]
    /// scans, kept in lockstep with the store by [`SimilarityDb::insert`]
    /// once built. `None` until [`SimilarityDb::build_quantized_store`]
    /// (or a load) installs one.
    quant: Option<QuantizedStore>,
    /// `None` (the default) records nothing; cloning an instrumented db
    /// shares the underlying instruments.
    metrics: Option<DbMetrics>,
}

impl SimilarityDb {
    /// Creates an empty database over a trained model.
    pub fn new(model: NeuTrajModel) -> Self {
        let store = EmbeddingStore::new(model.dim());
        Self {
            model,
            trajectories: Vec::new(),
            embeddings: store,
            ann: None,
            graph: None,
            quant: None,
            metrics: None,
        }
    }

    /// Creates a database and bulk-loads `corpus` with `threads` workers.
    ///
    /// Panics when the corpus contains an invalid trajectory — a bulk
    /// load is a programming input, unlike online [`SimilarityDb::insert`]
    /// traffic; use `insert_batch` on an empty db to handle invalid
    /// corpora gracefully.
    pub fn with_corpus(model: NeuTrajModel, corpus: Vec<Trajectory>, threads: usize) -> Self {
        let mut db = Self::new(model);
        db.insert_batch(corpus, threads)
            .unwrap_or_else(|e| panic!("invalid corpus: {e}"));
        db
    }

    /// Starts recording per-query metrics into `registry` (see
    /// [`DbMetrics`] for the instrument set). Queries on an
    /// un-instrumented db skip all recording at the cost of one branch
    /// per stage.
    pub fn instrument(&mut self, registry: &Registry) {
        let m = DbMetrics::register(registry);
        m.corpus_size.set(self.len() as f64);
        self.metrics = Some(m);
    }

    /// Stops recording metrics (already-recorded values stay in the
    /// registry they were written to).
    pub fn clear_instrumentation(&mut self) {
        self.metrics = None;
    }

    /// The underlying model.
    pub fn model(&self) -> &NeuTrajModel {
        &self.model
    }

    /// Number of stored trajectories.
    pub fn len(&self) -> usize {
        self.trajectories.len()
    }

    /// Returns `true` when the database is empty.
    pub fn is_empty(&self) -> bool {
        self.trajectories.is_empty()
    }

    /// Borrow a stored trajectory.
    pub fn get(&self, idx: usize) -> Option<&Trajectory> {
        self.trajectories.get(idx)
    }

    /// Embedding of stored item `idx`.
    pub fn embedding(&self, idx: usize) -> &[f64] {
        self.embeddings.get(idx)
    }

    /// The backing embedding store (for direct scan access).
    pub fn store(&self) -> &EmbeddingStore {
        &self.embeddings
    }

    /// Trains an IVF index over the current corpus snapshot: a k-means
    /// coarse quantizer fitted to the stored embeddings, then one bulk
    /// assignment pass filling the inverted lists. Replaces any existing
    /// index. Later [`SimilarityDb::insert`]s keep the index in lockstep
    /// (assign-to-nearest-centroid); rebuild when the corpus has grown or
    /// drifted enough that the old centroids partition it poorly.
    ///
    /// `nlists` is clamped to the number of distinct embeddings; zero
    /// `nlists` or an empty corpus is an [`DbError::InvalidConfig`].
    pub fn build_ann_index(&mut self, params: &AnnParams) -> Result<(), DbError> {
        if params.nlists == 0 {
            return Err(self.reject(DbError::InvalidConfig(
                "ann index needs at least one list (nlists == 0)".into(),
            )));
        }
        if self.is_empty() {
            return Err(self.reject(DbError::InvalidConfig(
                "cannot train an ann index over an empty corpus".into(),
            )));
        }
        let quantizer = KMeans::fit(
            self.embeddings.as_flat(),
            self.embeddings.dim(),
            &KMeansParams {
                k: params.nlists,
                max_iters: params.train_iters,
                sample: params.train_sample,
                seed: params.seed,
            },
        );
        self.ann = Some(IvfIndex::build(quantizer, self.embeddings.as_flat()));
        Ok(())
    }

    /// The current ANN index, when one is built or loaded.
    pub fn ann_index(&self) -> Option<&AnnIndex> {
        self.ann.as_ref()
    }

    /// Installs an externally built index after checking it matches the
    /// corpus (dimensionality and row count).
    pub fn set_ann_index(&mut self, index: AnnIndex) -> Result<(), DbError> {
        if index.dim() != self.embeddings.dim() || index.len() != self.len() {
            return Err(self.reject(DbError::InvalidConfig(format!(
                "ann index (dim {}, {} rows) does not match corpus (dim {}, {} rows)",
                index.dim(),
                index.len(),
                self.embeddings.dim(),
                self.len()
            ))));
        }
        self.ann = Some(index);
        Ok(())
    }

    /// Drops the ANN index; queries fall back to the exhaustive scan
    /// (ANN queries start failing with [`DbError::InvalidConfig`]).
    pub fn clear_ann_index(&mut self) {
        self.ann = None;
    }

    /// Persists the ANN index to `path` inside the standard sealed
    /// envelope (`NTFILE01` magic + length + CRC around the `NTIVF01`
    /// section), written atomically via a same-directory temp file.
    /// Errors when no index is built.
    pub fn save_ann_index<P: AsRef<Path>>(&self, path: P) -> Result<(), PersistError> {
        let ann = self.ann.as_ref().ok_or_else(|| {
            PersistError::Format("no ann index to save: call build_ann_index first".into())
        })?;
        atomic_write(path.as_ref(), &seal_payload(&ann.to_bytes()))
    }

    /// Loads and installs an ANN index written by
    /// [`SimilarityDb::save_ann_index`], verifying the envelope CRC, the
    /// section's structural invariants, and that the index matches the
    /// current corpus.
    pub fn load_ann_index<P: AsRef<Path>>(&mut self, path: P) -> Result<(), PersistError> {
        let data = std::fs::read(path.as_ref())?;
        let payload = open_payload(&data)?;
        let index =
            AnnIndex::from_bytes(payload).map_err(|e| PersistError::Corrupted(e.to_string()))?;
        self.set_ann_index(index)
            .map_err(|e| PersistError::Format(e.to_string()))
    }

    /// Builds a deterministic HNSW graph index over the current corpus
    /// snapshot for [`Query::shortlist_graph`] scans, with
    /// `threads`-way parallel construction rounds — the committed graph
    /// is **bit-identical for every thread count** (see the `hnsw`
    /// module docs in `neutraj-index`). Replaces any existing graph.
    /// Later [`SimilarityDb::insert`]s keep it in lockstep (the new row
    /// is assigned its hashed level and linked immediately).
    ///
    /// Invalid parameters or an empty corpus are a
    /// [`DbError::InvalidConfig`].
    pub fn build_graph_index(
        &mut self,
        params: &HnswParams,
        threads: usize,
    ) -> Result<(), DbError> {
        if let Err(e) = params.validate() {
            return Err(self.reject(DbError::InvalidConfig(e)));
        }
        if self.is_empty() {
            return Err(self.reject(DbError::InvalidConfig(
                "cannot build a graph index over an empty corpus".into(),
            )));
        }
        let store = &self.embeddings;
        let graph = HnswIndex::build(*params, store.len(), threads.max(1), store);
        self.graph = Some(graph);
        Ok(())
    }

    /// The current graph index, when one is built or loaded.
    pub fn graph_index(&self) -> Option<&HnswIndex> {
        self.graph.as_ref()
    }

    /// Installs an externally built graph index after checking it
    /// matches the corpus (row count — the graph stores no vectors, so
    /// dimensionality is the store's concern).
    pub fn set_graph_index(&mut self, graph: HnswIndex) -> Result<(), DbError> {
        if graph.len() != self.len() {
            return Err(self.reject(DbError::InvalidConfig(format!(
                "graph index ({} rows) does not match corpus ({} rows)",
                graph.len(),
                self.len()
            ))));
        }
        self.graph = Some(graph);
        Ok(())
    }

    /// Drops the graph index; graph queries start failing with
    /// [`DbError::InvalidConfig`] while other paths are unaffected.
    pub fn clear_graph_index(&mut self) {
        self.graph = None;
    }

    /// Persists the graph index to `path` inside the standard sealed
    /// envelope (`NTFILE01` magic + length + CRC around the `NTHNSW01`
    /// section), written atomically via a same-directory temp file.
    /// Errors when no graph is built.
    pub fn save_graph_index<P: AsRef<Path>>(&self, path: P) -> Result<(), PersistError> {
        let graph = self.graph.as_ref().ok_or_else(|| {
            PersistError::Format("no graph index to save: call build_graph_index first".into())
        })?;
        atomic_write(path.as_ref(), &seal_payload(&graph.to_bytes()))
    }

    /// Loads and installs a graph index written by
    /// [`SimilarityDb::save_graph_index`], verifying the envelope CRC,
    /// the section's structural invariants, and that the graph matches
    /// the current corpus.
    pub fn load_graph_index<P: AsRef<Path>>(&mut self, path: P) -> Result<(), PersistError> {
        let data = std::fs::read(path.as_ref())?;
        let payload = open_payload(&data)?;
        let graph =
            HnswIndex::from_bytes(payload).map_err(|e| PersistError::Corrupted(e.to_string()))?;
        self.set_graph_index(graph)
            .map_err(|e| PersistError::Format(e.to_string()))
    }

    /// Builds (or rebuilds) the int8-quantized view of the current
    /// corpus snapshot for [`Query::quantized`] scans. Later
    /// [`SimilarityDb::insert`]s keep it in lockstep (the new row is
    /// quantized on its own scale — no re-quantization of old rows).
    pub fn build_quantized_store(&mut self) {
        self.quant = Some(QuantizedStore::from_store(&self.embeddings));
    }

    /// The current quantized view, when one is built or loaded.
    pub fn quantized_store(&self) -> Option<&QuantizedStore> {
        self.quant.as_ref()
    }

    /// Installs an externally built quantized view after checking it
    /// matches the corpus (dimensionality and row count).
    pub fn set_quantized_store(&mut self, store: QuantizedStore) -> Result<(), DbError> {
        if store.dim() != self.embeddings.dim() || store.len() != self.len() {
            return Err(self.reject(DbError::InvalidConfig(format!(
                "quantized store (dim {}, {} rows) does not match corpus (dim {}, {} rows)",
                store.dim(),
                store.len(),
                self.embeddings.dim(),
                self.len()
            ))));
        }
        self.quant = Some(store);
        Ok(())
    }

    /// Drops the quantized view; [`Query::quantized`] queries start
    /// failing with [`DbError::InvalidConfig`].
    pub fn clear_quantized_store(&mut self) {
        self.quant = None;
    }

    /// Persists the quantized view to `path` inside the standard sealed
    /// envelope (`NTFILE01` magic + length + CRC around the `NTQ08`
    /// section), written atomically. Errors when no view is built.
    pub fn save_quantized_store<P: AsRef<Path>>(&self, path: P) -> Result<(), PersistError> {
        let q = self.quant.as_ref().ok_or_else(|| {
            PersistError::Format(
                "no quantized store to save: call build_quantized_store first".into(),
            )
        })?;
        q.save(path)
    }

    /// Loads and installs a quantized view written by
    /// [`SimilarityDb::save_quantized_store`], verifying the envelope
    /// CRC, the `NTQ08` structural invariants, and that the view matches
    /// the current corpus.
    pub fn load_quantized_store<P: AsRef<Path>>(&mut self, path: P) -> Result<(), PersistError> {
        let store = QuantizedStore::load(path)?;
        self.set_quantized_store(store)
            .map_err(|e| PersistError::Format(e.to_string()))
    }

    /// Counts a rejected input (graceful-degradation events are observable
    /// through `neutraj_db_rejects_total`).
    fn reject(&self, e: DbError) -> DbError {
        if let Some(m) = &self.metrics {
            m.rejects_total.inc();
        }
        e
    }

    /// Validates one trajectory at the serving trust boundary.
    fn check(&self, t: &Trajectory) -> Result<(), DbError> {
        t.validate()
            .map_err(|reason| self.reject(DbError::InvalidTrajectory { id: t.id, reason }))
    }

    /// Validates a query *configuration* at the same boundary: typed
    /// [`DbError::InvalidConfig`] (counted as a reject), never a panic.
    /// The database-independent invariants (`k == 0`, explicit shortlist
    /// narrower than `k`, `nprobe == 0`) live in [`Query::validate`] so
    /// the serving layer can apply the identical contract before
    /// queueing; the checks against *this* database's state (quantized
    /// view / ANN index actually built) follow here.
    fn check_query(&self, query: &Query) -> Result<(), DbError> {
        if let Err(reason) = query.validate() {
            return Err(self.reject(DbError::InvalidConfig(reason)));
        }
        if query.is_quantized() && self.quant.is_none() {
            return Err(self.reject(DbError::InvalidConfig(
                "quantized queries need the int8 view: call build_quantized_store \
                 (or load_quantized_store) first"
                    .into(),
            )));
        }
        if query.ann_nprobe().is_some() && self.ann.is_none() {
            return Err(self.reject(DbError::InvalidConfig(
                "shortlist_ann requires an ANN index: call build_ann_index \
                 (or load_ann_index) first"
                    .into(),
            )));
        }
        if query.graph_ef().is_some() && self.graph.is_none() {
            return Err(self.reject(DbError::InvalidConfig(
                "shortlist_graph requires a graph index: call build_graph_index \
                 (or load_graph_index) first"
                    .into(),
            )));
        }
        Ok(())
    }

    /// The embedding-space scan stage shared by every search path:
    /// exhaustive norm-trick GEMM, or the IVF/graph shortlist when the
    /// query asks for one (recording the shortlist work counters).
    /// Configuration has already passed [`Self::check_query`].
    fn scan_batch(&self, qrefs: &[&[f64]], fetch: usize, query: &Query) -> Vec<Vec<Neighbor>> {
        if query.is_quantized() {
            return self.scan_batch_quantized(qrefs, fetch, query);
        }
        if let Some(ef) = query.graph_ef() {
            let graph = self
                .graph
                .as_ref()
                .expect("check_query verified the graph exists");
            // The beam must be at least as wide as the fetch depth or
            // the shortlist could never fill it.
            let ef = ef.max(fetch);
            let (shorts, stats) = self.embeddings.knn_graph_batch(qrefs, fetch, graph, ef);
            if let Some(m) = &self.metrics {
                m.graph_hops.add(stats.hops as u64);
                m.graph_candidates_scanned
                    .add(stats.candidates_scanned as u64);
                m.graph_links_scanned.add(stats.links_scanned as u64);
                m.graph_ef.observe(ef as f64);
                // Fraction of the corpus exactly scored per query — the
                // realized sub-linearity of the graph shortlist.
                let denom = (qrefs.len().max(1) * self.len().max(1)) as f64;
                m.graph_rerank_depth
                    .observe(stats.candidates_scanned as f64 / denom);
            }
            return shorts;
        }
        match query.ann_nprobe() {
            None => self.embeddings.knn_batch(qrefs, fetch),
            Some(nprobe) => {
                let ann = self
                    .ann
                    .as_ref()
                    .expect("check_query verified the index exists");
                let (shorts, stats) = self.embeddings.knn_ann_batch(qrefs, fetch, ann, nprobe);
                if let Some(m) = &self.metrics {
                    m.ann_lists_probed.add(stats.lists_probed as u64);
                    m.ann_candidates_scanned
                        .add(stats.candidates_scanned as u64);
                    // Fraction of the corpus exactly scored per query —
                    // the realized sub-linearity of the shortlist.
                    let denom = (qrefs.len().max(1) * self.len().max(1)) as f64;
                    m.ann_rerank_depth
                        .observe(stats.candidates_scanned as f64 / denom);
                }
                shorts
            }
        }
    }

    /// The [`Query::quantized`] scan stage: score rows through the int8
    /// view (exhaustively or over the IVF candidates), then exactly
    /// re-score the over-fetched shortlist against the f64 store —
    /// returned distances are exact; recall is what quantization trades.
    fn scan_batch_quantized(
        &self,
        qrefs: &[&[f64]],
        fetch: usize,
        query: &Query,
    ) -> Vec<Vec<Neighbor>> {
        let quant = self
            .quant
            .as_ref()
            .expect("check_query verified the quantized store exists");
        let (shorts, stats) = match query.ann_nprobe() {
            None => quant.knn_batch(&self.embeddings, qrefs, fetch),
            Some(nprobe) => {
                let ann = self
                    .ann
                    .as_ref()
                    .expect("check_query verified the index exists");
                if let Some(m) = &self.metrics {
                    m.ann_lists_probed
                        .add((qrefs.len() * nprobe.min(ann.nlists())) as u64);
                }
                quant.knn_ann_batch(&self.embeddings, qrefs, fetch, ann, nprobe)
            }
        };
        if let Some(m) = &self.metrics {
            m.quant_rows_scanned.add(stats.rows_scanned as u64);
            m.quant_bytes_scanned.add(stats.bytes_scanned as u64);
        }
        shorts
    }

    /// The embedding-space scan stage as a public seam: top-`fetch`
    /// neighbors for each already-embedded query, through whichever path
    /// `query` selects (exhaustive GEMM, IVF shortlist, quantized view),
    /// *without* the re-rank stage or [`Query::k`] truncation.
    ///
    /// This is what a sharded serving layer needs from each partition:
    /// each shard returns its local top-`fetch` list, the results are
    /// merged under the scan's `(dist, index)` total order, and any
    /// re-ranking happens once, globally. Because the per-row norm-trick
    /// score is a pure function of (query row, corpus row) — independent
    /// of batch size and GEMM blocking — a merged sharded scan is
    /// bit-identical to the unsharded scan over the concatenated corpus.
    ///
    /// Validates the query configuration and each embedding (dimension,
    /// finiteness) with the same typed rejections as
    /// [`SimilarityDb::search`].
    pub fn scan_embeddings(
        &self,
        qrefs: &[&[f64]],
        fetch: usize,
        query: &Query,
    ) -> Result<Vec<Vec<Neighbor>>, DbError> {
        self.check_query(query)?;
        for e in qrefs {
            if e.len() != self.model.dim() {
                return Err(self.reject(DbError::InvalidEmbedding(format!(
                    "dimension {} does not match model dimension {}",
                    e.len(),
                    self.model.dim()
                ))));
            }
            if let Some(k) = e.iter().position(|v| !v.is_finite()) {
                return Err(self.reject(DbError::InvalidEmbedding(format!(
                    "non-finite value at component {k}"
                ))));
            }
        }
        Ok(self.scan_batch(qrefs, fetch, query))
    }

    /// Inserts one trajectory; returns its index. Empty or non-finite
    /// trajectories are rejected *before* embedding, leaving the store
    /// untouched.
    pub fn insert(&mut self, t: Trajectory) -> Result<usize, DbError> {
        self.check(&t)?;
        let e = self.model.embed(&t);
        self.embeddings.push(&e);
        // Keep the ANN index in lockstep: assign the new row to its
        // nearest centroid (no retraining — rebuild for that).
        if let Some(ann) = &mut self.ann {
            ann.insert(&e);
        }
        // The graph index too: the new node gets its hashed level and
        // links immediately (a one-node construction round), so graph
        // queries see every inserted row — same liveness contract as
        // the IVF index.
        if let Some(graph) = &mut self.graph {
            self.embeddings.link_last_row(graph);
        }
        // And the quantized view: the new row quantizes on its own scale.
        if let Some(q) = &mut self.quant {
            q.push(&e);
        }
        self.trajectories.push(t);
        if let Some(m) = &self.metrics {
            m.corpus_size.set(self.trajectories.len() as f64);
        }
        Ok(self.trajectories.len() - 1)
    }

    /// Inserts many trajectories, embedding them with the lockstep
    /// batched forward on `threads` workers. All-or-nothing: every
    /// trajectory is validated *first*, and a single invalid one rejects
    /// the whole batch with the store unchanged — a partially applied
    /// batch would leave callers guessing which indices exist.
    pub fn insert_batch(&mut self, ts: Vec<Trajectory>, threads: usize) -> Result<(), DbError> {
        for t in &ts {
            self.check(t)?;
        }
        let embs = self.model.embed_all(&ts, threads);
        for e in &embs {
            self.embeddings.push(e);
            if let Some(ann) = &mut self.ann {
                ann.insert(e);
            }
            if let Some(graph) = &mut self.graph {
                self.embeddings.link_last_row(graph);
            }
            if let Some(q) = &mut self.quant {
                q.push(e);
            }
        }
        self.trajectories.extend(ts);
        if let Some(m) = &self.metrics {
            m.corpus_size.set(self.trajectories.len() as f64);
        }
        Ok(())
    }

    /// Answers one query: embeds the target if needed (a no-op for
    /// [`QueryTarget::Embedding`] / [`QueryTarget::Stored`]), runs the
    /// norm-trick scan, and — when [`Query::rerank`] is set — re-ranks
    /// the shortlist with the exact measure. A [`QueryTarget::Stored`]
    /// target never returns itself.
    ///
    /// Targets convert implicitly: `db.search(&trajectory, &q)`,
    /// `db.search(&embedding[..], &q)`, `db.search(stored_idx, &q)`.
    ///
    /// Invalid input — an empty/non-finite trajectory, an out-of-range
    /// stored index, a wrong-dimension or non-finite raw embedding —
    /// returns a typed [`DbError`] before any scan work (and counts into
    /// `neutraj_db_rejects_total` when instrumented).
    ///
    /// Panics when re-ranking is requested for a raw-embedding target
    /// (there is no trajectory to hand to the exact measure).
    pub fn search<'a>(
        &self,
        target: impl Into<QueryTarget<'a>>,
        query: &Query,
    ) -> Result<Vec<Neighbor>, DbError> {
        self.check_query(query)?;
        match target.into() {
            QueryTarget::Trajectory(t) => {
                self.check(t)?;
                let span = self.metrics.as_ref().map(|m| m.embed_seconds.start_timer());
                let qe = self.model.embed(t);
                drop(span);
                Ok(self.search_resolved(&qe, Some(t), None, query))
            }
            QueryTarget::Embedding(e) => {
                if e.len() != self.model.dim() {
                    return Err(self.reject(DbError::InvalidEmbedding(format!(
                        "dimension {} does not match model dimension {}",
                        e.len(),
                        self.model.dim()
                    ))));
                }
                if let Some(k) = e.iter().position(|v| !v.is_finite()) {
                    return Err(self.reject(DbError::InvalidEmbedding(format!(
                        "non-finite value at component {k}"
                    ))));
                }
                Ok(self.search_resolved(e, None, None, query))
            }
            QueryTarget::Stored(idx) => {
                if idx >= self.trajectories.len() {
                    return Err(self.reject(DbError::UnknownIndex {
                        index: idx,
                        len: self.trajectories.len(),
                    }));
                }
                Ok(self.search_resolved(
                    self.embeddings.get(idx),
                    Some(&self.trajectories[idx]),
                    Some(idx),
                    query,
                ))
            }
        }
    }

    /// Answers a whole batch of ad-hoc queries: one lockstep batched
    /// embed, then one norm-trick GEMM scan per corpus block shared by
    /// every query, then (optionally) per-query exact re-ranking. Each
    /// result is bit-identical to [`Self::search`] on that query.
    ///
    /// All-or-nothing on invalid input: every query trajectory is
    /// validated first, and one bad query rejects the batch.
    pub fn search_batch(
        &self,
        queries: &[Trajectory],
        query: &Query,
    ) -> Result<Vec<Vec<Neighbor>>, DbError> {
        self.check_query(query)?;
        for q in queries {
            self.check(q)?;
        }
        let m = self.metrics.as_ref();
        if let Some(m) = m {
            m.queries_total.add(queries.len() as u64);
        }
        let span = m.map(|m| m.embed_seconds.start_timer());
        let qembs = self.model.embed_batch(queries);
        drop(span);
        let qrefs: Vec<&[f64]> = qembs.iter().map(|e| e.as_slice()).collect();
        let fetch = match query.rerank_measure() {
            Some(_) => query.effective_shortlist(),
            None => query.k(),
        };
        let span = m.map(|m| m.scan_seconds.start_timer());
        let shorts = self.scan_batch(&qrefs, fetch, query);
        drop(span);
        if let Some(m) = m {
            m.candidates_total
                .add(shorts.iter().map(|s| s.len() as u64).sum());
        }
        match query.rerank_measure() {
            None => Ok(shorts),
            Some(measure) => {
                let span = m.map(|m| m.rerank_seconds.start_timer());
                let out = shorts
                    .into_iter()
                    .zip(queries)
                    .map(|(short, q)| self.rerank_shortlist(short, q, measure, query.k()))
                    .collect();
                drop(span);
                Ok(out)
            }
        }
    }

    /// The scan + (optional) re-rank stages, after the query embedding is
    /// in hand. `exclude` implements stored-target self-exclusion.
    fn search_resolved(
        &self,
        emb: &[f64],
        qtraj: Option<&Trajectory>,
        exclude: Option<usize>,
        query: &Query,
    ) -> Vec<Neighbor> {
        let m = self.metrics.as_ref();
        if let Some(m) = m {
            m.queries_total.inc();
        }
        let want = match query.rerank_measure() {
            Some(_) => query.effective_shortlist(),
            None => query.k(),
        };
        let fetch = want + usize::from(exclude.is_some());
        let span = m.map(|m| m.scan_seconds.start_timer());
        let mut short = self
            .scan_batch(&[emb], fetch, query)
            .pop()
            .expect("one query in, one result out");
        drop(span);
        if let Some(idx) = exclude {
            short.retain(|n| n.index != idx);
            short.truncate(want);
        }
        if let Some(m) = m {
            m.candidates_total.add(short.len() as u64);
        }
        match query.rerank_measure() {
            None => short,
            Some(measure) => {
                let qtraj = qtraj.expect(
                    "re-ranking needs a trajectory-backed target \
                     (QueryTarget::Trajectory or QueryTarget::Stored)",
                );
                let span = m.map(|m| m.rerank_seconds.start_timer());
                let out = self.rerank_shortlist(short, qtraj, measure, query.k());
                drop(span);
                out
            }
        }
    }

    /// Re-ranks an embedding-space shortlist by the exact `measure` on
    /// grid-rescaled coordinates (so values match the training scale),
    /// ties broken by index, truncated to `k`.
    fn rerank_shortlist(
        &self,
        short: Vec<Neighbor>,
        query: &Trajectory,
        measure: &dyn Measure,
        k: usize,
    ) -> Vec<Neighbor> {
        let grid = self.model.grid();
        let q = grid.rescale_trajectory(query);
        let mut out: Vec<Neighbor> = short
            .into_iter()
            .map(|n| Neighbor {
                index: n.index,
                dist: measure.dist(
                    q.points(),
                    grid.rescale_trajectory(&self.trajectories[n.index])
                        .points(),
                ),
            })
            .collect();
        out.sort_by(|a, b| {
            a.dist
                .partial_cmp(&b.dist)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.index.cmp(&b.index))
        });
        out.truncate(k);
        out
    }

    /// Learned similarity `g` between two *stored* items.
    pub fn pair_similarity(&self, i: usize, j: usize) -> f64 {
        pair_similarity(self.embedding(i), self.embedding(j))
    }

    /// Similarity join (the paper's motivating all-pairs workload, §I):
    /// all stored pairs `(i, j)` with exact distance ≤ `tau` under
    /// `measure`, found by **embedding-space candidate generation**
    /// (pairs with embedding distance ≤ `emb_radius`, via the norm-trick
    /// block GEMM of [`EmbeddingStore::pairs_within`]) followed by
    /// **exact verification** of the survivors only, parallelized across
    /// the available cores.
    ///
    /// Exact distances are computed in grid units (the training scale),
    /// so `tau` is in grid units too. The result is exact on the
    /// candidate set; recall depends on `emb_radius` — since the model is
    /// trained so `exp(-‖E_i−E_j‖) ≈ exp(-α·D_ij)`, a radius of
    /// `α·tau·slack` with `slack ≈ 2–3` captures nearly all true pairs at
    /// a fraction of the `O(N²·L²)` exact-join cost. Pairs are returned
    /// with their exact distance, `i < j`, sorted ascending by distance.
    pub fn similarity_join(
        &self,
        measure: &dyn Measure,
        tau: f64,
        emb_radius: f64,
    ) -> Vec<(usize, usize, f64)> {
        let grid = self.model.grid();
        let rescaled: Vec<Trajectory> = self
            .trajectories
            .iter()
            .map(|t| grid.rescale_trajectory(t))
            .collect();
        let candidates = self.embeddings.pairs_within(emb_radius);
        let verify = |chunk: &[(usize, usize)]| -> Vec<(usize, usize, f64)> {
            chunk
                .iter()
                .filter_map(|&(i, j)| {
                    let d = measure.dist(rescaled[i].points(), rescaled[j].points());
                    (d <= tau).then_some((i, j, d))
                })
                .collect()
        };
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let mut out = if threads <= 1 || candidates.len() < 1024 {
            verify(&candidates)
        } else {
            // Verified in parallel chunks, re-concatenated in chunk order,
            // so the pre-sort content is independent of the thread count.
            let chunk = candidates.len().div_ceil(threads);
            let mut parts: Vec<Vec<(usize, usize, f64)>> = Vec::new();
            std::thread::scope(|scope| {
                let handles: Vec<_> = candidates
                    .chunks(chunk)
                    .map(|c| scope.spawn(move || verify(c)))
                    .collect();
                for h in handles {
                    parts.push(h.join().expect("join verifier panicked"));
                }
            });
            parts.concat()
        };
        out.sort_by(|a, b| {
            a.2.partial_cmp(&b.2)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then((a.0, a.1).cmp(&(b.0, b.1)))
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TrainConfig, Trainer};
    use neutraj_measures::{DistanceMatrix, Hausdorff};
    use neutraj_trajectory::gen::PortoLikeGenerator;
    use neutraj_trajectory::Grid;

    fn trained_model_and_corpus() -> (NeuTrajModel, Vec<Trajectory>) {
        let ds = PortoLikeGenerator {
            num_trajectories: 40,
            max_len: 30,
            ..Default::default()
        }
        .generate(5);
        let trajs = ds.trajectories().to_vec();
        let grid = Grid::covering(&trajs, 100.0).unwrap();
        let rescaled: Vec<Trajectory> = trajs.iter().map(|t| grid.rescale_trajectory(t)).collect();
        let dist = DistanceMatrix::compute(&Hausdorff, &rescaled[..20]);
        let cfg = TrainConfig {
            dim: 8,
            epochs: 3,
            n_samples: 4,
            ..TrainConfig::neutraj()
        };
        let (model, _) = Trainer::new(cfg, grid).fit(&trajs[..20], &dist, |_| {});
        (model, trajs)
    }

    #[test]
    fn insert_and_query() {
        let (model, trajs) = trained_model_and_corpus();
        let mut db = SimilarityDb::new(model);
        assert!(db.is_empty());
        for t in &trajs[..30] {
            db.insert(t.clone()).unwrap();
        }
        assert_eq!(db.len(), 30);
        // Query with a stored trajectory: it must rank itself first.
        let res = db.search(&trajs[7], &Query::new(3)).unwrap();
        assert_eq!(res[0].index, 7);
        assert!(res[0].dist < 1e-12);
        // A stored target excludes self.
        let res = db.search(7usize, &Query::new(3)).unwrap();
        assert!(res.iter().all(|n| n.index != 7));
        assert_eq!(res.len(), 3);
    }

    #[test]
    fn batch_insert_matches_single_insert() {
        let (model, trajs) = trained_model_and_corpus();
        let mut a = SimilarityDb::new(model.clone());
        for t in &trajs {
            a.insert(t.clone()).unwrap();
        }
        let b = SimilarityDb::with_corpus(model, trajs.clone(), 4);
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert_eq!(a.embedding(i), b.embedding(i));
        }
    }

    #[test]
    fn search_targets_cover_the_knn_variants() {
        let (model, trajs) = trained_model_and_corpus();
        let db = SimilarityDb::with_corpus(model, trajs.clone(), 2);
        let q = Query::new(4);
        // Trajectory target == knn; embedding target == knn_embedding.
        let by_traj = db.search(&trajs[5], &q).unwrap();
        let emb = db.embedding(5).to_vec();
        let by_emb = db.search(&emb[..], &q).unwrap();
        assert_eq!(by_traj, by_emb);
        assert_eq!(by_traj[0].index, 5);
        // Stored target excludes self.
        let by_idx = db.search(5usize, &q).unwrap();
        assert!(by_idx.iter().all(|n| n.index != 5));
        assert_eq!(by_idx.len(), 4);
        // Reranked search orders by the exact measure.
        let rr = db
            .search(&trajs[5], &Query::new(4).shortlist(10).rerank(&Hausdorff))
            .unwrap();
        assert_eq!(rr[0].index, 5);
        for w in rr.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
        // Stored + rerank: self stays excluded.
        let rr = db
            .search(5usize, &Query::new(4).shortlist(10).rerank(&Hausdorff))
            .unwrap();
        assert!(rr.iter().all(|n| n.index != 5));
    }

    #[test]
    fn scan_embeddings_is_the_search_scan_stage() {
        let (model, trajs) = trained_model_and_corpus();
        let db = SimilarityDb::with_corpus(model, trajs, 2);
        let qrefs = [db.embedding(1), db.embedding(2)];
        let got = db.scan_embeddings(&qrefs, 5, &Query::new(5)).unwrap();
        assert_eq!(got, db.store().knn_batch(&qrefs, 5));
        // The fetch width is explicit — the caller (a sharded merge)
        // controls it, not Query::k.
        let wide = db.scan_embeddings(&qrefs, 9, &Query::new(2)).unwrap();
        assert_eq!(wide[0].len(), 9);
        // Uniform over-fetch preserves prefixes under the (dist, index)
        // total order, so the narrow result is the wide one's prefix.
        assert_eq!(&wide[0][..5], &got[0][..]);
    }

    #[test]
    fn invalid_input_is_rejected_with_typed_errors() {
        use neutraj_trajectory::Point;
        let (model, trajs) = trained_model_and_corpus();
        let registry = Registry::new();
        let mut db = SimilarityDb::with_corpus(model, trajs.clone(), 2);
        db.instrument(&registry);
        let before = db.len();

        // Empty trajectory: rejected before touching the store.
        let empty = Trajectory::new_unchecked(900, vec![]);
        let err = db.insert(empty.clone()).unwrap_err();
        assert!(
            matches!(err, DbError::InvalidTrajectory { id: 900, .. }),
            "{err}"
        );
        // Non-finite coordinate: caught at the serving boundary before
        // any embedding work could smuggle a NaN into the store.
        let bad = trajs[0].map_points(|p| Point::new(p.x, f64::NAN));
        let err = db.insert(bad).unwrap_err();
        assert!(matches!(err, DbError::InvalidTrajectory { .. }), "{err}");

        // A batch with one bad entry is rejected atomically.
        let err = db
            .insert_batch(vec![trajs[1].clone(), empty.clone()], 2)
            .unwrap_err();
        assert!(matches!(err, DbError::InvalidTrajectory { id: 900, .. }));
        assert_eq!(db.len(), before, "failed insert mutated the store");

        // Query-side: empty trajectory, out-of-range index, bad embedding.
        assert!(db.search(&empty, &Query::new(3)).is_err());
        let err = db.search(db.len() + 5, &Query::new(3)).unwrap_err();
        assert!(matches!(err, DbError::UnknownIndex { .. }), "{err}");
        let short = vec![0.0; db.model().dim() - 1];
        let err = db.search(&short[..], &Query::new(3)).unwrap_err();
        assert!(matches!(err, DbError::InvalidEmbedding(_)), "{err}");
        let nan = vec![f64::NAN; db.model().dim()];
        assert!(db.search(&nan[..], &Query::new(3)).is_err());
        let err = db
            .search_batch(&[trajs[0].clone(), empty], &Query::new(3))
            .unwrap_err();
        assert!(matches!(err, DbError::InvalidTrajectory { .. }));

        // Every rejection above was counted.
        assert_eq!(registry.counter(names::DB_REJECTS_TOTAL).get(), 8);
        // Valid traffic still flows.
        assert!(db.insert(trajs[2].clone()).is_ok());
        assert_eq!(db.search(&trajs[0], &Query::new(3)).unwrap().len(), 3);
    }

    #[test]
    #[should_panic(expected = "trajectory-backed target")]
    fn rerank_of_raw_embedding_panics() {
        let (model, trajs) = trained_model_and_corpus();
        let db = SimilarityDb::with_corpus(model, trajs, 2);
        let emb = db.embedding(0).to_vec();
        let _ = db.search(&emb[..], &Query::new(2).rerank(&Hausdorff));
    }

    #[test]
    fn instrumented_search_records_stage_metrics() {
        let (model, trajs) = trained_model_and_corpus();
        let mut db = SimilarityDb::with_corpus(model, trajs.clone(), 2);
        let registry = Registry::new();
        db.instrument(&registry);
        let _ = db.search(&trajs[0], &Query::new(3));
        let _ = db.search_batch(&trajs[..4], &Query::new(3).shortlist(8).rerank(&Hausdorff));
        let report = registry.snapshot();
        let counter = |name: &str| {
            report
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("missing {name}"))
                .1
        };
        assert_eq!(counter("neutraj_db_queries_total"), 5);
        assert_eq!(counter("neutraj_db_candidates_total"), 3 + 4 * 8);
        let gauge = report
            .gauges
            .iter()
            .find(|(n, _)| n == "neutraj_db_corpus_size")
            .expect("corpus size gauge")
            .1;
        assert_eq!(gauge, trajs.len() as f64);
        let hist = |name: &str| {
            report
                .histograms
                .iter()
                .find(|h| h.name == name)
                .unwrap_or_else(|| panic!("missing {name}"))
        };
        assert_eq!(hist("neutraj_db_embed_seconds").count, 2);
        assert_eq!(hist("neutraj_db_scan_seconds").count, 2);
        assert_eq!(hist("neutraj_db_rerank_seconds").count, 1);
        // Instrumentation must not change results.
        let mut plain = db.clone();
        plain.clear_instrumentation();
        assert_eq!(
            db.search(&trajs[1], &Query::new(5)).unwrap(),
            plain.search(&trajs[1], &Query::new(5)).unwrap()
        );
    }

    #[test]
    fn rerank_orders_by_exact_distance() {
        let (model, trajs) = trained_model_and_corpus();
        let db = SimilarityDb::with_corpus(model, trajs.clone(), 2);
        let res = db
            .search(&trajs[3], &Query::new(5).shortlist(10).rerank(&Hausdorff))
            .unwrap();
        assert_eq!(res.len(), 5);
        assert_eq!(res[0].index, 3); // exact self-distance 0
        for w in res.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
    }

    #[test]
    fn similarity_join_is_sound_and_recalls_with_wide_radius() {
        let (model, trajs) = trained_model_and_corpus();
        let db = SimilarityDb::with_corpus(model, trajs.clone(), 2);
        // Exact reference join.
        let grid = db.model().grid().clone();
        let rescaled: Vec<Trajectory> = trajs.iter().map(|t| grid.rescale_trajectory(t)).collect();
        let tau = 3.0; // grid units
        let mut truth = Vec::new();
        for i in 0..trajs.len() {
            for j in i + 1..trajs.len() {
                let d = Hausdorff.dist(rescaled[i].points(), rescaled[j].points());
                if d <= tau {
                    truth.push((i, j));
                }
            }
        }
        // Infinite radius ⇒ the join must equal the exact join.
        let full = db.similarity_join(&Hausdorff, tau, f64::INFINITY);
        let full_pairs: Vec<(usize, usize)> = full.iter().map(|&(i, j, _)| (i, j)).collect();
        let mut sorted_truth = truth.clone();
        sorted_truth.sort_unstable();
        let mut sorted_full = full_pairs.clone();
        sorted_full.sort_unstable();
        assert_eq!(sorted_full, sorted_truth);
        // Soundness at any radius: results ⊆ exact join, distances ≤ tau,
        // ascending order.
        let pruned = db.similarity_join(&Hausdorff, tau, 1.0);
        for w in pruned.windows(2) {
            assert!(w[0].2 <= w[1].2);
        }
        for &(i, j, d) in &pruned {
            assert!(d <= tau);
            assert!(sorted_truth.binary_search(&(i, j)).is_ok());
        }
        assert!(pruned.len() <= full.len());
    }

    #[test]
    fn ann_query_matches_exhaustive_at_full_probe_and_stays_synced() {
        let (model, trajs) = trained_model_and_corpus();
        let mut db = SimilarityDb::with_corpus(model, trajs[..30].to_vec(), 2);
        db.build_ann_index(&AnnParams {
            nlists: 5,
            ..Default::default()
        })
        .unwrap();
        let nlists = db.ann_index().unwrap().nlists();
        // Probing every list is the exhaustive scan, bit for bit — for
        // every target flavor.
        let exhaustive = db.search(&trajs[3], &Query::new(6)).unwrap();
        let ann = db
            .search(&trajs[3], &Query::new(6).shortlist_ann(nlists))
            .unwrap();
        assert_eq!(exhaustive, ann);
        let by_idx = db.search(3usize, &Query::new(6)).unwrap();
        let by_idx_ann = db
            .search(3usize, &Query::new(6).shortlist_ann(nlists))
            .unwrap();
        assert_eq!(by_idx, by_idx_ann);
        let batch = db.search_batch(&trajs[..4], &Query::new(6)).unwrap();
        let batch_ann = db
            .search_batch(&trajs[..4], &Query::new(6).shortlist_ann(nlists))
            .unwrap();
        assert_eq!(batch, batch_ann);
        // nprobe = 1 still finds the stored item itself (its embedding
        // sits in the cell the probe lands in).
        let res = db
            .search(&trajs[3], &Query::new(1).shortlist_ann(1))
            .unwrap();
        assert_eq!(res[0].index, 3);
        // ANN composes with exact re-ranking.
        let rr = db
            .search(
                &trajs[3],
                &Query::new(3)
                    .shortlist(10)
                    .shortlist_ann(nlists)
                    .rerank(&Hausdorff),
            )
            .unwrap();
        assert_eq!(rr[0].index, 3);
        // Inserts keep the index in lockstep (assign-to-nearest), so ANN
        // queries keep working and can return the new item.
        let idx = db.insert(trajs[35].clone()).unwrap();
        assert_eq!(db.ann_index().unwrap().len(), db.len());
        let res = db
            .search(&trajs[35], &Query::new(1).shortlist_ann(nlists))
            .unwrap();
        assert_eq!(res[0].index, idx);
        // Rebuild equals the grown index only after retraining; but a
        // bulk rebuild over the same corpus must still satisfy ANN ==
        // exhaustive at full probe.
        db.build_ann_index(&AnnParams {
            nlists: 5,
            ..Default::default()
        })
        .unwrap();
        let nlists = db.ann_index().unwrap().nlists();
        assert_eq!(
            db.search(&trajs[8], &Query::new(5)).unwrap(),
            db.search(&trajs[8], &Query::new(5).shortlist_ann(nlists))
                .unwrap()
        );
    }

    #[test]
    fn invalid_query_configs_are_rejected_with_typed_errors() {
        let (model, trajs) = trained_model_and_corpus();
        let registry = Registry::new();
        let mut db = SimilarityDb::with_corpus(model, trajs.clone(), 2);
        db.instrument(&registry);

        // ANN query without an index.
        let err = db
            .search(&trajs[0], &Query::new(3).shortlist_ann(4))
            .unwrap_err();
        assert!(matches!(err, DbError::InvalidConfig(_)), "{err}");

        db.build_ann_index(&AnnParams {
            nlists: 4,
            ..Default::default()
        })
        .unwrap();

        // nprobe == 0.
        let err = db
            .search(&trajs[0], &Query::new(3).shortlist_ann(0))
            .unwrap_err();
        assert!(matches!(err, DbError::InvalidConfig(_)), "{err}");
        let err = db
            .search_batch(&trajs[..2], &Query::new(3).shortlist_ann(0))
            .unwrap_err();
        assert!(matches!(err, DbError::InvalidConfig(_)), "{err}");

        // Re-rank shortlist narrower than k.
        let err = db
            .search(&trajs[0], &Query::new(10).shortlist(4).rerank(&Hausdorff))
            .unwrap_err();
        assert!(matches!(err, DbError::InvalidConfig(_)), "{err}");
        let err = db
            .search_batch(&trajs[..2], &Query::new(10).shortlist(4).rerank(&Hausdorff))
            .unwrap_err();
        assert!(matches!(err, DbError::InvalidConfig(_)), "{err}");

        // An explicit shortlist narrower than k is a misconfiguration
        // even without a re-rank (it was silently ignored historically).
        let err = db
            .search(&trajs[0], &Query::new(10).shortlist(4))
            .unwrap_err();
        assert!(matches!(err, DbError::InvalidConfig(_)), "{err}");

        // k == 0 is a typed rejection, not a silent empty result.
        let err = db.search(&trajs[0], &Query::new(0)).unwrap_err();
        assert!(matches!(err, DbError::InvalidConfig(_)), "{err}");
        let err = db.search_batch(&trajs[..2], &Query::new(0)).unwrap_err();
        assert!(matches!(err, DbError::InvalidConfig(_)), "{err}");
        let err = db
            .scan_embeddings(&[db.embedding(0)], 3, &Query::new(0))
            .unwrap_err();
        assert!(matches!(err, DbError::InvalidConfig(_)), "{err}");

        // The scan seam also validates raw embeddings.
        let short = vec![0.0; db.model().dim() - 1];
        let err = db
            .scan_embeddings(&[&short[..]], 3, &Query::new(3))
            .unwrap_err();
        assert!(matches!(err, DbError::InvalidEmbedding(_)), "{err}");
        let nan = vec![f64::NAN; db.model().dim()];
        let err = db
            .scan_embeddings(&[&nan[..]], 3, &Query::new(3))
            .unwrap_err();
        assert!(matches!(err, DbError::InvalidEmbedding(_)), "{err}");

        // Build-time misconfiguration.
        let err = db
            .build_ann_index(&AnnParams {
                nlists: 0,
                ..Default::default()
            })
            .unwrap_err();
        assert!(matches!(err, DbError::InvalidConfig(_)), "{err}");
        let mut empty = SimilarityDb::new(db.model().clone());
        let err = empty.build_ann_index(&AnnParams::default()).unwrap_err();
        assert!(matches!(err, DbError::InvalidConfig(_)), "{err}");

        // A foreign index that doesn't match the corpus.
        let tiny = {
            let q = KMeans::from_centroids(db.model().dim(), vec![0.0; db.model().dim()]);
            IvfIndex::from_parts(q, vec![Vec::new()])
        };
        let err = db.set_ann_index(tiny).unwrap_err();
        assert!(matches!(err, DbError::InvalidConfig(_)), "{err}");

        // Every instrumented rejection above was counted (the empty-db
        // one went to an uninstrumented db).
        assert_eq!(registry.counter(names::DB_REJECTS_TOTAL).get(), 13);
        // Valid ANN traffic still flows.
        assert!(db
            .search(&trajs[0], &Query::new(3).shortlist_ann(2))
            .is_ok());
    }

    #[test]
    fn ann_metrics_record_probe_work() {
        let (model, trajs) = trained_model_and_corpus();
        let registry = Registry::new();
        let mut db = SimilarityDb::with_corpus(model, trajs.clone(), 2);
        db.build_ann_index(&AnnParams {
            nlists: 5,
            ..Default::default()
        })
        .unwrap();
        db.instrument(&registry);
        let nlists = db.ann_index().unwrap().nlists();
        let _ = db
            .search_batch(&trajs[..3], &Query::new(4).shortlist_ann(2))
            .unwrap();
        let _ = db
            .search(&trajs[0], &Query::new(4).shortlist_ann(nlists))
            .unwrap();
        let report = registry.snapshot();
        let counter = |name: &str| {
            report
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("missing {name}"))
                .1
        };
        assert_eq!(
            counter(names::ANN_LISTS_PROBED_TOTAL),
            (3 * 2 + nlists) as u64
        );
        // Full probe scans the whole corpus; partial probes scan a
        // nonempty subset.
        let scanned = counter(names::ANN_CANDIDATES_SCANNED_TOTAL);
        assert!(scanned >= db.len() as u64, "scanned {scanned}");
        let depth = report
            .histograms
            .iter()
            .find(|h| h.name == names::ANN_RERANK_DEPTH)
            .expect("rerank depth histogram");
        assert_eq!(depth.count, 2);
        // Exhaustive queries record no ANN work.
        let before = counter(names::ANN_LISTS_PROBED_TOTAL);
        let _ = db.search(&trajs[1], &Query::new(4)).unwrap();
        let report = registry.snapshot();
        let after = report
            .counters
            .iter()
            .find(|(n, _)| n == names::ANN_LISTS_PROBED_TOTAL)
            .unwrap()
            .1;
        assert_eq!(before, after);
    }

    #[test]
    fn ann_index_persists_through_the_sealed_envelope() {
        let (model, trajs) = trained_model_and_corpus();
        let mut db = SimilarityDb::with_corpus(model, trajs.clone(), 2);
        let dir = std::env::temp_dir().join(format!("neutraj-ann-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.ivf");

        // Nothing to save yet.
        assert!(db.save_ann_index(&path).is_err());
        db.build_ann_index(&AnnParams {
            nlists: 4,
            ..Default::default()
        })
        .unwrap();
        db.save_ann_index(&path).unwrap();
        let saved = db.ann_index().unwrap().clone();
        db.clear_ann_index();
        assert!(db.ann_index().is_none());
        db.load_ann_index(&path).unwrap();
        assert_eq!(db.ann_index().unwrap(), &saved);

        // A flipped payload byte fails the envelope CRC.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        let bad = dir.join("corrupt.ivf");
        std::fs::write(&bad, &bytes).unwrap();
        assert!(db.load_ann_index(&bad).is_err());
        // The db keeps serving from the previously loaded index.
        assert!(db.ann_index().is_some());

        // An index for a different corpus is rejected at load time.
        let mut small = SimilarityDb::with_corpus(db.model().clone(), trajs[..10].to_vec(), 2);
        small
            .build_ann_index(&AnnParams {
                nlists: 3,
                ..Default::default()
            })
            .unwrap();
        let other = dir.join("other.ivf");
        small.save_ann_index(&other).unwrap();
        assert!(db.load_ann_index(&other).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quantized_query_matches_exhaustive_on_small_corpus() {
        let (model, trajs) = trained_model_and_corpus();
        let registry = Registry::new();
        let mut db = SimilarityDb::with_corpus(model, trajs[..30].to_vec(), 2);
        db.instrument(&registry);

        // Without the int8 view the query is a typed config rejection.
        let err = db
            .search(&trajs[3], &Query::new(6).quantized())
            .unwrap_err();
        assert!(matches!(err, DbError::InvalidConfig(_)), "{err}");

        db.build_quantized_store();
        // At 30 rows the over-fetched shortlist covers the whole corpus,
        // so the exact rerank makes quantized == exhaustive, bit for bit,
        // for every target flavor.
        let q = Query::new(6);
        let qq = Query::new(6).quantized();
        assert_eq!(
            db.search(&trajs[3], &q).unwrap(),
            db.search(&trajs[3], &qq).unwrap()
        );
        assert_eq!(
            db.search(3usize, &q).unwrap(),
            db.search(3usize, &qq).unwrap()
        );
        assert_eq!(
            db.search_batch(&trajs[..4], &q).unwrap(),
            db.search_batch(&trajs[..4], &qq).unwrap()
        );

        // Composes with the IVF shortlist: full probe == exhaustive.
        db.build_ann_index(&AnnParams {
            nlists: 5,
            ..Default::default()
        })
        .unwrap();
        let nlists = db.ann_index().unwrap().nlists();
        assert_eq!(
            db.search(&trajs[3], &q).unwrap(),
            db.search(&trajs[3], &Query::new(6).quantized().shortlist_ann(nlists))
                .unwrap()
        );
        // And with exact re-ranking.
        let rr = db
            .search(
                &trajs[3],
                &Query::new(3).shortlist(10).quantized().rerank(&Hausdorff),
            )
            .unwrap();
        assert_eq!(rr[0].index, 3);

        // Inserts keep the view in lockstep.
        let idx = db.insert(trajs[35].clone()).unwrap();
        assert_eq!(db.quantized_store().unwrap().len(), db.len());
        let res = db.search(&trajs[35], &Query::new(1).quantized()).unwrap();
        assert_eq!(res[0].index, idx);

        // The quantized work was counted, and each scored row cost
        // dim + 16 bytes (vs 8·dim + 8 on the f64 path).
        let report = registry.snapshot();
        let counter = |name: &str| {
            report
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("missing {name}"))
                .1
        };
        let rows = counter(names::QUANT_ROWS_SCANNED_TOTAL);
        assert!(rows > 0);
        assert_eq!(
            counter(names::QUANT_BYTES_SCANNED_TOTAL),
            rows * (db.model().dim() as u64 + 16)
        );
    }

    #[test]
    fn quantized_store_persists_through_the_sealed_envelope() {
        let (model, trajs) = trained_model_and_corpus();
        let mut db = SimilarityDb::with_corpus(model, trajs.clone(), 2);
        let dir = std::env::temp_dir().join(format!("neutraj-ntq08-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.ntq08");

        // Nothing to save yet.
        assert!(db.save_quantized_store(&path).is_err());
        db.build_quantized_store();
        db.save_quantized_store(&path).unwrap();
        let saved = db.quantized_store().unwrap().clone();
        db.clear_quantized_store();
        assert!(db.quantized_store().is_none());
        db.load_quantized_store(&path).unwrap();
        assert_eq!(db.quantized_store().unwrap(), &saved);

        // A flipped payload byte fails the envelope CRC.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        let bad = dir.join("corrupt.ntq08");
        std::fs::write(&bad, &bytes).unwrap();
        assert!(db.load_quantized_store(&bad).is_err());
        // The db keeps serving from the previously loaded view.
        assert!(db.quantized_store().is_some());

        // A view for a different corpus is rejected at load time.
        let mut small = SimilarityDb::with_corpus(db.model().clone(), trajs[..10].to_vec(), 2);
        small.build_quantized_store();
        let other = dir.join("other.ntq08");
        small.save_quantized_store(&other).unwrap();
        assert!(db.load_quantized_store(&other).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pair_similarity_bounds() {
        let (model, trajs) = trained_model_and_corpus();
        let db = SimilarityDb::with_corpus(model, trajs, 2);
        assert!((db.pair_similarity(0, 0) - 1.0).abs() < 1e-12);
        let g = db.pair_similarity(0, 1);
        assert!(g > 0.0 && g <= 1.0);
        assert_eq!(db.pair_similarity(0, 1), db.pair_similarity(1, 0));
    }
}
