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
//! `k`, the shortlist width, and optional exact re-ranking. When
//! instrumented via [`SimilarityDb::instrument`], every query records
//! per-stage latencies (embed / scan / re-rank) and counters into a
//! [`Registry`](neutraj_obs::Registry).
//!
//! At million-trajectory scale the exhaustive `O(N·d)` scan itself
//! becomes the bottleneck; [`SimilarityDb::build_ann_index`] trains an
//! IVF index (k-means coarse quantizer + inverted lists) over the stored
//! embeddings, and [`Query::shortlist_ann`] routes the scan through it —
//! probe the `nprobe` nearest cells, exactly score only their members.
//! Scored distances are bit-identical to the exhaustive scan's (only
//! recall is approximate) and inserts keep the index in lockstep. The
//! HNSW graph ([`SimilarityDb::build_graph_index`]) is the other
//! [`ShortlistView`]; both are installed, dropped and persisted inside
//! the standard CRC-sealed envelope by the same four methods
//! ([`SimilarityDb::set_view`], [`clear_view`](SimilarityDb::clear_view),
//! [`save_view`](SimilarityDb::save_view),
//! [`load_view`](SimilarityDb::load_view)). The store's int8 codes are
//! no view: they are a column of the store itself, which every exact
//! scan reads (see the `search` module).

use crate::backbone::NeuTrajModel;
use crate::chunks::Chunks;
use crate::loss::pair_similarity;
use crate::persist::{load_sealed, save_sealed, PersistError};
use crate::quant::QuantizedStore;
use crate::query::{Query, QueryOf, QueryTarget};
use crate::search::{EmbeddingStore, ScanStats};
use neutraj_cluster::{KMeans, KMeansParams};
use neutraj_index::{HnswCodecError, HnswIndex, HnswParams, IvfCodecError, IvfIndex};
use neutraj_measures::{GroundTruthEngine, Measure, Neighbor};
use neutraj_obs::{names, Counter, Gauge, Histogram, Registry};
use neutraj_trajectory::{Grid, Point, TrajError, Trajectory};
use std::borrow::Borrow;
use std::path::Path;

/// The stored trajectories, in chunks a database shares with its
/// [`SimilarityDb::inserted`] successors.
type Rows = Chunks<Vec<Trajectory>>;

/// One shortlist view over the stored embeddings — the IVF index or the
/// HNSW graph — seen only as something the database
/// keeps: a row count that grows in lockstep with the store, and one
/// sealed section to travel as. [`SimilarityDb::set_view`],
/// [`clear_view`](SimilarityDb::clear_view),
/// [`save_view`](SimilarityDb::save_view) and
/// [`load_view`](SimilarityDb::load_view) are written once against it;
/// building takes different parameters per view and scanning is a
/// different algorithm per view, so those stay separate.
pub trait ShortlistView: Sized {
    /// What error messages call the view.
    const NAME: &'static str;
    /// Why a section failed to decode.
    type DecodeError: std::fmt::Display;
    /// Rows covered; equals the corpus size while installed.
    fn rows(&self) -> usize;
    /// Row dimensionality, for a view that stores vectors (the graph
    /// stores none).
    fn dim(&self) -> Option<usize>;
    /// The view's section bytes (`NTIVF01`, `NTHNSW01`).
    fn encode(&self) -> Vec<u8>;
    /// Parses a section written by [`Self::encode`], checking its
    /// structural invariants.
    fn decode(bytes: &[u8]) -> Result<Self, Self::DecodeError>;
    #[doc(hidden)]
    fn slot(db: &SimilarityDb) -> Option<&Self>;
    /// Installs `view` (already checked to fit) or, with `None`, drops
    /// the installed one.
    #[doc(hidden)]
    fn install(db: &mut SimilarityDb, view: Option<Self>);
}

impl ShortlistView for IvfIndex {
    const NAME: &'static str = "ann index";
    type DecodeError = IvfCodecError;
    fn rows(&self) -> usize {
        self.len()
    }
    fn dim(&self) -> Option<usize> {
        Some(IvfIndex::dim(self))
    }
    fn encode(&self) -> Vec<u8> {
        self.to_bytes()
    }
    fn decode(bytes: &[u8]) -> Result<Self, IvfCodecError> {
        Self::from_bytes(bytes)
    }
    fn slot(db: &SimilarityDb) -> Option<&Self> {
        db.ann.as_ref()
    }
    fn install(db: &mut SimilarityDb, view: Option<Self>) {
        db.ann = view;
    }
}

impl ShortlistView for HnswIndex {
    const NAME: &'static str = "graph index";
    type DecodeError = HnswCodecError;
    fn rows(&self) -> usize {
        self.len()
    }
    fn dim(&self) -> Option<usize> {
        None
    }
    fn encode(&self) -> Vec<u8> {
        self.to_bytes()
    }
    fn decode(bytes: &[u8]) -> Result<Self, HnswCodecError> {
        Self::from_bytes(bytes)
    }
    fn slot(db: &SimilarityDb) -> Option<&Self> {
        db.graph.as_ref()
    }
    fn install(db: &mut SimilarityDb, view: Option<Self>) {
        db.graph = view;
    }
}

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
    exact_bound_survivors: Histogram,
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
            exact_bound_survivors: registry.histogram(names::EXACT_BOUND_SURVIVORS),
        }
    }

    /// Folds one batched scan's work into the `neutraj_ann_*`,
    /// `neutraj_graph_*`, `neutraj_quant_*` and
    /// `neutraj_exact_bound_survivors` series — the one place
    /// [`ScanStats`] become metrics, for the database and for a bench
    /// that drives a store directly. `ef` is the beam width of a graph
    /// scan (`None` for every other path); `queries` and `corpus` size
    /// the batch.
    pub fn record_scan(&self, stats: &ScanStats, ef: Option<usize>, queries: usize, corpus: usize) {
        if let Some(survivors) = stats.survivors_per_query(queries) {
            self.exact_bound_survivors.observe(survivors);
        }
        self.ann_lists_probed.add(stats.lists_probed as u64);
        self.graph_hops.add(stats.hops as u64);
        self.graph_links_scanned.add(stats.links_scanned as u64);
        self.quant_rows_scanned.add(stats.rows_scanned as u64);
        self.quant_bytes_scanned.add(stats.bytes_scanned as u64);
        // Rows scored exactly in f64 belong to the graph walk when there
        // is a beam, else to the IVF probe (the exact scan counts none).
        let (scanned, depth) = match ef {
            Some(ef) => {
                self.graph_ef.observe(ef as f64);
                (&self.graph_candidates_scanned, &self.graph_rerank_depth)
            }
            None => (&self.ann_candidates_scanned, &self.ann_rerank_depth),
        };
        if stats.candidates_scanned > 0 {
            scanned.add(stats.candidates_scanned as u64);
            // Fraction of the corpus exactly scored per query — the
            // realized sub-linearity of the shortlist.
            let denom = (queries.max(1) * corpus.max(1)) as f64;
            depth.observe(stats.candidates_scanned as f64 / denom);
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
/// `O(N·d)` exact cascade through the backing [`EmbeddingStore`] (a
/// batch of queries reads the store's int8 codes once). The database
/// owns its trajectories so results can be re-ranked with an exact
/// measure on demand.
#[derive(Debug, Clone)]
pub struct SimilarityDb {
    model: NeuTrajModel,
    trajectories: Rows,
    /// Embeddings + precomputed row norms for norm-trick scans.
    embeddings: EmbeddingStore,
    /// The [`ShortlistView`]s over the embeddings — IVF index, HNSW
    /// graph. Each is off until its `build_*` (or a
    /// [`SimilarityDb::load_view`]) installs it, and from then on
    /// [`SimilarityDb::insert`] keeps it in lockstep with the store.
    ann: Option<IvfIndex>,
    graph: Option<HnswIndex>,
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
            trajectories: Rows::default(),
            embeddings: store,
            ann: None,
            graph: None,
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
        self.len() == 0
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
        // One transient contiguous copy of the rows, gone on return.
        let flat = self.embeddings.to_flat();
        let quantizer = KMeans::fit(
            &flat,
            self.embeddings.dim(),
            &KMeansParams {
                k: params.nlists,
                max_iters: params.train_iters,
                sample: params.train_sample,
                seed: params.seed,
            },
        );
        self.ann = Some(IvfIndex::build(quantizer, &flat));
        Ok(())
    }

    /// The current ANN index, when one is built or loaded.
    pub fn ann_index(&self) -> Option<&IvfIndex> {
        self.ann.as_ref()
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

    /// The store's int8 codes — every row quantized, on its own scale,
    /// when it was pushed. Always `Some`: the `Option` is a compatibility
    /// spelling from when the codes were an optional view.
    pub fn quantized_store(&self) -> Option<&QuantizedStore> {
        Some(self.embeddings.codes())
    }

    /// Installs an externally built view after checking it matches the
    /// corpus (row count, and dimensionality where the view has one).
    pub fn set_view<V: ShortlistView>(&mut self, view: V) -> Result<(), DbError> {
        let dim = self.embeddings.dim();
        let view_dim = view.dim().unwrap_or(dim);
        if view_dim != dim || view.rows() != self.len() {
            return Err(self.reject(DbError::InvalidConfig(format!(
                "{} (dim {view_dim}, {} rows) does not match corpus (dim {dim}, {} rows)",
                V::NAME,
                view.rows(),
                self.len()
            ))));
        }
        V::install(self, Some(view));
        Ok(())
    }

    /// Drops view `V`; queries that ask for it start failing with
    /// [`DbError::InvalidConfig`] while other paths are unaffected.
    pub fn clear_view<V: ShortlistView>(&mut self) {
        V::install(self, None);
    }

    /// Persists view `V` to `path` inside the standard sealed envelope
    /// (`NTFILE01` magic + length + CRC around the view's section),
    /// written atomically via a same-directory temp file. Errors when the
    /// view is not built.
    pub fn save_view<V: ShortlistView>(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        let view = V::slot(self).ok_or_else(|| {
            PersistError::Format(format!("no {} to save: build one first", V::NAME))
        })?;
        save_sealed(path.as_ref(), &view.encode())
    }

    /// Loads and installs a view written by [`SimilarityDb::save_view`],
    /// verifying the envelope CRC, the section's structural invariants,
    /// and that the view matches the current corpus. On any error the
    /// installed view, if there is one, stays.
    pub fn load_view<V: ShortlistView>(
        &mut self,
        path: impl AsRef<Path>,
    ) -> Result<(), PersistError> {
        let view = V::decode(&load_sealed(path.as_ref())?)
            .map_err(|e| PersistError::Corrupted(e.to_string()))?;
        self.set_view(view)
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

    /// Validates a raw query embedding: the model's dimension, finite.
    fn check_embedding(&self, e: &[f64]) -> Result<(), DbError> {
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
        Ok(())
    }

    /// Validates a query *configuration* at the same boundary: typed
    /// [`DbError::InvalidConfig`] (counted as a reject), never a panic.
    /// The database-independent invariants (`k == 0`, explicit shortlist
    /// narrower than `k`, `nprobe == 0`, …) live in [`QueryOf::validate`]
    /// so the serving layer can apply the identical contract before
    /// queueing; the checks against *this* database's state (the view a
    /// knob routes through is actually built) follow here.
    fn check_query<M: Copy>(&self, query: &QueryOf<M>) -> Result<(), DbError> {
        if let Err(reason) = query.validate() {
            return Err(self.reject(DbError::InvalidConfig(reason)));
        }
        self.require::<IvfIndex>(query.ann_nprobe().is_some(), "shortlist_ann")?;
        self.require::<HnswIndex>(query.graph_ef().is_some(), "shortlist_graph")
    }

    /// A query `knob` that routes through view `V` needs `V` installed.
    fn require<V: ShortlistView>(&self, asked: bool, knob: &str) -> Result<(), DbError> {
        if asked && V::slot(self).is_none() {
            return Err(self.reject(DbError::InvalidConfig(format!(
                "{knob} needs the {}: build or load one first",
                V::NAME
            ))));
        }
        Ok(())
    }

    /// The embedding-space scan stage shared by every search path: the
    /// exhaustive exact scan, or whichever shortlist view the query
    /// asks for — IVF lists or the graph — with the work it did recorded
    /// in one place. Never reads the re-rank measure. Configuration has
    /// already passed [`Self::check_query`].
    fn scan_batch<M: Copy>(
        &self,
        qrefs: &[&[f64]],
        fetch: usize,
        query: &QueryOf<M>,
    ) -> (Vec<Vec<Neighbor>>, ScanStats) {
        const BUILT: &str = "check_query verified the view is built";
        let store = &self.embeddings;
        // The beam must be at least as wide as the fetch depth or the
        // shortlist could never fill it.
        let ef = query.graph_ef().map(|ef| ef.max(fetch));
        let (shorts, stats) = match (ef, query.ann_nprobe()) {
            (Some(ef), _) => {
                store.knn_graph_batch(qrefs, fetch, self.graph.as_ref().expect(BUILT), ef)
            }
            (None, Some(nprobe)) => {
                store.knn_ann_batch(qrefs, fetch, self.ann.as_ref().expect(BUILT), nprobe)
            }
            (None, None) => store.knn_batch_with_stats(qrefs, fetch),
        };
        if let Some(m) = &self.metrics {
            m.record_scan(&stats, ef, qrefs.len(), self.len());
        }
        (shorts, stats)
    }

    /// The embedding-space scan stage as a public seam: top-`fetch`
    /// neighbors for each already-embedded query, through whichever path
    /// `query` selects (exhaustive scan, IVF shortlist, graph), *without*
    /// the re-rank stage or `k` truncation — so it takes
    /// either query form and never looks at the measure. The scan's
    /// [`ScanStats`] come back beside the lists, for a caller that keeps
    /// its own metrics.
    ///
    /// This is what a sharded serving layer needs from each partition:
    /// each shard returns its local top-`fetch` list, the results are
    /// merged under the scan's `(dist, index)` total order, and any
    /// re-ranking happens once, globally. Because the per-row norm-trick
    /// score is a pure function of (query row, corpus row) — independent
    /// of batch size and of how the cascade reads the codes — a merged
    /// sharded scan is bit-identical to the unsharded scan over the
    /// concatenated corpus.
    ///
    /// Validates the query configuration and each embedding (dimension,
    /// finiteness) with the same typed rejections as
    /// [`SimilarityDb::search`].
    pub fn scan_embeddings<M: Copy>(
        &self,
        qrefs: &[&[f64]],
        fetch: usize,
        query: &QueryOf<M>,
    ) -> Result<(Vec<Vec<Neighbor>>, ScanStats), DbError> {
        self.check_query(query)?;
        for e in qrefs {
            self.check_embedding(e)?;
        }
        Ok(self.scan_batch(qrefs, fetch, query))
    }

    /// Appends one embedded row to the store (its norm and codes with
    /// it) and to the IVF lists and the graph when built: the new row is
    /// assigned to its nearest centroid (no retraining — rebuild for
    /// that), and gets its hashed level and links immediately (a
    /// one-node construction round), so graph queries see every row.
    fn append_row(&mut self, e: &[f64]) {
        self.embeddings.push(e);
        if let Some(ann) = &mut self.ann {
            ann.insert(e);
        }
        if let Some(graph) = &mut self.graph {
            self.embeddings.link_last_row(graph);
        }
    }

    /// Appends embedded rows and the trajectories they came from.
    fn append_rows(&mut self, embs: &[Vec<f64>], ts: impl IntoIterator<Item = Trajectory>) {
        for e in embs {
            self.append_row(e);
        }
        self.trajectories.extend(ts);
        debug_assert_eq!(self.len(), self.embeddings.len());
        if let Some(m) = &self.metrics {
            m.corpus_size.set(self.len() as f64);
        }
    }

    /// Validates every trajectory of a batch, then embeds them with the
    /// lockstep batched forward on `threads` workers — nothing is
    /// embedded when one is rejected.
    fn embed_checked<T: Borrow<Trajectory> + Sync>(
        &self,
        ts: &[T],
        threads: usize,
    ) -> Result<Vec<Vec<f64>>, DbError> {
        for t in ts {
            self.check(t.borrow())?;
        }
        Ok(self.model.embed_all(ts, threads))
    }

    /// Inserts one trajectory; returns its index. Empty or non-finite
    /// trajectories are rejected *before* embedding, leaving the store
    /// untouched.
    pub fn insert(&mut self, t: Trajectory) -> Result<usize, DbError> {
        self.check(&t)?;
        let e = self.model.embed(&t);
        self.append_rows(&[e], [t]);
        Ok(self.len() - 1)
    }

    /// Inserts many trajectories, embedding them with the lockstep
    /// batched forward on `threads` workers. All-or-nothing: every
    /// trajectory is validated *first*, and a single invalid one rejects
    /// the whole batch with the store unchanged — a partially applied
    /// batch would leave callers guessing which indices exist.
    pub fn insert_batch(&mut self, ts: Vec<Trajectory>, threads: usize) -> Result<(), DbError> {
        let embs = self.embed_checked(&ts, threads)?;
        self.append_rows(&embs, ts);
        Ok(())
    }

    /// The next database with `ts` appended; `self` is untouched, so
    /// readers holding it are undisturbed (the copy-on-write step of a
    /// snapshot rotation). All-or-nothing like [`Self::insert_batch`], and
    /// it costs its rows plus at most one partial chunk per list: the
    /// trajectories and the embedding store — rows, norms and codes —
    /// are shared with `self` in chunks (64 rows, 512 for the codes), and
    /// the new rows go in through the same append as every other insert,
    /// copying a shared last chunk first. Each trajectory is copied once,
    /// into its chunk. The IVF lists and the graph are cloned whole — an
    /// insert may edit any list and many graph nodes.
    pub fn inserted<T: Borrow<Trajectory> + Sync>(
        &self,
        ts: &[T],
        threads: usize,
    ) -> Result<Self, DbError> {
        let embs = self.embed_checked(ts, threads)?;
        let mut next = self.clone();
        next.append_rows(&embs, ts.iter().map(|t| t.borrow().clone()));
        Ok(next)
    }

    /// How many of `parent`'s full chunks this database holds by pointer
    /// rather than by copy, beside how many `parent` has — for the
    /// trajectories, the store's rows and norms, and its codes, in that
    /// order; each pair is equal after any chain of [`Self::inserted`]
    /// calls. A test probe: it is what notices a refactor that brings a
    /// deep copy back.
    #[doc(hidden)]
    pub fn shared_row_chunks(&self, parent: &Self) -> [(usize, usize); 3] {
        let [rows, codes] = self.embeddings.shared_chunks(&parent.embeddings);
        [
            self.trajectories.shared_with(&parent.trajectories),
            rows,
            codes,
        ]
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
    /// `neutraj_db_rejects_total` when instrumented). So does re-ranking
    /// a raw-embedding target ([`DbError::InvalidConfig`]): there is no
    /// trajectory to hand to the exact measure.
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
                self.check_embedding(e)?;
                if query.rerank_measure().is_some() {
                    return Err(self.reject(DbError::InvalidConfig(
                        "re-ranking needs a trajectory-backed target (a trajectory or a \
                         stored index), not a raw embedding"
                            .into(),
                    )));
                }
                Ok(self.search_resolved(e, None, None, query))
            }
            QueryTarget::Stored(idx) => {
                let Some(stored) = self.trajectories.get(idx) else {
                    return Err(self.reject(DbError::UnknownIndex {
                        index: idx,
                        len: self.len(),
                    }));
                };
                Ok(self.search_resolved(self.embeddings.get(idx), Some(stored), Some(idx), query))
            }
        }
    }

    /// Answers a whole batch of ad-hoc queries: one lockstep batched
    /// embed, then one exact scan of the corpus shared by every query (one
    /// read of its int8 codes), then (optionally) per-query exact
    /// re-ranking. Each
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
        let span = m.map(|m| m.scan_seconds.start_timer());
        let (shorts, _) = self.scan_batch(&qrefs, query.scan_fetch(), query);
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
                    .map(|(short, q)| {
                        let row = |i: usize| self.trajectories.row(i);
                        rerank_exact(self.model.grid(), short, q, row, measure, query.k())
                    })
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
        let want = query.scan_fetch();
        let fetch = want + usize::from(exclude.is_some());
        let span = m.map(|m| m.scan_seconds.start_timer());
        let mut short = self
            .scan_batch(&[emb], fetch, query)
            .0
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
                let qtraj = qtraj.expect("search rejected re-ranking a raw embedding");
                let span = m.map(|m| m.rerank_seconds.start_timer());
                let row = |i: usize| self.trajectories.row(i);
                let out = rerank_exact(self.model.grid(), short, qtraj, row, measure, query.k());
                drop(span);
                out
            }
        }
    }

    /// Learned similarity `g` between two *stored* items.
    pub fn pair_similarity(&self, i: usize, j: usize) -> f64 {
        pair_similarity(self.embedding(i), self.embedding(j))
    }
}

/// The exact re-rank stage: re-scores an embedding-space `shortlist` by
/// `measure` on grid-rescaled coordinates (so values match the training
/// scale), in [`neighbor_order`](neutraj_measures::neighbor_order) (ties
/// by index, a NaN distance last), truncated to `k`. `row` resolves a
/// shortlisted index to its trajectory — a database's own rows, or a
/// sharded snapshot's global ones — so both re-rank with this one
/// comparator.
///
/// The scoring is [`GroundTruthEngine::rerank`]: for the four paper
/// measures the ground-truth engine's bound cascade and lane kernels,
/// which return the bits of one [`Measure::dist`] per candidate without
/// computing most of them; any other measure takes `Measure::dist` per
/// candidate.
pub fn rerank_exact<'t>(
    grid: &Grid,
    shortlist: Vec<Neighbor>,
    query: &Trajectory,
    row: impl Fn(usize) -> &'t Trajectory,
    measure: &dyn Measure,
    k: usize,
) -> Vec<Neighbor> {
    let q = grid.rescale_trajectory(query);
    let rows: Vec<Trajectory> = shortlist
        .iter()
        .map(|n| grid.rescale_trajectory(row(n.index)))
        .collect();
    let candidates: Vec<(usize, &[Point])> = shortlist
        .iter()
        .zip(&rows)
        .map(|(n, t)| (n.index, t.points()))
        .collect();
    GroundTruthEngine::new(measure, &[]).rerank(q.points(), &candidates, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunks::{CHUNK, CODE_CHUNK};
    use crate::{TrainConfig, Trainer};
    use neutraj_measures::{partial_sort_neighbors, DistanceMatrix, Hausdorff};
    use neutraj_trajectory::gen::PortoLikeGenerator;
    use neutraj_trajectory::{Grid, Point};
    use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};

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
        let (got, stats) = db.scan_embeddings(&qrefs, 5, &Query::new(5)).unwrap();
        assert_eq!(
            (got.clone(), stats),
            db.store().knn_batch_with_stats(&qrefs, 5)
        );
        // The fetch width is explicit — the caller (a sharded merge)
        // controls it, not Query::k.
        let (wide, _) = db.scan_embeddings(&qrefs, 9, &Query::new(2)).unwrap();
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
    fn rerank_of_raw_embedding_is_a_typed_error() {
        let (model, trajs) = trained_model_and_corpus();
        let registry = Registry::new();
        let mut db = SimilarityDb::with_corpus(model, trajs, 2);
        db.instrument(&registry);
        let emb = db.embedding(0).to_vec();
        let err = db
            .search(&emb[..], &Query::new(2).rerank(&Hausdorff))
            .unwrap_err();
        assert!(matches!(err, DbError::InvalidConfig(_)), "{err}");
        assert!(
            err.to_string().contains("trajectory-backed target"),
            "{err}"
        );
        assert_eq!(registry.counter(names::DB_REJECTS_TOTAL).get(), 1);
        // The same embedding without the re-rank is served.
        assert_eq!(db.search(&emb[..], &Query::new(2)).unwrap()[0].index, 0);
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

    /// The `call`-th distance of [`NanEveryThird`]: NaN on every third
    /// call, a few tied values otherwise.
    fn nan_every_third(call: usize) -> f64 {
        if call.is_multiple_of(3) {
            f64::NAN
        } else {
            (call * 7 % 5) as f64
        }
    }

    /// A user measure that returns NaN for every third pair it scores.
    struct NanEveryThird(AtomicUsize);

    impl Measure for NanEveryThird {
        fn dist(&self, _: &[Point], _: &[Point]) -> f64 {
            nan_every_third(self.0.fetch_add(1, AtomicOrdering::Relaxed))
        }
        fn name(&self) -> &'static str {
            "nan_every_third"
        }
    }

    #[test]
    fn rerank_with_nan_distances_follows_neighbor_order() {
        let trajs = PortoLikeGenerator {
            num_trajectories: 40,
            max_len: 30,
            ..Default::default()
        }
        .generate(5)
        .trajectories()
        .to_vec();
        let grid = Grid::covering(&trajs, 100.0).unwrap();
        // Shortlisted in reverse, so the sort has to move every row.
        let shortlist: Vec<Neighbor> = (0..trajs.len())
            .rev()
            .map(|index| Neighbor { index, dist: 0.0 })
            .collect();
        let measure = NanEveryThird(AtomicUsize::new(0));
        let got = rerank_exact(
            &grid,
            shortlist.clone(),
            &trajs[0],
            |i| &trajs[i],
            &measure,
            30,
        );
        // The measure scores the shortlist once, in shortlist order.
        let mut want: Vec<Neighbor> = shortlist
            .iter()
            .enumerate()
            .map(|(call, n)| Neighbor {
                index: n.index,
                dist: nan_every_third(call),
            })
            .collect();
        partial_sort_neighbors(&mut want, 30);
        let bits = |v: &[Neighbor]| -> Vec<(usize, u64)> {
            v.iter().map(|n| (n.index, n.dist.to_bits())).collect()
        };
        assert_eq!(bits(&got), bits(&want));
        assert!(got[29].dist.is_nan(), "NaN distances sort last");
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
        let err = db.set_view(tiny).unwrap_err();
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
        let partial = registry.counter(names::ANN_CANDIDATES_SCANNED_TOTAL).get();
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
        // nonempty proper subset.
        let full = counter(names::ANN_CANDIDATES_SCANNED_TOTAL) - partial;
        assert_eq!(full, db.len() as u64);
        assert!(
            partial > 0 && partial < 3 * db.len() as u64,
            "scanned {partial}"
        );
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

    /// A "quantized" query is the plain one: exhaustive answers, bit for
    /// bit, for every target flavor and composed with IVF and re-ranking,
    /// with no view to build first.
    #[test]
    fn quantized_query_matches_exhaustive_on_small_corpus() {
        let (model, trajs) = trained_model_and_corpus();
        let registry = Registry::new();
        let mut db = SimilarityDb::with_corpus(model, trajs[..30].to_vec(), 2);
        db.instrument(&registry);

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

        // Inserts keep the store's codes in lockstep.
        let idx = db.insert(trajs[35].clone()).unwrap();
        assert_eq!(db.quantized_store().unwrap().len(), db.len());
        let res = db.search(&trajs[35], &Query::new(1).quantized()).unwrap();
        assert_eq!(res[0].index, idx);

        // Every exact scan streamed the codes, once per batch: a lone
        // query's scan and a batch of four cost the same bytes, dim + 32
        // a row (vs 8·dim + 8 on the f64 path), and the batch four times
        // the rows.
        let scanned = || {
            let report = registry.snapshot();
            let counter = |name: &str| {
                (report.counters.iter())
                    .find(|(n, _)| n == name)
                    .unwrap_or_else(|| panic!("missing {name}"))
                    .1
            };
            [
                counter(names::QUANT_ROWS_SCANNED_TOTAL),
                counter(names::QUANT_BYTES_SCANNED_TOTAL),
            ]
        };
        let (n, row_bytes) = (db.len() as u64, db.model().dim() as u64 + 32);
        for b in [1, 4] {
            let before = scanned();
            db.search_batch(&trajs[..b], &qq).unwrap();
            let after = scanned();
            let b = b as u64;
            assert_eq!(
                [after[0] - before[0], after[1] - before[1]],
                [b * n, n * row_bytes]
            );
        }
    }

    /// The whole life of one shortlist view, whichever it is: `build`
    /// builds it, `query` is a query only it can answer.
    fn view_lifecycle<V>(build: impl Fn(&mut SimilarityDb), query: Query)
    where
        V: ShortlistView + Clone + PartialEq + std::fmt::Debug,
    {
        let (model, trajs) = trained_model_and_corpus();
        let mut db = SimilarityDb::with_corpus(model, trajs[..36].to_vec(), 2);
        let tag = V::NAME.replace(' ', "-");
        let dir = std::env::temp_dir().join(format!("neutraj-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.view");

        // Nothing to save, nothing to ask, before the view is built.
        assert!(matches!(
            db.save_view::<V>(&path),
            Err(PersistError::Format(_))
        ));
        let err = db.search(&trajs[0], &query).unwrap_err();
        assert!(matches!(err, DbError::InvalidConfig(_)), "{err}");

        // Round trip: what loads is what was saved.
        build(&mut db);
        db.save_view::<V>(&path).unwrap();
        let saved = V::slot(&db).cloned().expect("just built");
        let answer = db.search(&trajs[0], &query).unwrap();
        db.clear_view::<V>();
        assert!(V::slot(&db).is_none());
        let err = db.search(&trajs[0], &query).unwrap_err();
        assert!(matches!(err, DbError::InvalidConfig(_)), "{err}");
        db.load_view::<V>(&path).unwrap();
        assert_eq!(V::slot(&db), Some(&saved));
        assert_eq!(db.search(&trajs[0], &query).unwrap(), answer);

        // A flipped payload byte fails the envelope CRC, and the db keeps
        // serving from the view it had.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        let bad = dir.join("corrupt.view");
        std::fs::write(&bad, &bytes).unwrap();
        assert!(matches!(
            db.load_view::<V>(&bad),
            Err(PersistError::Corrupted(_))
        ));
        assert_eq!(V::slot(&db), Some(&saved));

        // A view of a different corpus is rejected at load time.
        let mut small = SimilarityDb::with_corpus(db.model().clone(), trajs[..10].to_vec(), 2);
        build(&mut small);
        let other = dir.join("other.view");
        small.save_view::<V>(&other).unwrap();
        assert!(matches!(
            db.load_view::<V>(&other),
            Err(PersistError::Format(_))
        ));
        assert_eq!(V::slot(&db), Some(&saved));

        // Inserts, single and batched, keep the view in lockstep.
        db.insert(trajs[36].clone()).unwrap();
        db.insert_batch(trajs[37..].to_vec(), 2).unwrap();
        assert_eq!(V::slot(&db).unwrap().rows(), db.len());
        assert_eq!(db.len(), trajs.len());
        assert!(db.search(&trajs[39], &query).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ann_index_persists_through_the_sealed_envelope() {
        let params = AnnParams {
            nlists: 3,
            ..Default::default()
        };
        view_lifecycle::<IvfIndex>(
            |db| db.build_ann_index(&params).unwrap(),
            Query::new(3).shortlist_ann(2),
        );
    }

    #[test]
    fn graph_index_persists_through_the_sealed_envelope() {
        view_lifecycle::<HnswIndex>(
            |db| db.build_graph_index(&HnswParams::default(), 2).unwrap(),
            Query::new(3).shortlist_graph(16),
        );
    }

    /// The metric catalogue, database half: each scan path moves every
    /// series it owns and none of another path's.
    #[test]
    fn each_scan_path_moves_its_own_series_and_no_other() {
        use names::*;
        const SERIES: [&str; 11] = [
            ANN_LISTS_PROBED_TOTAL,
            ANN_CANDIDATES_SCANNED_TOTAL,
            ANN_RERANK_DEPTH,
            GRAPH_HOPS_TOTAL,
            GRAPH_CANDIDATES_SCANNED_TOTAL,
            GRAPH_LINKS_SCANNED_TOTAL,
            GRAPH_EF,
            GRAPH_RERANK_DEPTH,
            QUANT_ROWS_SCANNED_TOTAL,
            QUANT_BYTES_SCANNED_TOTAL,
            EXACT_BOUND_SURVIVORS,
        ];
        let paths: [(&str, Query, &[&str]); 3] = [
            // A batch of three and a lone query: every exact scan streams
            // the codes through the int8 bound.
            ("exact", Query::new(4), &SERIES[8..]),
            ("ivf", Query::new(4).shortlist_ann(2), &SERIES[..3]),
            ("graph", Query::new(4).shortlist_graph(16), &SERIES[3..8]),
        ];

        let (model, trajs) = trained_model_and_corpus();
        let registry = Registry::new();
        let mut db = SimilarityDb::with_corpus(model, trajs.clone(), 2);
        db.build_ann_index(&AnnParams {
            nlists: 5,
            ..Default::default()
        })
        .unwrap();
        db.build_graph_index(&HnswParams::default(), 2).unwrap();
        db.instrument(&registry);
        // A counter's value, or a histogram's observation count.
        let read = || -> Vec<u64> {
            let report = registry.snapshot();
            SERIES
                .iter()
                .map(|name| {
                    let counter = report.counters.iter().find(|(n, _)| n == name);
                    let hist = report.histograms.iter().find(|h| h.name == *name);
                    match (counter, hist) {
                        (Some((_, v)), None) => *v,
                        (None, Some(h)) => h.count,
                        _ => panic!("{name} is not registered exactly once"),
                    }
                })
                .collect()
        };
        let mut lists_probed = Vec::new();
        for (path, query, owned) in paths {
            let before = read();
            db.search_batch(&trajs[..3], &query).unwrap();
            db.search(&trajs[5], &query).unwrap();
            let after = read();
            for (i, name) in SERIES.iter().enumerate() {
                let moved = after[i] > before[i];
                assert_eq!(moved, owned.contains(name), "{path} scan and {name}");
            }
            lists_probed.push(after[0] - before[0]);
        }
        // The lists probed are counted, not estimated: four queries at
        // nprobe 2.
        assert_eq!(lists_probed, [0, 4 * 2, 0]);
    }

    // -- Copy-on-write successors (`inserted`) ------------------------------

    /// An untrained model and `n` short synthetic trajectories: the
    /// sharing tests need more rows than two chunks, not fitted weights.
    fn untrained_corpus(n: usize) -> (NeuTrajModel, Vec<Trajectory>) {
        use neutraj_trajectory::{BoundingBox, Point};
        let grid = Grid::new(BoundingBox::new(0.0, 0.0, 1000.0, 500.0), 50.0).unwrap();
        let cfg = TrainConfig {
            dim: 8,
            seed: 9,
            ..TrainConfig::neutraj()
        };
        let trajs = (0..n)
            .map(|i| {
                let id = i as f64;
                let points = (0..3 + (i * 7) % 11).map(|k| {
                    let t = k as f64;
                    Point::new(
                        500.0 + 450.0 * (0.41 * t + 0.11 * id).sin(),
                        250.0 + 220.0 * (0.19 * t - 0.31 * id).cos(),
                    )
                });
                Trajectory::new_unchecked(i as u64, points.collect())
            })
            .collect();
        (NeuTrajModel::untrained(cfg, grid), trajs)
    }

    impl SimilarityDb {
        /// What [`SimilarityDb::inserted`] replaced, kept as its oracle: a
        /// deep copy of every row and buffer, then one scalar-embedded
        /// [`SimilarityDb::insert`] per new row.
        fn inserted_by_deep_copy(&self, ts: &[Trajectory]) -> Result<Self, DbError> {
            let mut next = self.clone();
            next.trajectories = Rows::default();
            next.trajectories.extend(self.trajectories.iter().cloned());
            let store = &self.embeddings;
            next.embeddings = EmbeddingStore::new(store.dim());
            for i in 0..store.len() {
                next.embeddings.push(store.get(i));
            }
            for t in ts {
                next.insert(t.clone())?;
            }
            Ok(next)
        }
    }

    fn encoded<V: ShortlistView>(db: &SimilarityDb) -> Option<Vec<u8>> {
        V::slot(db).map(V::encode)
    }

    /// Same rows, same store (rows, norms and codes), same view bytes,
    /// same answers.
    fn assert_same_db(got: &SimilarityDb, want: &SimilarityDb, queries: &[Trajectory], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: len");
        assert!(got.store() == want.store(), "{what}: store");
        assert_eq!(
            encoded::<IvfIndex>(got),
            encoded::<IvfIndex>(want),
            "{what}: ivf"
        );
        assert_eq!(
            encoded::<HnswIndex>(got),
            encoded::<HnswIndex>(want),
            "{what}: graph"
        );
        for i in 0..=want.len() {
            assert_eq!(got.get(i), want.get(i), "{what}: row {i}");
        }
        let mut specs = vec![Query::new(5), Query::new(3).shortlist(9).rerank(&Hausdorff)];
        if want.ann_index().is_some() {
            specs.push(Query::new(5).shortlist_ann(2));
        }
        if want.graph_index().is_some() {
            specs.push(Query::new(5).shortlist_graph(16));
        }
        for spec in &specs {
            assert_eq!(
                got.search_batch(queries, spec).unwrap(),
                want.search_batch(queries, spec).unwrap(),
                "{what}: answers of {spec:?}"
            );
            assert_eq!(
                got.search(want.len() - 1, spec).unwrap(),
                want.search(want.len() - 1, spec).unwrap(),
                "{what}: stored-target answer of {spec:?}"
            );
        }
    }

    #[test]
    fn rows_fill_whole_chunks_and_share_them_between_clones() {
        let (_, trajs) = untrained_corpus(3 * CHUNK + 5);
        let mut rows = Rows::default();
        rows.extend(trajs[..2 * CHUNK].iter().cloned());
        assert_eq!((rows.len(), rows.blocks().len()), (2 * CHUNK, 2));
        // A chunk is allocated once, at its final size.
        assert!(rows.blocks().all(|c| c.capacity() == CHUNK));

        // Pushing into a clone whose last chunk is full copies nothing.
        let mut child = rows.clone();
        child.extend(trajs[2 * CHUNK..2 * CHUNK + 5].iter().cloned());
        assert_eq!(child.shared_with(&rows), (2, 2));
        assert_eq!((child.len(), rows.len()), (2 * CHUNK + 5, 2 * CHUNK));

        // Pushing into a shared, partly filled last chunk copies that one
        // chunk: the sibling that shares it never sees the row.
        let mut grand = child.clone();
        grand.extend(trajs[2 * CHUNK + 5..].iter().cloned());
        assert_eq!(grand.shared_with(&child), (2, 2));
        assert!(!std::ptr::eq(
            grand.block(2 * CHUNK),
            child.block(2 * CHUNK)
        ));
        assert_eq!((grand.len(), grand.blocks().len()), (3 * CHUNK + 5, 4));
        assert_eq!(
            (child.len(), child.block(2 * CHUNK).len()),
            (2 * CHUNK + 5, 5)
        );
        assert!(child.get(2 * CHUNK + 5).is_none());
        assert!(grand.iter().eq(trajs.iter()));
        assert!(child.iter().eq(trajs[..2 * CHUNK + 5].iter()));
        for (i, t) in trajs.iter().enumerate() {
            assert_eq!(grand.get(i), Some(t));
            assert_eq!(grand.row(i), t);
        }
        assert!(grand.get(trajs.len()).is_none());
    }

    /// A chain of `inserted` calls is the deep-copy chain, bit for bit —
    /// per view, from corpus lengths on both sides of a chunk boundary,
    /// with batches that end inside, on and past one — and every full
    /// chunk of a parent (trajectories, store rows, codes) is its child's
    /// by pointer.
    #[test]
    fn inserted_chain_equals_the_deep_copy_chain() {
        type Build = fn(&mut SimilarityDb);
        let views: [(&str, Build); 4] = [
            ("exact", |_| ()),
            ("ivf", |db| {
                let params = AnnParams {
                    nlists: 4,
                    ..Default::default()
                };
                db.build_ann_index(&params).unwrap()
            }),
            ("graph", |db| {
                db.build_graph_index(&HnswParams::default(), 2).unwrap()
            }),
            ("both", |db| {
                let params = AnnParams {
                    nlists: 4,
                    ..Default::default()
                };
                db.build_ann_index(&params).unwrap();
                db.build_graph_index(&HnswParams::default(), 2).unwrap()
            }),
        ];
        let batches = [1, 0, CHUNK - 2, 1, CHUNK + 3];
        let total: usize = batches.iter().sum();
        let (model, trajs) = untrained_corpus(CODE_CHUNK - 1 + total + 3);
        let queries = &trajs[trajs.len() - 3..];
        for (view, build) in views {
            for start in [CHUNK, CHUNK + 1, 2 * CHUNK - 1, CODE_CHUNK - 1] {
                let mut parent =
                    SimilarityDb::with_corpus(model.clone(), trajs[..start].to_vec(), 2);
                build(&mut parent);
                let mut oracle = parent.clone();
                let mut at = start;
                for n in batches {
                    let what = format!("{view}, {start} rows, +{n} at {at}");
                    let rows = &trajs[at..at + n];
                    let child = parent.inserted(rows, 2).unwrap();
                    oracle = oracle.inserted_by_deep_copy(rows).unwrap();
                    assert_same_db(&child, &oracle, queries, &what);
                    let (rows, codes) = (at / CHUNK, at / CODE_CHUNK);
                    assert_eq!(
                        child.shared_row_chunks(&parent),
                        [(rows, rows), (rows, rows), (codes, codes)],
                        "{what}: sharing"
                    );
                    let copied = oracle.shared_row_chunks(&parent).map(|(shared, _)| shared);
                    assert_eq!(copied, [0; 3], "{what}: oracle");
                    assert_eq!(parent.len(), at, "{what}: parent grew");
                    parent = child;
                    at += n;
                }
            }
        }
    }

    /// Two successors of one parent never see each other's rows, and the
    /// parent sees neither's — what fails if the append into a shared
    /// last chunk is ever done in place.
    #[test]
    fn forked_successors_are_independent_and_the_parent_is_untouched() {
        let (model, trajs) = untrained_corpus(CHUNK + 40);
        let n0 = CHUNK + 9; // a partly filled last chunk, shared by all three
        let parent = SimilarityDb::with_corpus(model, trajs[..n0].to_vec(), 2);
        let queries = &trajs[trajs.len() - 3..];
        let frozen = parent.inserted_by_deep_copy(&[]).unwrap();

        let left = parent.inserted(&trajs[n0..n0 + 4], 1).unwrap();
        let right = parent.inserted(&trajs[n0 + 10..n0 + 17], 1).unwrap();
        assert_same_db(&parent, &frozen, queries, "parent after two forks");
        assert_same_db(
            &left,
            &frozen.inserted_by_deep_copy(&trajs[n0..n0 + 4]).unwrap(),
            queries,
            "left fork",
        );
        assert_same_db(
            &right,
            &frozen
                .inserted_by_deep_copy(&trajs[n0 + 10..n0 + 17])
                .unwrap(),
            queries,
            "right fork",
        );
        assert_eq!(left.get(n0), Some(&trajs[n0]));
        assert_eq!(right.get(n0), Some(&trajs[n0 + 10]));
        assert_eq!(parent.get(n0), None);
        // The store and its codes fork with the rows: each side shares
        // the one full chunk of the rows and copied the partial ones.
        for fork in [&left, &right] {
            assert_eq!(fork.shared_row_chunks(&parent), [(1, 1), (1, 1), (0, 0)]);
            assert_eq!(fork.store().len(), fork.len());
            assert_eq!(fork.quantized_store().unwrap().len(), fork.len());
        }
        assert!(parent.store() == frozen.store(), "parent store");
        assert!(
            parent.quantized_store() == frozen.quantized_store(),
            "parent codes"
        );
        assert_eq!(parent.store().len(), n0);
        assert_ne!(left.embedding(n0), right.embedding(n0));

        // The in-place inserts of a plain clone fork the same way.
        let mut twin = parent.clone();
        twin.insert(trajs[n0 + 20].clone()).unwrap();
        assert_eq!(twin.get(n0), Some(&trajs[n0 + 20]));
        assert_same_db(&parent, &frozen, queries, "parent after a clone's insert");
    }

    #[test]
    fn inserted_rejects_the_whole_batch_and_counts_it_once() {
        let (model, trajs) = untrained_corpus(30);
        let registry = Registry::new();
        let mut db = SimilarityDb::with_corpus(model, trajs[..20].to_vec(), 1);
        db.instrument(&registry);
        let empty = Trajectory::new_unchecked(900, vec![]);
        let batch = [trajs[20].clone(), empty, trajs[21].clone()];
        let err = db.inserted(&batch, 1).unwrap_err();
        assert!(
            matches!(err, DbError::InvalidTrajectory { id: 900, .. }),
            "{err}"
        );
        assert_eq!(registry.counter(names::DB_REJECTS_TOTAL).get(), 1);
        assert_eq!(db.len(), 20);
        // A successor reports the size it has.
        let next = db.inserted(&trajs[20..23], 1).unwrap();
        assert_eq!(registry.gauge(names::DB_CORPUS_SIZE).get(), 23.0);
        assert_eq!((db.len(), next.len()), (20, 23));
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
