//! Immutable, sharded read snapshots.
//!
//! A [`Snapshot`] is the unit of epoch rotation: readers clone an
//! `Arc<Snapshot>` and scan it without any coordination; writers build
//! the *next* snapshot off to the side (copy-on-write, sharing with the
//! old one whatever the new rows do not change — see
//! [`Snapshot::inserted`]) and publish it with a pointer swap. A
//! snapshot holds `S` round-robin shards, each a
//! complete [`SimilarityDb`] partition (embeddings + optional per-shard
//! IVF index and HNSW graph), scanned independently and merged under the
//! scan's `(dist, index)` total order.
//!
//! # Why the sharded scan is bit-identical (exact mode)
//!
//! Round-robin placement maps shard-local row `l` of shard `s` to global
//! row `g = l·S + s` — strictly increasing in `l`, so each shard's
//! `(dist, local)` order *is* its `(dist, global)` order. The per-row
//! norm-trick score is a pure function of (query row, corpus row):
//! the exact scan scores every pair it scores as one ascending-index dot
//! accumulator, independent of batch size and chunk, and its int8 bound
//! only decides which rows need scoring, so a row scores identically in
//! any shard of any snapshot. Each shard returns its top
//! `fetch` under the `(dist, index)` total order; the union of the
//! per-shard top-`fetch` lists contains the global top-`fetch` (every
//! global winner is a winner within its own shard), so sorting the
//! concatenation by `(dist, global index)` and truncating to `fetch`
//! reproduces the unsharded scan's list element for element, bit for
//! bit. IVF and graph shortlists are per-shard structures, so their
//! *recall* depends on the sharding, but every scored distance is still
//! exact and the merged result is still deterministic for a given
//! snapshot — the concurrency bit-identity tests pin both claims.

use crate::request::QuerySpec;
use neutraj_measures::{neighbor_order, Neighbor};
use neutraj_model::{
    rerank_exact, AnnParams, DbError, HnswParams, NeuTrajModel, ScanStats, ShortlistView,
    SimilarityDb,
};
use neutraj_trajectory::{par, Trajectory};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Signature of the test-only scan fault injector: called with the shard
/// index just before that shard scans; returning `true` panics the scan
/// (inside the `catch_unwind` isolation boundary).
pub(crate) type ScanFault = dyn Fn(usize) -> bool + Send + Sync;

/// Failure-handling knobs for one guarded scan (the service's view; the
/// public [`Snapshot::search_batch`] runs unguarded).
pub(crate) struct ScanGuard<'a> {
    /// Latest deadline among the batch members — the cooperative
    /// cancellation checks between shard scans abort once it passes.
    pub deadline: Option<Instant>,
    /// Per-shard quarantine mask (`true` = do not scan); empty skips
    /// nothing.
    pub skip: &'a [bool],
    /// Test-only fault injector (see [`ScanFault`]).
    pub fault: Option<&'a ScanFault>,
}

impl ScanGuard<'_> {
    /// No deadline, no quarantine, no injected faults.
    pub(crate) fn none() -> Self {
        Self {
            deadline: None,
            skip: &[],
            fault: None,
        }
    }
}

/// Outcome of one guarded scan: merged results plus the failure facts
/// the service folds into quarantine state and response markers.
pub(crate) struct GuardedScan {
    /// Merged per-query results over the contributing shards. Empty when
    /// `expired`.
    pub results: Vec<Vec<Neighbor>>,
    /// Shards whose scan panicked this pass (isolated by
    /// `catch_unwind`; their candidates are absent from `results`).
    pub failed: Vec<usize>,
    /// The first captured panic payload, for callers that want to
    /// re-raise instead of answering partially (the public `search_batch`
    /// contract).
    pub first_panic: Option<Box<dyn Any + Send>>,
    /// Number of shards skipped by the quarantine mask.
    pub skipped: usize,
    /// The deadline passed before results were produced; `results` is
    /// empty and must not be used.
    pub expired: bool,
    /// The work of the shard scans that answered, summed.
    pub stats: ScanStats,
}

impl GuardedScan {
    /// `true` when at least one shard did not contribute.
    pub(crate) fn is_partial(&self) -> bool {
        self.skipped > 0 || !self.failed.is_empty()
    }
}

/// How to build a [`Snapshot`]'s shards.
#[derive(Debug, Clone, Default)]
pub struct ShardConfig {
    /// Number of round-robin partitions (0 is rejected).
    pub nshards: usize,
    /// Worker threads for the bulk corpus embed at build time.
    pub build_threads: usize,
    /// Train a per-shard IVF index over each partition when set.
    pub ann: Option<AnnParams>,
    /// Build a per-shard HNSW graph index over each partition when set.
    pub graph: Option<HnswParams>,
    /// Inert: every shard keeps its store's int8 codes whatever this
    /// says (see `ServiceConfig::quantized`), and a saved snapshot does
    /// not record it. Kept so existing configurations compile; slated
    /// for removal.
    pub quantized: bool,
}

impl ShardConfig {
    /// A plain `nshards`-way exact-scan configuration.
    pub fn new(nshards: usize) -> Self {
        Self {
            nshards,
            build_threads: 1,
            ann: None,
            graph: None,
            quantized: false,
        }
    }
}

/// One immutable corpus view: `S` round-robin [`SimilarityDb`] shards
/// plus the epoch that named it.
#[derive(Debug, Clone)]
pub struct Snapshot {
    epoch: u64,
    /// Shared with the snapshots this one was rotated from and into: a
    /// shard that receives no row of an insert is the same allocation in
    /// both epochs.
    shards: Vec<Arc<SimilarityDb>>,
    len: usize,
    /// Embed workers for [`Snapshot::inserted`] (a load-time choice,
    /// never saved).
    build_threads: usize,
}

impl Snapshot {
    /// Builds epoch-0 over `corpus`, partitioned round-robin (global row
    /// `g` lands in shard `g % S` at local row `g / S`). Each shard
    /// embeds its partition with the lockstep batched forward; per-shard
    /// IVF indexes and graphs are built when configured.
    pub fn build(
        model: &NeuTrajModel,
        corpus: Vec<Trajectory>,
        cfg: &ShardConfig,
    ) -> Result<Self, DbError> {
        if cfg.nshards == 0 {
            return Err(DbError::InvalidConfig(
                "a snapshot needs at least one shard (nshards == 0)".into(),
            ));
        }
        let nshards = cfg.nshards;
        let mut parts: Vec<Vec<Trajectory>> = (0..nshards).map(|_| Vec::new()).collect();
        for (g, t) in corpus.into_iter().enumerate() {
            parts[g % nshards].push(t);
        }
        if (cfg.ann.is_some() || cfg.graph.is_some()) && parts.iter().any(|p| p.is_empty()) {
            return Err(DbError::InvalidConfig(format!(
                "a per-shard index needs every shard non-empty: \
                 corpus too small for {nshards} shards"
            )));
        }
        let threads = cfg.build_threads.max(1);
        let mut shards = Vec::with_capacity(nshards);
        let mut len = 0;
        for part in parts {
            let mut db = SimilarityDb::new(model.clone());
            len += part.len();
            db.insert_batch(part, threads)?;
            if let Some(params) = &cfg.ann {
                db.build_ann_index(params)?;
            }
            if let Some(params) = &cfg.graph {
                db.build_graph_index(params, threads)?;
            }
            shards.push(Arc::new(db));
        }
        Ok(Self {
            epoch: 0,
            shards,
            len,
            build_threads: threads,
        })
    }

    /// Installs `view` on shard `s` through [`SimilarityDb::set_view`] —
    /// how the persistence loader puts the saved views back on a freshly
    /// built snapshot (whose shards nothing shares yet, so no copy).
    pub(crate) fn set_view<V: ShortlistView>(&mut self, s: usize, view: V) -> Result<(), DbError> {
        Arc::make_mut(&mut self.shards[s]).set_view(view)
    }

    /// Renames the epoch — the persistence loader restores the saved
    /// epoch so sequences stay non-decreasing across a crash/restart.
    pub(crate) fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// The epoch counter: bumped by one on every published mutation.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Total stored trajectories across all shards.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no trajectories are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of shards.
    pub fn nshards(&self) -> usize {
        self.shards.len()
    }

    /// The shared model (all shards hold clones of the same weights).
    pub fn model(&self) -> &NeuTrajModel {
        self.shards[0].model()
    }

    /// Borrow shard `s`.
    pub fn shard(&self, s: usize) -> &SimilarityDb {
        &self.shards[s]
    }

    /// The stored trajectory at **global** index `g`.
    pub fn trajectory(&self, g: usize) -> Option<&Trajectory> {
        let s = self.nshards();
        self.shards.get(g % s)?.get(g / s)
    }

    /// The next snapshot with `ts` appended — copy-on-write: `self` is
    /// untouched (readers holding it drain undisturbed) and the epoch
    /// advances. The batch is dealt round-robin like the corpus was (by
    /// reference: a row is copied once, into its shard's chunk), and
    /// each shard that receives rows is replaced by its
    /// [`SimilarityDb::inserted`] successor (one lockstep embed of its
    /// rows, every view kept in step); a shard that receives none is
    /// shared with `self`. All-or-nothing: every trajectory is validated
    /// before any is embedded, and the first invalid one, in batch order,
    /// is the error.
    pub fn inserted(&self, ts: &[Trajectory]) -> Result<Self, DbError> {
        // A shard validates its own rows again; this pass is what keeps a
        // reject in one shard from costing another shard's embed.
        for t in ts {
            t.validate()
                .map_err(|reason| DbError::InvalidTrajectory { id: t.id, reason })?;
        }
        let s = self.shards.len();
        let mut parts: Vec<Vec<&Trajectory>> = vec![Vec::new(); s];
        for (k, t) in ts.iter().enumerate() {
            parts[(self.len + k) % s].push(t);
        }
        let mut shards = self.shards.clone();
        for (shard, part) in shards.iter_mut().zip(&parts) {
            if !part.is_empty() {
                *shard = Arc::new(shard.inserted(part, self.build_threads)?);
            }
        }
        Ok(Self {
            epoch: self.epoch + 1,
            shards,
            len: self.len + ts.len(),
            build_threads: self.build_threads,
        })
    }

    /// Whether shard `s` is the same allocation here and in `other` —
    /// a test probe for the sharing [`Snapshot::inserted`] promises.
    #[doc(hidden)]
    pub fn shares_shard(&self, other: &Self, s: usize) -> bool {
        Arc::ptr_eq(&self.shards[s], &other.shards[s])
    }

    /// Answers one ad-hoc query — identical semantics (and, in exact
    /// mode, identical bits) to `SimilarityDb::search(trajectory, query)`
    /// over the concatenated corpus.
    pub fn search(&self, query: &Trajectory, spec: &QuerySpec) -> Result<Vec<Neighbor>, DbError> {
        Ok(self
            .search_batch(std::slice::from_ref(query), spec, 1)?
            .pop()
            .expect("one query in, one result out"))
    }

    /// Answers a batch of ad-hoc queries with one lockstep batched embed
    /// and one scan per shard shared by the whole batch; per-shard scans
    /// run on up to `scan_threads` scoped threads. Each result is
    /// bit-identical to [`Snapshot::search`] on that query — the scan's
    /// per-row score is batch-size-invariant, which is what lets the
    /// micro-batching scheduler coalesce requests without changing
    /// anyone's answer.
    pub fn search_batch(
        &self,
        queries: &[Trajectory],
        spec: &QuerySpec,
        scan_threads: usize,
    ) -> Result<Vec<Vec<Neighbor>>, DbError> {
        let queries: Vec<&Trajectory> = queries.iter().collect();
        let scan = self.scan_batch_guarded(&queries, spec, scan_threads, &ScanGuard::none())?;
        // Unguarded contract: a shard panic propagates to the caller
        // exactly as it did before panic isolation existed.
        if let Some(payload) = scan.first_panic {
            std::panic::resume_unwind(payload);
        }
        Ok(scan.results)
    }

    /// The guarded core of [`Snapshot::search_batch`]: shard scans run
    /// under `catch_unwind` so one panicking shard cannot take down the
    /// caller, quarantined shards are skipped, and the deadline is
    /// checked cooperatively — before the embed, before each shard scan,
    /// and before the re-rank stage — so expired work stops
    /// burning CPU as early as possible. Configuration errors
    /// ([`DbError`]) still return `Err`; panics and skips are reported
    /// as data in the [`GuardedScan`].
    pub(crate) fn scan_batch_guarded(
        &self,
        queries: &[&Trajectory],
        spec: &QuerySpec,
        scan_threads: usize,
        guard: &ScanGuard<'_>,
    ) -> Result<GuardedScan, DbError> {
        for t in queries {
            t.validate()
                .map_err(|reason| DbError::InvalidTrajectory { id: t.id, reason })?;
        }
        // Surface configuration rejections before embedding work, and
        // from every shard's perspective at once (shards are uniform, so
        // shard 0 speaks for all).
        self.shards[0].scan_embeddings(&[], 0, spec)?;
        let nshards = self.nshards();
        let skipped = guard.skip.iter().filter(|&&s| s).count();
        let mut out = GuardedScan {
            results: Vec::new(),
            failed: Vec::new(),
            first_panic: None,
            skipped,
            expired: false,
            stats: ScanStats::default(),
        };
        let expired = |d: &Option<Instant>| d.is_some_and(|d| Instant::now() >= d);
        if expired(&guard.deadline) {
            out.expired = true;
            return Ok(out);
        }
        let fetch = spec.scan_fetch();
        let qembs = self.model().embed_batch(queries);
        let qrefs: Vec<&[f64]> = qembs.iter().map(|e| e.as_slice()).collect();

        let scan = |s: usize| {
            catch_unwind(AssertUnwindSafe(|| {
                if let Some(fault) = guard.fault {
                    if fault(s) {
                        panic!("injected shard {s} scan fault");
                    }
                }
                self.shards[s].scan_embeddings(&qrefs, fetch, spec)
            }))
        };
        // One part for all shards, or one per shard when fanning out.
        // Each part checks the deadline before each of its shard scans
        // (once the latest member deadline passes, finishing the scan can
        // no longer help anyone) and catches a panicking scan in place.
        let live: Vec<usize> = (0..nshards)
            .filter(|&s| !guard.skip.get(s).copied().unwrap_or(false))
            .collect();
        let per_part = if scan_threads <= 1 { nshards } else { 1 };
        let parts = par::fan_out(live.chunks(per_part), |part| {
            let mut done = Vec::with_capacity(part.len());
            for &s in part {
                if expired(&guard.deadline) {
                    return (done, true);
                }
                done.push((s, scan(s)));
            }
            (done, false)
        });
        // `None` slots (skipped or failed shards) are absent from the
        // merge; shard order is preserved either way so results stay
        // thread-count independent.
        let mut per_shard: Vec<Option<Vec<Vec<Neighbor>>>> = vec![None; nshards];
        for (done, part_expired) in parts {
            out.expired |= part_expired;
            for (s, r) in done {
                match r {
                    Ok(r) => {
                        let (lists, stats) = r?;
                        per_shard[s] = Some(lists);
                        out.stats += stats;
                    }
                    Err(payload) => {
                        out.failed.push(s);
                        out.first_panic.get_or_insert(payload);
                    }
                }
            }
        }
        if out.expired {
            return Ok(out);
        }

        let merged: Vec<Vec<Neighbor>> = (0..queries.len())
            .map(|qi| merge_shard_lists(&per_shard, qi, nshards, fetch))
            .collect();

        if expired(&guard.deadline) {
            out.expired = true;
            return Ok(out);
        }
        out.results = match spec.rerank_measure() {
            None => merged,
            Some(kind) => {
                let measure = kind.measure();
                merged
                    .into_iter()
                    .zip(queries)
                    .map(|(short, q)| {
                        // The same comparator and truncation as the
                        // unsharded database's re-rank stage, applied once
                        // over the merged list.
                        let row = |g: usize| self.trajectory(g).expect("merged index in range");
                        rerank_exact(self.model().grid(), short, q, row, &*measure, spec.k())
                    })
                    .collect()
            }
        };
        Ok(out)
    }
}

/// Merges query `qi`'s per-shard top-`fetch` lists: map local indices to
/// global (`g = l·S + s`), sort under the scan's `(dist, index)` total
/// order, truncate. See the module docs for why this equals the unsharded
/// scan bit for bit in exact mode. `None` slots (quarantined or panicked
/// shards) contribute nothing — the merge over the remaining shards is
/// still exact for the sub-corpus they hold, which is what makes partial
/// answers well-defined.
fn merge_shard_lists(
    per_shard: &[Option<Vec<Vec<Neighbor>>>],
    qi: usize,
    nshards: usize,
    fetch: usize,
) -> Vec<Neighbor> {
    let mut all: Vec<Neighbor> = Vec::new();
    for (s, shard_lists) in per_shard.iter().enumerate() {
        let Some(shard_lists) = shard_lists else {
            continue;
        };
        all.extend(shard_lists[qi].iter().map(|n| Neighbor {
            index: n.index * nshards + s,
            dist: n.dist,
        }));
    }
    all.sort_by(neighbor_order);
    all.truncate(fetch);
    all
}
