//! The unified query surface for [`SimilarityDb`](crate::SimilarityDb).
//!
//! One [`QueryOf`] value describes *how* to search (result size, an
//! optional IVF or graph shortlist, optional exact re-ranking — the
//! exhaustive scan is exact at every batch width); a
//! [`QueryTarget`]
//! describes *what* to search for (an ad-hoc trajectory or a stored
//! item). The struct is generic over how the
//! re-rank measure is named, and that is the only difference between its
//! two forms: [`Query`] borrows any [`Measure`] (the paper's "generic" —
//! a caller-owned `Erp` with its own gap, `Sspd`, a custom impl), while
//! [`QuerySpec`] names one of the paper's four by [`MeasureKind`], which
//! makes it owned, `Eq` and `Hash` — it can cross threads, sit in a queue
//! and key a coalescing group. [`QuerySpec::with_query`] is the one
//! lowering from the second to the first.
//!
//! ```
//! # use neutraj_model::Query;
//! # use neutraj_measures::Hausdorff;
//! let plain = Query::new(10);
//! let reranked = Query::new(10).shortlist(50).rerank(&Hausdorff);
//! assert_eq!(reranked.k(), 10);
//! ```

use neutraj_measures::{Measure, MeasureKind};
use neutraj_trajectory::Trajectory;

/// How to search: result size plus optional shortlist/re-rank settings,
/// with the re-rank measure named by an `M` (see [`Query`] and
/// [`QuerySpec`]).
///
/// Built with a fluent builder: `Query::new(k).shortlist(s).rerank(&m)`.
/// Without [`Self::rerank`] the search returns the top-k by embedding
/// distance (the paper's linear-time approximate protocol). With it, an
/// embedding-space shortlist is re-ranked by the exact measure on
/// grid-rescaled coordinates and the top-k of that ordering is returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryOf<M> {
    k: usize,
    shortlist: Option<usize>,
    ann: Option<usize>,
    graph: Option<usize>,
    rerank: Option<M>,
}

/// The library form: re-ranks by any borrowed [`Measure`].
pub type Query<'m> = QueryOf<&'m dyn Measure>;

/// The owned form the service, its queue and the CLI speak: re-ranks by
/// one of the paper's measures, named by [`MeasureKind`]. The
/// micro-batching scheduler coalesces concurrent requests with equal
/// specs into one lockstep batch, so equality doubles as
/// batch-compatibility.
pub type QuerySpec = QueryOf<MeasureKind>;

impl<M: Copy> QueryOf<M> {
    /// A plain embedding-distance top-`k` query.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            shortlist: None,
            ann: None,
            graph: None,
            rerank: None,
        }
    }

    /// Sets the embedding-space shortlist width used when re-ranking.
    /// Ignored unless [`Self::rerank`] is also set. Defaults to
    /// `max(2k, 50)`.
    pub fn shortlist(mut self, shortlist: usize) -> Self {
        self.shortlist = Some(shortlist);
        self
    }

    /// Answers the embedding-space scan through the database's IVF index
    /// instead of exhaustively: probe the `nprobe` inverted lists whose
    /// centroids are nearest the query and exactly score only their
    /// members. Sub-linear in corpus size; approximate in *recall* only
    /// (a scored distance is always exact). `nprobe` trades speed for
    /// recall — `nprobe ≥ nlists` degenerates to the exhaustive scan,
    /// bit-for-bit. Requires the database to have an index
    /// ([`SimilarityDb::build_ann_index`](crate::SimilarityDb::build_ann_index));
    /// searching without one — or with `nprobe == 0` — returns
    /// [`DbError::InvalidConfig`](crate::DbError::InvalidConfig).
    ///
    /// Composes with [`Self::rerank`]: the ANN scan then retrieves the
    /// shortlist that the exact measure re-ranks.
    pub fn shortlist_ann(mut self, nprobe: usize) -> Self {
        self.ann = Some(nprobe);
        self
    }

    /// Answers the embedding-space scan through the database's HNSW
    /// graph index: an `ef`-bounded beam search over the navigable
    /// small-world graph yields the candidate shortlist, and only those
    /// candidates are exactly scored. Near-logarithmic in corpus size;
    /// approximate in *recall* only (a scored distance is always
    /// exact). `ef` trades speed for recall — `ef ≥ N` degenerates to
    /// the exhaustive scan, bit-for-bit. Requires the database to have
    /// a graph index
    /// ([`SimilarityDb::build_graph_index`](crate::SimilarityDb::build_graph_index));
    /// searching without one — or with `ef == 0`, `ef < k`, or combined
    /// with [`Self::shortlist_ann`] — returns
    /// [`DbError::InvalidConfig`](crate::DbError::InvalidConfig).
    ///
    /// Composes with [`Self::rerank`]: the graph scan retrieves the
    /// shortlist that the exact measure re-ranks.
    pub fn shortlist_graph(mut self, ef: usize) -> Self {
        self.graph = Some(ef);
        self
    }

    /// Returns the query unchanged. A compatibility spelling: every exact
    /// scan already reads the store's int8 codes and its answers are
    /// exact, so there is no separate int8 path left to ask for.
    pub fn quantized(self) -> Self {
        self
    }

    /// Re-rank the embedding shortlist by `measure`, computed on
    /// grid-rescaled coordinates (the training scale), and return the
    /// top-k of the exact ordering.
    pub fn rerank(mut self, measure: M) -> Self {
        self.rerank = Some(measure);
        self
    }

    /// Number of results requested.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The effective shortlist width: the configured value, or
    /// `max(2k, 50)` when unset.
    pub fn effective_shortlist(&self) -> usize {
        self.shortlist.unwrap_or_else(|| (2 * self.k).max(50))
    }

    /// The fetch width of the scan stage: the effective shortlist when a
    /// re-rank follows, otherwise `k`. A sharded search fetches this many
    /// from every shard, which keeps it bit-identical to
    /// [`SimilarityDb::search`](crate::SimilarityDb::search).
    pub fn scan_fetch(&self) -> usize {
        match self.rerank {
            Some(_) => self.effective_shortlist(),
            None => self.k,
        }
    }

    /// The ANN probe width, when [`Self::shortlist_ann`] was configured.
    pub fn ann_nprobe(&self) -> Option<usize> {
        self.ann
    }

    /// The graph beam width, when [`Self::shortlist_graph`] was
    /// configured.
    pub fn graph_ef(&self) -> Option<usize> {
        self.graph
    }

    /// Always `false`: [`Self::quantized`] no longer changes the query. A
    /// compatibility spelling, like that method.
    pub fn is_quantized(&self) -> bool {
        false
    }

    /// The re-rank measure, when configured.
    pub fn rerank_measure(&self) -> Option<M> {
        self.rerank
    }

    /// Checks the query's *database-independent* invariants: `k` must be
    /// positive (a top-0 query is always a caller bug, not an empty
    /// result), an explicitly configured shortlist must be at least `k`
    /// (narrower could never fill the result, re-ranked or not), and an
    /// ANN probe width must be positive. Returns the human-readable
    /// reason on failure; [`SimilarityDb`](crate::SimilarityDb) folds it
    /// into [`DbError::InvalidConfig`](crate::DbError::InvalidConfig)
    /// (counted in `neutraj_db_rejects_total`) at search time, and the
    /// serving layer applies the same check before queueing a request —
    /// one validation contract for every path.
    pub fn validate(&self) -> Result<(), String> {
        if self.k == 0 {
            return Err(
                "k must be positive (a top-0 query returns nothing by construction)".into(),
            );
        }
        if let Some(s) = self.shortlist {
            if s < self.k {
                return Err(format!(
                    "shortlist {s} is narrower than k {}: it could never fill the result",
                    self.k
                ));
            }
        }
        if self.ann == Some(0) {
            return Err("nprobe must be positive (shortlist_ann(0) probes no lists)".into());
        }
        if let Some(ef) = self.graph {
            if ef == 0 {
                return Err("ef must be positive (shortlist_graph(0) visits no nodes)".into());
            }
            if ef < self.k {
                return Err(format!(
                    "graph ef {ef} is narrower than k {}: it could never fill the result",
                    self.k
                ));
            }
            if self.ann.is_some() {
                return Err(
                    "shortlist_graph and shortlist_ann are mutually exclusive shortlist backends"
                        .into(),
                );
            }
        }
        Ok(())
    }
}

impl QuerySpec {
    /// Runs `f` with the equivalent borrow-based [`Query`], holding the
    /// instantiated re-rank measure alive for the duration — the single
    /// lowering from the owned form to the execution form.
    pub fn with_query<R>(&self, f: impl FnOnce(&Query) -> R) -> R {
        let measure = self.rerank.map(|kind| kind.measure());
        f(&QueryOf {
            k: self.k,
            shortlist: self.shortlist,
            ann: self.ann,
            graph: self.graph,
            rerank: measure.as_deref(),
        })
    }
}

/// What to search for. Usually built implicitly through `Into`:
/// `db.search(&trajectory, &q)` or `db.search(stored_index, &q)`.
#[derive(Debug, Clone, Copy)]
pub enum QueryTarget<'a> {
    /// An ad-hoc trajectory: embedded (one `O(L)` forward pass), then
    /// scanned.
    Trajectory(&'a Trajectory),
    /// A stored item by index: its own embedding is scanned and the item
    /// itself is excluded from the results.
    Stored(usize),
}

impl<'a> From<&'a Trajectory> for QueryTarget<'a> {
    fn from(t: &'a Trajectory) -> Self {
        QueryTarget::Trajectory(t)
    }
}

impl From<usize> for QueryTarget<'_> {
    fn from(idx: usize) -> Self {
        QueryTarget::Stored(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_lowers_to_the_same_query() {
        let spec = QuerySpec::new(7)
            .shortlist(20)
            .shortlist_ann(3)
            .rerank(MeasureKind::Hausdorff);
        // `quantized()` changes nothing, so the coalescer groups the two.
        assert_eq!(spec.quantized(), spec);
        assert!(!spec.quantized().is_quantized());
        spec.with_query(|q| {
            assert_eq!(q.k(), 7);
            assert_eq!(q.effective_shortlist(), 20);
            assert_eq!(q.ann_nprobe(), Some(3));
            assert_eq!(q.rerank_measure().map(|m| m.name()), Some("Hausdorff"));
            assert_eq!(q.scan_fetch(), 20);
        });
        assert_eq!(spec.scan_fetch(), 20);
        assert_eq!(QuerySpec::new(7).scan_fetch(), 7);
        // The default shortlist is max(2k, 50).
        assert_eq!(QuerySpec::new(7).rerank(MeasureKind::Dtw).scan_fetch(), 50);
        // The graph beam width lowers through the same single path.
        let graph = QuerySpec::new(5).shortlist_graph(40);
        graph.with_query(|q| {
            assert_eq!(q.graph_ef(), Some(40));
            assert_eq!(q.ann_nprobe(), None);
            assert!(q.rerank_measure().is_none());
        });
        assert_eq!(graph.graph_ef(), Some(40));
    }

    #[test]
    fn spec_validation_matches_query_validation() {
        let specs = [
            (QuerySpec::new(0), false),
            (QuerySpec::new(5).shortlist(3), false),
            (QuerySpec::new(5).shortlist_ann(0), false),
            (QuerySpec::new(5).shortlist(5), true),
            (QuerySpec::new(1), true),
            (QuerySpec::new(5).shortlist_graph(0), false),
            (QuerySpec::new(5).shortlist_graph(3), false),
            (QuerySpec::new(5).shortlist_graph(8).shortlist_ann(2), false),
            (QuerySpec::new(5).shortlist_graph(8).quantized(), true),
            (QuerySpec::new(5).shortlist_graph(8), true),
        ];
        for (spec, ok) in specs {
            assert_eq!(spec.validate().is_ok(), ok, "{spec:?}");
            // The lowered form is judged by the same code, so it agrees.
            assert_eq!(spec.with_query(|q| q.validate()), spec.validate());
        }
    }
}
