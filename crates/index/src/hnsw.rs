//! Deterministic HNSW graph index for embedding shortlists.
//!
//! A hierarchical navigable-small-world graph over corpus row ids,
//! built to the same contract as [`IvfIndex`](crate::IvfIndex): the
//! index holds **no vectors** — callers supply a distance oracle over
//! row ids (the model crate answers from its `EmbeddingStore` with the
//! norm-trick squared-L2 so graph-internal distances are bit-identical
//! to the exhaustive scan's rerank). The oracle is asked one *hop* at a
//! time — every unvisited neighbour of the expanded node in one call
//! ([`RowDistance::hop`] while building, a `FnMut(&[u32], &mut [f64])`
//! while querying) — so a vector store can score them in one kernel.
//!
//! # Determinism
//!
//! Two sources of nondeterminism in textbook HNSW are removed:
//!
//! 1. **Level assignment** is a pure hash of `(seed, id)` — a
//!    splitmix64 draw mapped through the geometric CDF
//!    `floor(-ln(u) · mL)` with `mL = 1/ln(M)` — so levels do not
//!    depend on insertion order, thread count, or a shared RNG stream.
//!    Levels are therefore *not serialized*: the decoder recomputes
//!    them from the stored `(seed, m)`.
//! 2. **Construction order** follows the two-phase commit protocol of
//!    the threaded trainer (DESIGN.md §2): nodes are committed in
//!    rounds whose boundaries are pure functions of the id space.
//!    Phase A searches the *frozen* committed graph for every node of
//!    the round in parallel (each worker owns a disjoint slice of the
//!    plan buffer); phase B applies the results sequentially in id
//!    order — own adjacency first, then backlink merges grouped by
//!    target id. No phase ever observes a round-mate, so the committed
//!    bytes are identical for any thread count.
//!
//! All orderings use the `(distance, id)` total order (`f64::total_cmp`
//! breaks no ties — ids do), so search results are independent of
//! adjacency list order.
//!
//! # The beam
//!
//! One beam search serves queries and construction. Its state is a
//! single pool of at most `ef` entries sorted by `(distance, id)`, each
//! flagged once its adjacency has been expanded; a hop expands the
//! nearest unexpanded entry and the layer ends when none is left. That
//! is the textbook candidate-heap/result-heap rule — a candidate the
//! result heap has evicted is farther than everything left in it, so
//! popping one is exactly the stop test (DESIGN.md §15) — without the
//! second heap, and the pool a layer ends with *is* the next layer's
//! frontier: it is re-flagged in place, never drained or re-pushed.
//!
//! # Exhaustive anchor
//!
//! Like `nprobe = nlists` for IVF, `ef >= len` is the recall-1.0
//! anchor: [`HnswIndex::shortlist_into`] degenerates to enumerating
//! every row, so a full-ef graph query is bit-identical to the
//! exhaustive scan by construction (property-tested in the model
//! crate across thread counts and SIMD modes).

use neutraj_trajectory::cursor::{PutLe, Reader, Truncated};
use neutraj_trajectory::par;
use neutraj_trajectory::rng::{mix64, GOLDEN_GAMMA};
use std::cmp::Ordering;

/// Magic header + format version of the serialized graph payload.
pub const HNSW_MAGIC: &[u8; 8] = b"NTHNSW01";

/// Hard cap on hashed levels (a corpus would need ~M^31 rows to draw
/// level 32 honestly; the cap keeps the level a `u8` with headroom).
const MAX_LEVEL: u8 = 31;
/// Rounds never exceed this many nodes, bounding phase-A plan memory
/// and keeping round-mate blindness (round members cannot link to each
/// other) a vanishing fraction of the graph at scale.
const ROUND_CAP: usize = 32_768;
/// Ids per oracle call when `ef >= len` turns a query into a full scan.
const FULL_SCAN_BLOCK: u32 = 256;

/// Construction parameters for [`HnswIndex`].
///
/// `m` is the per-layer link budget on layers ≥ 1 (and the budget for
/// freshly selected links everywhere); `m0` is the larger layer-0
/// budget; `ef_construction` is the candidate beam width during build;
/// `seed` feeds the hashed level assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HnswParams {
    /// Max links per node on layers ≥ 1 (also the new-link budget).
    pub m: usize,
    /// Max links per node on layer 0 (usually `2 * m`).
    pub m0: usize,
    /// Candidate beam width while building (larger = better graph,
    /// slower build).
    pub ef_construction: usize,
    /// Seed for the hashed geometric level assignment.
    pub seed: u64,
}

impl Default for HnswParams {
    fn default() -> Self {
        HnswParams {
            m: 16,
            m0: 32,
            ef_construction: 100,
            seed: 2019,
        }
    }
}

impl HnswParams {
    /// Validates the parameter ranges the codec and the adjacency
    /// layout rely on (`u8` link counts, a usable level distribution).
    pub fn validate(&self) -> Result<(), String> {
        if self.m < 2 || self.m > 128 {
            return Err(format!("hnsw m must be in 2..=128, got {}", self.m));
        }
        if self.m0 < self.m || self.m0 > 255 {
            return Err(format!(
                "hnsw m0 must be in m..=255, got m0={} (m={})",
                self.m0, self.m
            ));
        }
        if self.ef_construction == 0 || self.ef_construction > (1 << 20) {
            return Err(format!(
                "hnsw ef_construction must be in 1..=2^20, got {}",
                self.ef_construction
            ));
        }
        Ok(())
    }
}

/// Work counters from one graph traversal (or a batch of them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GraphSearchStats {
    /// Nodes whose adjacency list was expanded.
    pub hops: usize,
    /// Distance evaluations performed.
    pub candidates_scanned: usize,
    /// Adjacency entries read at those hops — one visited-array probe
    /// each, whether or not the neighbour was then evaluated.
    pub links_scanned: usize,
}

/// The build-time distance oracle: distances between corpus rows.
///
/// Any `Fn(u32, u32) -> f64 + Sync` is one (answering a hop pair by
/// pair); a store that can score several rows against one in a single
/// kernel call overrides [`RowDistance::hop`]. Both methods must agree
/// bit for bit — the committed graph depends on every distance.
pub trait RowDistance: Sync {
    /// The (squared) distance between rows `a` and `b`.
    fn pair(&self, a: u32, b: u32) -> f64;

    /// `out[i] = pair(a, ids[i])` for one hop's worth of ids
    /// (`out.len() == ids.len()`).
    fn hop(&self, a: u32, ids: &[u32], out: &mut [f64]) {
        for (o, &b) in out.iter_mut().zip(ids) {
            *o = self.pair(a, b);
        }
    }
}

impl<F: Fn(u32, u32) -> f64 + Sync> RowDistance for F {
    fn pair(&self, a: u32, b: u32) -> f64 {
        self(a, b)
    }
}

/// Decode error for the `NTHNSW01` graph codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HnswCodecError(String);

impl std::fmt::Display for HnswCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "hnsw decode: {}", self.0)
    }
}

impl std::error::Error for HnswCodecError {}

impl From<Truncated> for HnswCodecError {
    fn from(e: Truncated) -> Self {
        Self(e.to_string())
    }
}

fn err(msg: impl Into<String>) -> HnswCodecError {
    HnswCodecError(msg.into())
}

/// A `(distance, id)` pair under the total order used everywhere in
/// this module: `f64::total_cmp` on distance, then id.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cand {
    d: f64,
    id: u32,
}

impl Eq for Cand {}

impl Ord for Cand {
    fn cmp(&self, other: &Self) -> Ordering {
        self.d.total_cmp(&other.d).then(self.id.cmp(&other.id))
    }
}

impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One beam-pool entry: a candidate plus whether its adjacency has
/// been expanded on the current layer.
#[derive(Debug, Clone, Copy)]
struct Slot {
    d: f64,
    id: u32,
    expanded: bool,
}

impl Slot {
    fn cand(&self) -> Cand {
        Cand {
            d: self.d,
            id: self.id,
        }
    }
}

/// Reusable per-thread search state: an epoch-stamped visited set, the
/// beam pool, and one hop's id and distance buffers. Create once, reuse
/// across queries — a walk resets it in O(1) (the visited array is only
/// rewritten on epoch wrap).
#[derive(Debug, Default)]
pub struct GraphScratch {
    visited: Vec<u32>,
    epoch: u32,
    /// The beam: at most `ef` entries, ascending by `(distance, id)`,
    /// ids distinct. Between layers it is the frontier.
    pool: Vec<Slot>,
    /// The unvisited neighbours of the node being expanded …
    ids: Vec<u32>,
    /// … and their distances, filled by one oracle call.
    dists: Vec<f64>,
}

impl GraphScratch {
    /// Fresh scratch; grows lazily to the graph size on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a layer over `n` nodes: forgets every visit.
    fn begin(&mut self, n: usize) {
        if self.visited.len() < n {
            self.visited.resize(n, self.epoch);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.visited.fill(0);
            self.epoch = 1;
        }
    }

    /// Scores `ids` (replacing the hop buffer) with one oracle call —
    /// none when the hop found every neighbour already visited, which
    /// at wide beams is about half of them.
    fn score<F: FnMut(&[u32], &mut [f64])>(&mut self, dq: &mut F) {
        self.dists.clear();
        if !self.ids.is_empty() {
            self.dists.resize(self.ids.len(), 0.0);
            dq(&self.ids, &mut self.dists);
        }
    }

    /// Makes `(d, id)` the whole pool — the frontier a walk starts from.
    fn seed(&mut self, d: f64, id: u32) {
        self.pool.clear();
        self.pool.push(Slot {
            d,
            id,
            expanded: false,
        });
    }
}

/// Fixed-width adjacency rows: row `r` is the first `lens[r]` of the
/// `width` slots at `slots[r · width]`, sorted ascending by id. Unused
/// slots stay zero, so `==` compares adjacency.
#[derive(Debug, Clone, PartialEq)]
struct Arena {
    width: usize,
    slots: Vec<u32>,
    lens: Vec<u8>,
}

impl Arena {
    fn new(width: usize) -> Self {
        Arena {
            width,
            slots: Vec::new(),
            lens: Vec::new(),
        }
    }

    fn rows(&self) -> usize {
        self.lens.len()
    }

    /// Appends `rows` empty rows.
    fn grow(&mut self, rows: usize) {
        let rows = self.rows() + rows;
        self.slots.resize(rows * self.width, 0);
        self.lens.resize(rows, 0);
    }

    #[inline]
    fn row(&self, r: usize) -> &[u32] {
        &self.slots[r * self.width..][..self.lens[r] as usize]
    }

    fn set(&mut self, r: usize, ids: &[u32]) {
        let slots = &mut self.slots[r * self.width..(r + 1) * self.width];
        slots[..ids.len()].copy_from_slice(ids);
        slots[ids.len()..].fill(0);
        self.lens[r] = ids.len() as u8;
    }
}

/// Per-node build output: selected links for layers `0..=level`
/// (index = layer), each sorted ascending by `(distance, id)`.
type NodePlan = Vec<Vec<Cand>>;

/// A deterministic HNSW graph over row ids `0..len`.
///
/// Layer-0 adjacency is a flat `len × m0` arena (memory-lean at
/// N=10M); layers ≥ 1 are a second arena of `m`-wide rows, one per
/// (node, layer) in id order, found through a per-node row offset — so
/// `links` is two array reads on every layer. Adjacency lists are
/// stored sorted ascending by id — the canonical serialized form,
/// validated on decode.
#[derive(Debug, Clone, PartialEq)]
pub struct HnswIndex {
    params: HnswParams,
    /// Cached `1 / ln(m)` for the geometric level draw.
    ml: f64,
    len: usize,
    /// Hashed level per node (recomputed on decode, never serialized).
    levels: Vec<u8>,
    /// Layer 0: one `m0`-wide row per node.
    base: Arena,
    /// Layers ≥ 1: `m`-wide rows; node `id` owns rows `upper_row[id]
    /// .. upper_row[id] + level(id)`, its layer `l` list in row
    /// `upper_row[id] + l − 1`.
    upper: Arena,
    /// Upper-arena rows owned by smaller ids (a running sum of levels).
    upper_row: Vec<u32>,
    /// Lowest id among nodes of maximal level (derived, not stored).
    entry: Option<u32>,
    max_level: u8,
    /// Per-node count of layer-0 in-edges from **smaller** ids,
    /// maintained live by [`Self::set_links_sorted`] (never serialized;
    /// rebuilt while decoding). Invariant: once committed, every node
    /// `u > 0` keeps `indeg_lower[u] >= 1`, so by induction on ids the
    /// whole layer-0 graph stays reachable from node 0 — evictions that
    /// would zero a node's last lower in-edge are redirected.
    indeg_lower: Vec<u32>,
}

impl HnswIndex {
    // -- construction -------------------------------------------------

    fn empty(params: HnswParams) -> Self {
        HnswIndex {
            params,
            ml: 1.0 / (params.m as f64).ln(),
            len: 0,
            levels: Vec::new(),
            base: Arena::new(params.m0),
            upper: Arena::new(params.m),
            upper_row: Vec::new(),
            entry: None,
            max_level: 0,
            indeg_lower: Vec::new(),
        }
    }

    /// The hashed geometric level of `id` under this graph's seed: a
    /// splitmix64 draw `u ∈ (0, 1]` through `floor(-ln(u) · mL)`.
    fn level_for(&self, id: u32) -> u8 {
        let z = mix64(
            self.params
                .seed
                .wrapping_add((u64::from(id) + 1).wrapping_mul(GOLDEN_GAMMA)),
        );
        // Top 53 bits → u ∈ (0, 1]; u = 1 maps to level 0.
        let u = ((z >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        let lvl = -u.ln() * self.ml;
        (lvl as usize).min(MAX_LEVEL as usize) as u8
    }

    /// Builds the graph over `n` rows with `threads`-way parallel
    /// rounds. `dist` answers the (squared) distance between rows — a
    /// plain `|a, b| …` closure or any other [`RowDistance`]; the
    /// committed bytes are identical for every `threads` value. Panics
    /// on invalid `params` (callers with typed error surfaces validate
    /// first).
    pub fn build<D: RowDistance>(
        params: HnswParams,
        n: usize,
        threads: usize,
        dist: &D,
    ) -> HnswIndex {
        if let Err(e) = params.validate() {
            panic!("hnsw build: {e}");
        }
        let threads = threads.max(1);
        let mut g = HnswIndex::empty(params);
        let mut scratches: Vec<GraphScratch> = (0..threads).map(|_| GraphScratch::new()).collect();
        let mut start = 0usize;
        while start < n {
            // Round boundaries are pure functions of the id space: each
            // round commits half the already-committed prefix (capped at
            // ROUND_CAP), so the frozen graph a round searches is always
            // at least 2x the round itself — keeping backlink floods on
            // popular nodes (and thus pruning-induced orphans) rare.
            let size = (start / 2).clamp(1, ROUND_CAP).min(n - start);
            let end = start + size;
            g.grow_to(end);
            // Phase A: plan every round member against the frozen
            // committed graph, one contiguous run of ids per worker.
            let (chunk, gref) = (size.div_ceil(threads), &g);
            let runs = (start..end).step_by(chunk).zip(scratches.iter_mut());
            let plans: Vec<NodePlan> = par::fan_out(runs, |(from, s)| {
                (from..(from + chunk).min(end))
                    .map(|id| gref.plan_node(id as u32, dist, s))
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
            // Phase B: commit sequentially in id order.
            g.commit_round(start, &plans, dist, threads);
            start = end;
        }
        g
    }

    /// Appends one node (id = `len`) and links it, exactly as a
    /// 1-node build round. `dist` must accept the new id. Returns the
    /// assigned id. `scratch` is the caller's to reuse: its visited
    /// array is as long as the graph, too much to allocate per row.
    pub fn insert<D: RowDistance>(&mut self, dist: &D, scratch: &mut GraphScratch) -> usize {
        let id = self.len as u32;
        self.grow_to(self.len + 1);
        let plan = self.plan_node(id, dist, scratch);
        self.commit_round(id as usize, std::slice::from_ref(&plan), dist, 1);
        id as usize
    }

    /// Extends the node arena (levels, empty adjacency) to `n` rows
    /// without touching the committed entry point.
    fn grow_to(&mut self, n: usize) {
        while self.len < n {
            let id = self.len as u32;
            let lvl = self.level_for(id);
            self.levels.push(lvl);
            self.base.grow(1);
            self.upper_row.push(self.upper.rows() as u32);
            self.upper.grow(lvl as usize);
            self.indeg_lower.push(0);
            self.len += 1;
        }
    }

    /// Phase A for one node: beam-search every layer from the top and
    /// heuristically select links on each layer the node joins. Reads
    /// only committed state.
    fn plan_node<D: RowDistance>(&self, id: u32, dist: &D, scratch: &mut GraphScratch) -> NodePlan {
        let lvl = self.levels[id as usize] as usize;
        let mut plan: NodePlan = vec![Vec::new(); lvl + 1];
        let Some(ep) = self.entry else {
            return plan; // first node: no links to make
        };
        let ef = self.params.ef_construction;
        let mut stats = GraphSearchStats::default();
        let mut dq = |ids: &[u32], out: &mut [f64]| dist.hop(id, ids, out);
        // Same multi-entry beam shape as the query path: carrying the
        // whole frontier between layers keeps construction from wiring
        // each new node into a single directed pocket of its region.
        scratch.seed(dist.pair(id, ep), ep);
        for layer in (0..=self.max_level as usize).rev() {
            self.beam_layer(layer, ef, &mut dq, scratch, &mut stats);
            if layer <= lvl {
                let cands = scratch.pool.iter().map(Slot::cand);
                plan[layer] = heuristic_select(cands, self.params.m, dist);
            }
        }
        plan
    }

    /// Phase B: write each round member's own adjacency in id order,
    /// then merge backlinks grouped by `(target, layer)` — merge
    /// results are computed (in parallel) against the pre-round state
    /// and applied sequentially, so the outcome is thread-invariant.
    fn commit_round<D: RowDistance>(
        &mut self,
        start: usize,
        plans: &[NodePlan],
        dist: &D,
        threads: usize,
    ) {
        let mut reqs: Vec<(u32, u8, u32, f64)> = Vec::new();
        for (off, plan) in plans.iter().enumerate() {
            let id = (start + off) as u32;
            for (layer, sel) in plan.iter().enumerate() {
                self.set_links(id, layer, sel);
                for c in sel {
                    reqs.push((c.id, layer as u8, id, c.d));
                }
            }
        }
        // Group backlink requests by (target, layer); source ids are
        // unique within a group (one selected list per node+layer).
        reqs.sort_by_key(|r| (r.0, r.1, r.2));
        let mut jobs: Vec<(u32, u8, Vec<Cand>)> = Vec::new();
        for (target, layer, src, d) in reqs {
            match jobs.last_mut() {
                Some((t, l, incoming)) if *t == target && *l == layer => {
                    incoming.push(Cand { d, id: src });
                }
                _ => jobs.push((target, layer, vec![Cand { d, id: src }])),
            }
        }
        let chunk = if jobs.len() < 2 * threads {
            jobs.len().max(1)
        } else {
            jobs.len().div_ceil(threads)
        };
        let gref = &*self;
        let outs: Vec<Vec<u32>> = par::fan_out(jobs.chunks(chunk), |part| {
            part.iter()
                .map(|(target, layer, incoming)| {
                    gref.merge_backlinks(*target, *layer as usize, incoming, dist)
                })
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        // Apply sequentially in job order. Layer-0 merges pass through
        // the lower-in-edge guard: the merge decisions were computed in
        // parallel against pre-round state, but whether an eviction
        // orphans a node depends on the *live* in-degree counters, so
        // the fixup must see every earlier application this round.
        for ((target, layer, _), ids) in jobs.iter().zip(outs) {
            let ids = if *layer == 0 {
                self.protect_lower_edges(*target, ids, dist)
            } else {
                ids
            };
            self.set_links_sorted(*target, *layer as usize, ids);
        }
        self.repair_reachability(start, plans, dist);
        // Entry update: lowest id of the (new) maximal level wins.
        for off in 0..plans.len() {
            let id = (start + off) as u32;
            let lvl = self.levels[id as usize];
            if self.entry.is_none() || lvl > self.max_level {
                self.entry = Some(id);
                self.max_level = lvl;
            }
        }
    }

    /// Whether dropping the layer-0 edge `from -> x` is safe for the
    /// reachability invariant: it is unless the edge is `x`'s **last**
    /// in-edge from a smaller id.
    fn droppable(&self, from: u32, x: u32) -> bool {
        x < from || self.indeg_lower[x as usize] >= 2
    }

    /// The lower-in-edge guard for one layer-0 merge application:
    /// entries of `target`'s old list that `proposed` would drop but
    /// whose last lower in-edge this is get forced back in, evicting
    /// the farthest droppable proposed entries instead. Reads the
    /// *live* in-degree counters, so it must run sequentially in job
    /// order (thread-invariant: the job order and counters are pure
    /// functions of committed state).
    fn protect_lower_edges<D: RowDistance>(
        &self,
        target: u32,
        proposed: Vec<u32>,
        dist: &D,
    ) -> Vec<u32> {
        let old = self.links(target, 0);
        let must_keep: Vec<u32> = old
            .iter()
            .copied()
            .filter(|&x| !proposed.contains(&x) && !self.droppable(target, x))
            .collect();
        if must_keep.is_empty() {
            return proposed;
        }
        let mut keep = proposed;
        let overflow = (keep.len() + must_keep.len()).saturating_sub(self.params.m0);
        if overflow > 0 {
            // Evict the farthest droppable entries. A proposed entry
            // not in the old list is a fresh edge — dropping it never
            // removes anything from the graph, so it is always safe.
            let mut victims: Vec<u32> = keep
                .iter()
                .copied()
                .filter(|&y| !old.contains(&y) || self.droppable(target, y))
                .collect();
            victims.sort_unstable_by(|&a, &b| {
                dist.pair(target, a)
                    .total_cmp(&dist.pair(target, b))
                    .then(a.cmp(&b))
            });
            for &y in victims.iter().rev().take(overflow) {
                keep.retain(|&z| z != y);
            }
        }
        for &x in &must_keep {
            if keep.len() >= self.params.m0 {
                break; // every proposed entry is itself protected
            }
            keep.push(x);
        }
        keep.sort_unstable();
        keep
    }

    /// A freshly committed node whose backlinks were all pruned away by
    /// overflowing targets would have no layer-0 in-edge — invisible to
    /// every future beam search. Walk the round in id order and force
    /// each such node into the nearest selected target's list that can
    /// take it, evicting the worst droppable entry on overflow (never a
    /// node's last lower in-edge, which would just move the orphan).
    fn repair_reachability<D: RowDistance>(&mut self, start: usize, plans: &[NodePlan], dist: &D) {
        for (off, plan) in plans.iter().enumerate() {
            let id = (start + off) as u32;
            let Some(sel) = plan.first().filter(|sel| !sel.is_empty()) else {
                continue; // bootstrap node: nothing to link back from
            };
            if sel
                .iter()
                .any(|c| self.links(c.id, 0).binary_search(&id).is_ok())
            {
                continue;
            }
            for c in sel {
                let t = c.id;
                let mut list = self.links(t, 0).to_vec();
                if list.len() >= self.params.m0 {
                    let evict = list
                        .iter()
                        .enumerate()
                        .filter(|(_, &x)| self.droppable(t, x))
                        .max_by(|(_, &a), (_, &b)| {
                            dist.pair(t, a).total_cmp(&dist.pair(t, b)).then(a.cmp(&b))
                        })
                        .map(|(pos, _)| pos);
                    match evict {
                        Some(pos) => {
                            list.remove(pos);
                        }
                        None => continue, // every entry protected: try next target
                    }
                }
                list.push(id);
                list.sort_unstable();
                self.set_links_sorted(t, 0, list);
                break;
            }
        }
    }

    /// The post-merge adjacency for `target` at `layer` given incoming
    /// backlinks: append under capacity, heuristic re-select on
    /// overflow. Pure (reads pre-round state only).
    fn merge_backlinks<D: RowDistance>(
        &self,
        target: u32,
        layer: usize,
        incoming: &[Cand],
        dist: &D,
    ) -> Vec<u32> {
        let cap = if layer == 0 {
            self.params.m0
        } else {
            self.params.m
        };
        let old = self.links(target, layer);
        let mut ids: Vec<u32>;
        if old.len() + incoming.len() <= cap {
            ids = old.to_vec();
            ids.extend(incoming.iter().map(|c| c.id));
        } else {
            let mut d = vec![0.0; old.len()];
            dist.hop(target, old, &mut d);
            let mut cands: Vec<Cand> = old
                .iter()
                .zip(d)
                .map(|(&id, d)| Cand { d, id })
                .chain(incoming.iter().copied())
                .collect();
            cands.sort_unstable();
            ids = heuristic_select(cands.into_iter(), cap, dist)
                .into_iter()
                .map(|c| c.id)
                .collect();
        }
        ids.sort_unstable();
        ids
    }

    fn set_links(&mut self, id: u32, layer: usize, sel: &[Cand]) {
        let mut ids: Vec<u32> = sel.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        self.set_links_sorted(id, layer, ids);
    }

    fn set_links_sorted(&mut self, id: u32, layer: usize, ids: Vec<u32>) {
        let row = self.row_of(id, layer).expect("node reaches the layer");
        if layer == 0 {
            // Maintain the lower-in-degree counters: an edge `id -> x`
            // is a lower in-edge of `x` iff `id < x`.
            let old = self.base.row(row);
            for &x in old {
                if x > id && !ids.contains(&x) {
                    self.indeg_lower[x as usize] -= 1;
                }
            }
            for &x in &ids {
                if x > id && !old.contains(&x) {
                    self.indeg_lower[x as usize] += 1;
                }
            }
        }
        let arena = if layer == 0 {
            &mut self.base
        } else {
            &mut self.upper
        };
        debug_assert!(ids.len() <= arena.width);
        arena.set(row, &ids);
    }

    /// The row of its layer's arena that holds `id`'s `layer` list;
    /// `None` above the node's level.
    #[inline]
    fn row_of(&self, id: u32, layer: usize) -> Option<usize> {
        if layer == 0 {
            Some(id as usize)
        } else if layer <= self.levels[id as usize] as usize {
            Some(self.upper_row[id as usize] as usize + layer - 1)
        } else {
            None
        }
    }

    /// The adjacency list of `id` at `layer` (sorted ascending by id).
    #[inline]
    fn links(&self, id: u32, layer: usize) -> &[u32] {
        let arena = if layer == 0 { &self.base } else { &self.upper };
        self.row_of(id, layer).map_or(&[], |row| arena.row(row))
    }

    // -- search -------------------------------------------------------

    /// Beam search at `layer`, in place: `s.pool` comes in as the
    /// frontier (one or more entries) and leaves as the up to `ef`
    /// nearest reachable nodes, ascending by `(distance, id)`. Multiple
    /// entries matter on strongly clustered corpora: a single entry can
    /// land in a directed pocket whose only exits run through nodes
    /// farther than the beam's worst result — which the termination
    /// bound then prunes.
    ///
    /// Every entry left of `cursor` is expanded, so `cursor` finds the
    /// nearest unexpanded entry without a second queue; an entry pushed
    /// off the end of a full pool is farther than all that remain and
    /// would never have been expanded.
    fn beam_layer<F: FnMut(&[u32], &mut [f64])>(
        &self,
        layer: usize,
        ef: usize,
        dq: &mut F,
        s: &mut GraphScratch,
        stats: &mut GraphSearchStats,
    ) {
        debug_assert!(!s.pool.is_empty() && s.pool.len() <= ef);
        s.begin(self.len);
        for slot in &mut s.pool {
            slot.expanded = false;
            s.visited[slot.id as usize] = s.epoch;
        }
        let mut cursor = 0;
        while cursor < s.pool.len() {
            s.pool[cursor].expanded = true;
            let links = self.links(s.pool[cursor].id, layer);
            stats.hops += 1;
            stats.links_scanned += links.len();
            s.ids.clear();
            for &nb in links {
                let seen = &mut s.visited[nb as usize];
                if *seen != s.epoch {
                    *seen = s.epoch;
                    s.ids.push(nb);
                }
            }
            s.score(dq);
            stats.candidates_scanned += s.ids.len();
            for (&id, &d) in s.ids.iter().zip(&s.dists) {
                let c = Cand { d, id };
                let full = s.pool.len() == ef;
                if full && c > s.pool[ef - 1].cand() {
                    continue;
                }
                let at = s.pool.partition_point(|x| x.cand() < c);
                let slot = Slot {
                    d,
                    id,
                    expanded: false,
                };
                if full {
                    s.pool.copy_within(at..ef - 1, at + 1);
                    s.pool[at] = slot;
                } else {
                    s.pool.insert(at, slot);
                }
                cursor = cursor.min(at);
            }
            while s.pool.get(cursor).is_some_and(|x| x.expanded) {
                cursor += 1;
            }
        }
    }

    /// Collects up to `ef` shortlist candidates for a query into
    /// `out` as `(squared_distance, id)`, sorted ascending by
    /// `(distance, id)`. `dist_to_query(ids, out)` is the caller's
    /// oracle: it writes the query's distance to row `ids[i]` into
    /// `out[i]`, and is called once per hop.
    ///
    /// `ef >= len` degenerates to enumerating every row — the
    /// recall-1.0 anchor that makes a full-ef query bit-identical to
    /// the exhaustive scan regardless of graph connectivity.
    pub fn shortlist_into<F: FnMut(&[u32], &mut [f64])>(
        &self,
        ef: usize,
        mut dist_to_query: F,
        scratch: &mut GraphScratch,
        out: &mut Vec<(f64, u32)>,
    ) -> GraphSearchStats {
        assert!(ef > 0, "ef must be positive");
        out.clear();
        let mut stats = GraphSearchStats::default();
        if self.len == 0 {
            return stats;
        }
        if ef >= self.len {
            // In hop-sized blocks, so the scratch stays hop-sized.
            let n = self.len as u32;
            for start in (0..n).step_by(FULL_SCAN_BLOCK as usize) {
                let block = start..n.min(start + FULL_SCAN_BLOCK);
                scratch.ids.clear();
                scratch.ids.extend(block.clone());
                scratch.score(&mut dist_to_query);
                out.extend(scratch.dists.iter().copied().zip(block));
            }
            stats.candidates_scanned = self.len;
            out.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            return stats;
        }
        let ep = self.entry.expect("non-empty graph has an entry");
        scratch.ids.clear();
        scratch.ids.push(ep);
        scratch.score(&mut dist_to_query);
        stats.candidates_scanned += 1;
        // Beam every layer at full width, seeding each layer with all
        // of the previous layer's results (the original Algorithm-5
        // shape, not the 1-best greedy-descent shortcut): on strongly
        // clustered corpora a single descent path can land in a
        // directed pocket of the right cluster that the layer-0 beam
        // cannot exit.
        scratch.seed(scratch.dists[0], ep);
        for layer in (0..=self.max_level as usize).rev() {
            self.beam_layer(layer, ef, &mut dist_to_query, scratch, &mut stats);
        }
        out.extend(scratch.pool.iter().map(|c| (c.d, c.id)));
        stats
    }

    // -- accessors ----------------------------------------------------

    /// Number of indexed rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the graph indexes zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The construction parameters.
    pub fn params(&self) -> &HnswParams {
        &self.params
    }

    /// The current entry point (lowest id of maximal level), if any.
    pub fn entry_point(&self) -> Option<u32> {
        self.entry
    }

    /// The maximal hashed level present in the graph.
    pub fn max_level(&self) -> u8 {
        self.max_level
    }

    // -- codec --------------------------------------------------------

    /// Serializes into the raw `NTHNSW01` payload: magic, `m`, `m0`,
    /// `ef_construction`, `seed`, `len` (u64 LE each), then for every
    /// node in id order, for every layer `0..=level(id)`: a `u8` count
    /// followed by that many `u32` neighbor ids in strictly ascending
    /// order. Levels are recomputed from `(seed, m)` on decode.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(48 + self.base.slots.len() * 4);
        out.put_slice(HNSW_MAGIC);
        for v in [
            self.params.m as u64,
            self.params.m0 as u64,
            self.params.ef_construction as u64,
            self.params.seed,
            self.len as u64,
        ] {
            out.put_u64_le(v);
        }
        for id in 0..self.len as u32 {
            for layer in 0..=self.levels[id as usize] as usize {
                let ids = self.links(id, layer);
                out.put_u8(ids.len() as u8);
                for &nb in ids {
                    out.put_u32_le(nb);
                }
            }
        }
        out
    }

    /// Decodes a payload produced by [`HnswIndex::to_bytes`],
    /// validating every field: parameter ranges, per-layer link-count
    /// caps, strictly ascending in-range neighbor ids, no self-loops,
    /// upper-layer neighbors actually reaching that layer, and no
    /// trailing bytes.
    pub fn from_bytes(data: &[u8]) -> Result<HnswIndex, HnswCodecError> {
        let mut c = Reader::new(data);
        if c.take(8)? != HNSW_MAGIC {
            return Err(err("bad magic (not an NTHNSW01 graph?)"));
        }
        let m = c.u64()? as usize;
        let m0 = c.u64()? as usize;
        let ef_construction = c.u64()? as usize;
        let seed = c.u64()?;
        let len = c.u64()?;
        let params = HnswParams {
            m,
            m0,
            ef_construction,
            seed,
        };
        params.validate().map_err(err)?;
        if len > 1 << 33 {
            return Err(err(format!("implausible row count {len}")));
        }
        let len = len as usize;
        let mut g = HnswIndex::empty(params);
        g.grow_to(len);
        for id in 0..len as u32 {
            let lvl = g.levels[id as usize] as usize;
            for layer in 0..=lvl {
                let count = c.u8()? as usize;
                let cap = if layer == 0 { m0 } else { m };
                if count > cap {
                    return Err(err(format!(
                        "node {id} layer {layer} declares {count} links (cap {cap})"
                    )));
                }
                let mut ids = Vec::with_capacity(count);
                let mut prev: Option<u32> = None;
                for _ in 0..count {
                    let nb = c.u32()?;
                    if nb as usize >= len {
                        return Err(err(format!(
                            "node {id} layer {layer} links to out-of-range id {nb} (len {len})"
                        )));
                    }
                    if nb == id {
                        return Err(err(format!("node {id} layer {layer} links to itself")));
                    }
                    if prev.is_some_and(|p| nb <= p) {
                        return Err(err(format!(
                            "node {id} layer {layer} neighbor ids not strictly ascending"
                        )));
                    }
                    if layer > 0 && (g.levels[nb as usize] as usize) < layer {
                        return Err(err(format!(
                            "node {id} layer {layer} links to id {nb} whose level is below that \
                             layer"
                        )));
                    }
                    prev = Some(nb);
                    ids.push(nb);
                }
                g.set_links_sorted(id, layer, ids);
            }
        }
        if !c.rest().is_empty() {
            return Err(err(format!(
                "{} trailing bytes after the graph payload",
                c.rest().len()
            )));
        }
        // Derive the entry point: lowest id of maximal level.
        for id in 0..len as u32 {
            let lvl = g.levels[id as usize];
            if g.entry.is_none() || lvl > g.max_level {
                g.entry = Some(id);
                g.max_level = lvl;
            }
        }
        Ok(g)
    }
}

/// HNSW heuristic neighbor selection with keep-pruned-connections:
/// walk candidates in ascending `(distance, id)` order, keep `c` only
/// if no already-kept `s` is closer to `c` than the query is
/// (`dist(c, s) < d(c, q)` prunes), then backfill pruned candidates up
/// to `cap`. A candidate's distances to everything kept so far are one
/// oracle hop.
fn heuristic_select<D: RowDistance>(
    cands: impl Iterator<Item = Cand>,
    cap: usize,
    dist: &D,
) -> Vec<Cand> {
    let mut selected: Vec<Cand> = Vec::with_capacity(cap);
    let mut kept: Vec<u32> = Vec::with_capacity(cap);
    let mut to_kept = vec![0.0; cap];
    let mut pruned: Vec<Cand> = Vec::new();
    for c in cands {
        if selected.len() >= cap {
            break;
        }
        let to_kept = &mut to_kept[..kept.len()];
        dist.hop(c.id, &kept, to_kept);
        if to_kept.iter().all(|&d| d >= c.d) {
            selected.push(c);
            kept.push(c.id);
        } else {
            pruned.push(c);
        }
    }
    let room = cap - selected.len();
    selected.extend(pruned.into_iter().take(room));
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use neutraj_trajectory::rng::{cases, splitmix64, Rng};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Deterministic pseudo-random rows for a squared-L2 oracle.
    fn rows(n: usize, dim: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        (0..n * dim)
            .map(|_| (splitmix64(&mut state) % 1000) as f64 / 10.0)
            .collect()
    }

    fn l2sq(rows: &[f64], dim: usize, a: u32, b: u32) -> f64 {
        let ra = &rows[a as usize * dim..(a as usize + 1) * dim];
        let rb = &rows[b as usize * dim..(b as usize + 1) * dim];
        ra.iter()
            .zip(rb)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
    }

    /// A per-id query oracle as the per-hop closure `shortlist_into` takes.
    fn each(mut f: impl FnMut(u32) -> f64) -> impl FnMut(&[u32], &mut [f64]) {
        move |ids, out| {
            for (o, &i) in out.iter_mut().zip(ids) {
                *o = f(i);
            }
        }
    }

    /// The textbook two-heap beam this module used before the pool —
    /// kept as the oracle the pool must match expansion for expansion.
    /// Returns the layer's result (ascending) and adds its work to
    /// `stats`.
    fn two_heap_beam(
        g: &HnswIndex,
        layer: usize,
        entries: &[Cand],
        ef: usize,
        dq: &mut impl FnMut(u32) -> f64,
        stats: &mut GraphSearchStats,
    ) -> Vec<Cand> {
        let mut visited = vec![false; g.len];
        let mut mark = |id: u32| !std::mem::replace(&mut visited[id as usize], true);
        let mut cand: BinaryHeap<Reverse<Cand>> = BinaryHeap::new();
        let mut res: BinaryHeap<Cand> = BinaryHeap::new();
        for &e in entries {
            if mark(e.id) {
                cand.push(Reverse(e));
                res.push(e);
                if res.len() > ef {
                    res.pop();
                }
            }
        }
        while let Some(&Reverse(c)) = cand.peek() {
            let worst = *res.peek().expect("res never empty");
            if res.len() >= ef && c > worst {
                break;
            }
            cand.pop();
            stats.hops += 1;
            for &nb in g.links(c.id, layer) {
                stats.links_scanned += 1;
                if !mark(nb) {
                    continue;
                }
                let d = dq(nb);
                stats.candidates_scanned += 1;
                let cd = Cand { d, id: nb };
                if res.len() < ef || cd < *res.peek().expect("res never empty") {
                    cand.push(Reverse(cd));
                    res.push(cd);
                    if res.len() > ef {
                        res.pop();
                    }
                }
            }
        }
        let mut out = res.into_vec();
        out.sort_unstable();
        out
    }

    /// Random corpora on a coarse integer grid, with whole rows repeated:
    /// many exactly tied distances and many zero ones, so every order in
    /// the beam is decided by ids somewhere.
    #[test]
    fn pool_beam_matches_two_heap_oracle_on_every_layer() {
        cases(24, |rng: &mut Rng| {
            let n = rng.gen_range(70..260usize);
            let dim = rng.gen_range(1..4usize);
            let mut data: Vec<f64> = (0..n * dim)
                .map(|_| f64::from(rng.gen_range(0..6u32)))
                .collect();
            for _ in 0..n / 4 {
                let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                data.copy_within(a * dim..(a + 1) * dim, b * dim);
            }
            // Narrow links so a small corpus still stacks several layers.
            let params = HnswParams {
                m: 3,
                m0: 6,
                ef_construction: rng.gen_range(4..40),
                seed: rng.next_u64(),
            };
            let dist = |a: u32, b: u32| l2sq(&data, dim, a, b);
            let g = HnswIndex::build(params, n, 1, &dist);
            assert!(g.max_level() >= 2, "corpus too flat to test upper layers");
            for threads in [2, 4] {
                let other = HnswIndex::build(params, n, threads, &dist);
                assert_eq!(other.to_bytes(), g.to_bytes(), "{threads} threads");
                assert_eq!(other, g, "{threads} threads");
            }

            let mut scratch = GraphScratch::new();
            let mut out = Vec::new();
            for ef in [1, 2, 7, 64, n - 1] {
                let q = rng.gen_range(0..n as u32);
                let mut dq = |i: u32| dist(q, i);
                // The oracle, layer by layer from the entry point; the
                // pool is handed the oracle's frontier on each layer
                // (one entry on the top layer, many below).
                let ep = g.entry_point().expect("non-empty");
                let mut want = GraphSearchStats {
                    candidates_scanned: 1,
                    ..Default::default()
                };
                let mut frontier = vec![Cand { d: dq(ep), id: ep }];
                for layer in (0..=g.max_level() as usize).rev() {
                    scratch.pool.clear();
                    scratch.pool.extend(frontier.iter().map(|c| Slot {
                        d: c.d,
                        id: c.id,
                        expanded: true,
                    }));
                    let mut got = GraphSearchStats::default();
                    let before = want;
                    frontier = two_heap_beam(&g, layer, &frontier, ef, &mut dq, &mut want);
                    g.beam_layer(layer, ef, &mut each(&mut dq), &mut scratch, &mut got);
                    let pool: Vec<Cand> = scratch.pool.iter().map(Slot::cand).collect();
                    assert_eq!(pool, frontier, "ef {ef} layer {layer}");
                    assert_eq!(got.hops, want.hops - before.hops, "ef {ef} layer {layer}");
                    assert_eq!(
                        got.candidates_scanned,
                        want.candidates_scanned - before.candidates_scanned,
                        "ef {ef} layer {layer}"
                    );
                    assert_eq!(got.links_scanned, want.links_scanned - before.links_scanned);
                }
                // And the whole walk, carrying its own pool across layers.
                let got = g.shortlist_into(ef, each(&mut dq), &mut scratch, &mut out);
                let shortlist: Vec<Cand> = out.iter().map(|&(d, id)| Cand { d, id }).collect();
                assert_eq!(shortlist, frontier, "ef {ef}");
                assert_eq!(got, want, "ef {ef}");
            }
        });
    }

    fn build_over(rows: &[f64], dim: usize, n: usize, threads: usize) -> HnswIndex {
        let dist = |a: u32, b: u32| l2sq(rows, dim, a, b);
        HnswIndex::build(HnswParams::default(), n, threads, &dist)
    }

    #[test]
    fn build_is_byte_identical_across_thread_counts() {
        let (n, dim) = (700, 6);
        let data = rows(n, dim, 42);
        let reference = build_over(&data, dim, n, 1).to_bytes();
        for threads in [2, 3, 4, 8] {
            assert_eq!(
                build_over(&data, dim, n, threads).to_bytes(),
                reference,
                "thread count {threads} changed the committed graph"
            );
        }
    }

    #[test]
    fn full_ef_matches_brute_force() {
        let (n, dim) = (300, 4);
        let data = rows(n, dim, 7);
        let g = build_over(&data, dim, n, 2);
        let q = 17u32;
        let mut dq = |i: u32| l2sq(&data, dim, q, i);
        let mut out = Vec::new();
        let mut scratch = GraphScratch::new();
        g.shortlist_into(n, each(&mut dq), &mut scratch, &mut out);
        let mut brute: Vec<(f64, u32)> = (0..n as u32).map(|i| (dq(i), i)).collect();
        brute.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        assert_eq!(out, brute);
    }

    #[test]
    fn small_ef_search_finds_true_nearest() {
        let (n, dim) = (1200, 8);
        let data = rows(n, dim, 99);
        let g = build_over(&data, dim, n, 4);
        let mut scratch = GraphScratch::new();
        let mut hits = 0usize;
        let queries = 40usize;
        for q in 0..queries as u32 {
            let mut dq = |i: u32| l2sq(&data, dim, q, i);
            let truth = (0..n as u32)
                .map(|i| Cand { d: dq(i), id: i })
                .min()
                .unwrap();
            let mut out = Vec::new();
            let stats = g.shortlist_into(64, each(&mut dq), &mut scratch, &mut out);
            assert!(stats.hops > 0, "graph search must hop");
            assert!(
                stats.candidates_scanned < n,
                "a narrow beam scores fewer rows"
            );
            assert!(out.len() <= 64);
            if out.first().map(|&(_, id)| id) == Some(truth.id) {
                hits += 1;
            }
        }
        assert!(
            hits * 10 >= queries * 9,
            "recall@1 too low: {hits}/{queries}"
        );
    }

    #[test]
    fn insert_matches_batch_build() {
        let (n, dim) = (180, 4);
        let data = rows(n, dim, 5);
        let dist = |a: u32, b: u32| l2sq(&data, dim, a, b);
        let batch = HnswIndex::build(HnswParams::default(), n, 2, &dist);
        // Rounds in `build` freeze the graph for a whole round, so a
        // node-at-a-time insert sees *more* committed context and the
        // graphs differ; what must hold is the level/derived state and
        // search quality, plus codec round-tripping.
        let mut inc = HnswIndex::build(HnswParams::default(), 0, 1, &dist);
        let mut scratch = GraphScratch::new();
        for _ in 0..n {
            inc.insert(&dist, &mut scratch);
        }
        assert_eq!(inc.len(), batch.len());
        assert_eq!(inc.max_level(), batch.max_level());
        assert_eq!(inc.entry_point(), batch.entry_point());
        let mut out = Vec::new();
        inc.shortlist_into(n, each(|i| dist(3, i)), &mut scratch, &mut out);
        assert_eq!(out.len(), n);
        assert_eq!(out[0].1, 3);
    }

    #[test]
    fn codec_round_trips() {
        let (n, dim) = (250, 4);
        let data = rows(n, dim, 13);
        let g = build_over(&data, dim, n, 3);
        let bytes = g.to_bytes();
        let back = HnswIndex::from_bytes(&bytes).expect("round trip");
        assert_eq!(back, g);
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn codec_rejects_structural_corruption() {
        let (n, dim) = (120, 4);
        let data = rows(n, dim, 21);
        let g = build_over(&data, dim, n, 1);
        let bytes = g.to_bytes();
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(HnswIndex::from_bytes(&bad).is_err());
        // Truncation at every boundary-ish prefix.
        for cut in [7, 8, 20, 47, bytes.len() - 1] {
            assert!(HnswIndex::from_bytes(&bytes[..cut]).is_err());
        }
        // Trailing garbage.
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(HnswIndex::from_bytes(&trailing).is_err());
        // Implausible params (m = 1).
        let mut badm = bytes.clone();
        badm[8..16].copy_from_slice(&1u64.to_le_bytes());
        assert!(HnswIndex::from_bytes(&badm).is_err());
        // An adjacency byte pushed out of range: set a neighbor id to
        // len (first adjacency list starts right after the header).
        let mut badid = bytes.clone();
        let first_count = badid[48] as usize;
        if first_count > 0 {
            badid[49..53].copy_from_slice(&(n as u32).to_le_bytes());
            assert!(HnswIndex::from_bytes(&badid).is_err());
        }
    }

    #[test]
    fn empty_graph_is_valid() {
        let dist = |_: u32, _: u32| 0.0;
        let g = HnswIndex::build(HnswParams::default(), 0, 4, &dist);
        assert!(g.is_empty());
        assert_eq!(g.entry_point(), None);
        let back = HnswIndex::from_bytes(&g.to_bytes()).expect("empty round trip");
        assert_eq!(back, g);
        let mut out = vec![(0.0, 9u32)];
        let mut scratch = GraphScratch::new();
        let stats = g.shortlist_into(5, each(|_| 0.0), &mut scratch, &mut out);
        assert!(out.is_empty());
        assert_eq!(stats, GraphSearchStats::default());
    }

    #[test]
    fn params_validation_rejects_bad_ranges() {
        for p in [
            HnswParams {
                m: 1,
                ..HnswParams::default()
            },
            HnswParams {
                m: 129,
                ..HnswParams::default()
            },
            HnswParams {
                m0: 8,
                m: 16,
                ..HnswParams::default()
            },
            HnswParams {
                m0: 256,
                ..HnswParams::default()
            },
            HnswParams {
                ef_construction: 0,
                ..HnswParams::default()
            },
        ] {
            assert!(p.validate().is_err(), "{p:?} should be rejected");
        }
        assert!(HnswParams::default().validate().is_ok());
    }

    #[test]
    fn levels_are_geometricish() {
        let g = HnswIndex::empty(HnswParams::default());
        let n = 100_000u32;
        let mut counts = [0usize; 8];
        for id in 0..n {
            let l = g.level_for(id) as usize;
            counts[l.min(7)] += 1;
        }
        // With m=16, P(level ≥ 1) = 1/16: expect ~6250.
        let above = n as usize - counts[0];
        assert!(
            (4000..9000).contains(&above),
            "level distribution off: {above} nodes above level 0"
        );
    }
}
