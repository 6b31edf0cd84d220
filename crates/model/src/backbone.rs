//! Encoder backbones and the trained model handle.

use crate::config::{BackboneKind, TrainConfig};
use neutraj_nn::{
    Adam, GruCache, GruCell, GruGrads, LstmCache, LstmCell, LstmGrads, SamGrads, SamLstmEncoder,
    SamSeqRef, SamTapeRef, Workspace, WriteLog,
};
use neutraj_obs::{names, Histogram, Registry};
use neutraj_trajectory::{par, Grid, Trajectory};
use std::borrow::Borrow;
use std::cell::RefCell;

/// Normalized network inputs of one trajectory: coordinates + grid cells.
pub type SeqInputs = (Vec<(f64, f64)>, Vec<(u32, u32)>);

thread_local! {
    /// What [`NeuTrajModel::embed_batch`] keeps between calls: the
    /// lockstep state buffers and the converted inputs. A serving thread
    /// embeds one small batch per dispatch; in steady state that allocates
    /// the embeddings it returns and a few `B`-entry index vectors.
    static EMBED_SCRATCH: RefCell<(Workspace, Vec<SeqInputs>)> = RefCell::default();
}

/// Pre-resolved per-phase timing instruments for the two-phase SAM memory
/// protocol (see DESIGN.md, "Threading & determinism"): one observation
/// per [`Backbone::SAM_ROUND`]-sized round and phase.
#[derive(Debug, Clone)]
pub struct SamPhaseMetrics {
    /// Phase A — parallel buffered forwards against the round-start
    /// memory snapshot.
    phase_a_seconds: Histogram,
    /// Phase B — single-threaded ordered commit of the round's write
    /// logs.
    phase_b_seconds: Histogram,
}

impl SamPhaseMetrics {
    /// Resolves the SAM phase instruments in `registry`.
    pub fn register(registry: &Registry) -> Self {
        Self {
            phase_a_seconds: registry.histogram(names::SAM_PHASE_A_SECONDS),
            phase_b_seconds: registry.histogram(names::SAM_PHASE_B_SECONDS),
        }
    }
}

/// Parts of at most this many items split `len` items over `threads`
/// workers; everything in one part below four items or without threads.
fn part_len(len: usize, threads: usize) -> usize {
    if threads <= 1 || len < 4 {
        len.max(1)
    } else {
        len.div_ceil(threads)
    }
}

/// A recurrent encoder backbone (SAM-LSTM / LSTM / GRU) with uniform
/// forward/backward/optimize entry points so the trainer is
/// architecture-agnostic. Each arm is one `neutraj_nn` cell and its two
/// entry points (`forward_batch`, recording or not, and `backward`); the
/// SAM arm holds the cell inside the encoder that owns its memory, scan
/// width and batch tapes.
// One backbone per model, never collected: the SAM variant's inline tape
// bookkeeping costs nothing a `Box` would save.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Backbone {
    /// SAM-augmented LSTM with its spatial memory.
    Sam(SamLstmEncoder),
    /// Plain LSTM.
    Lstm(LstmCell),
    /// GRU.
    Gru(GruCell),
}

/// BPTT cache matching the backbone that produced it.
#[derive(Debug, Clone)]
pub enum BackboneCache {
    /// A SAM tape in the backbone's own batch storage: valid for
    /// [`Backbone::backward_batch`] on the backbone that handed it out,
    /// until its next [`Backbone::forward_train_batch`] or
    /// [`Backbone::reset_memory`].
    Sam(SamTapeRef),
    /// LSTM cache.
    Lstm(LstmCache),
    /// GRU cache.
    Gru(GruCache),
}

/// Parameter gradients matching the backbone.
#[derive(Debug, Clone)]
pub enum BackboneGrads {
    /// SAM gradients.
    Sam(SamGrads),
    /// LSTM gradients.
    Lstm(LstmGrads),
    /// GRU gradients.
    Gru(GruGrads),
}

impl BackboneGrads {
    /// Resets all gradient tensors to zero.
    pub fn fill_zero(&mut self) {
        match self {
            Self::Sam(g) => g.fill_zero(),
            Self::Lstm(g) => g.fill_zero(),
            Self::Gru(g) => g.fill_zero(),
        }
    }

    /// Accumulates another gradient buffer (same variant) into this one —
    /// the reduction step when gradients are computed on worker threads.
    ///
    /// Panics on variant mismatch.
    pub fn merge(&mut self, other: &BackboneGrads) {
        match (self, other) {
            (Self::Sam(a), Self::Sam(b)) => a.merge(b),
            (Self::Lstm(a), Self::Lstm(b)) => a.merge(b),
            (Self::Gru(a), Self::Gru(b)) => a.merge(b),
            _ => panic!("gradient variant mismatch"),
        }
    }
}

impl Backbone {
    /// Builds the backbone named by `cfg` over `grid`.
    pub fn build(cfg: &TrainConfig, grid: &Grid) -> Self {
        match cfg.backbone {
            BackboneKind::SamLstm => Backbone::Sam(SamLstmEncoder::new(
                cfg.dim,
                grid.cols() as usize,
                grid.rows() as usize,
                cfg.scan_width,
                cfg.seed,
            )),
            BackboneKind::Lstm => Backbone::Lstm(LstmCell::new(cfg.dim, cfg.seed)),
            BackboneKind::Gru => Backbone::Gru(GruCell::new(cfg.dim, cfg.seed)),
        }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        match self {
            Self::Sam(e) => e.cell.dim(),
            Self::Lstm(c) => c.dim(),
            Self::Gru(c) => c.dim(),
        }
    }

    /// Total scalar parameter count.
    pub fn num_params(&self) -> usize {
        match self {
            Self::Sam(e) => e.cell.num_params(),
            Self::Lstm(c) => c.num_params(),
            Self::Gru(c) => c.num_params(),
        }
    }

    /// Lockstep batched inference-mode forward: all sequences advance one
    /// timestep together so each step's gate computation is one GEMM (each
    /// cell's `forward_batch`, unrecorded). Read-only; an embedding is a
    /// function of its own sequence alone — bit-identical at every batch
    /// width, order and company. Results are returned in input order.
    pub fn embed_batch_frozen(&self, inputs: &[&SeqInputs], ws: &mut Workspace) -> Vec<Vec<f64>> {
        match self {
            Self::Sam(e) => {
                e.cell
                    .forward_batch(&sam_refs(inputs), &e.memory, e.scan_width, None, ws)
            }
            Self::Lstm(c) => c.forward_batch(&coords(inputs), None, ws),
            Self::Gru(c) => c.forward_batch(&coords(inputs), None, ws),
        }
    }

    /// BPTT of one job of [`Self::backward_batch`] into `grads`, with one
    /// worker's scratch buffers.
    ///
    /// Panics when `cache`/`grads` do not match the backbone variant, or
    /// when a SAM tape is from an earlier batch.
    fn backward(
        &self,
        cache: &BackboneCache,
        d_emb: &[f64],
        grads: &mut BackboneGrads,
        ws: &mut Workspace,
    ) {
        match (self, cache, grads) {
            (Self::Sam(e), BackboneCache::Sam(tape), BackboneGrads::Sam(g)) => {
                e.cell.backward(e.tapes.get(*tape), &e.memory, d_emb, g, ws)
            }
            (Self::Lstm(cell), BackboneCache::Lstm(c), BackboneGrads::Lstm(g)) => {
                cell.backward(c, d_emb, g, ws)
            }
            (Self::Gru(cell), BackboneCache::Gru(c), BackboneGrads::Gru(g)) => {
                cell.backward(c, d_emb, g, ws)
            }
            _ => panic!("backbone/cache/grads variant mismatch"),
        }
    }

    /// Training-mode forward over many sequences.
    ///
    /// Memory-free backbones (plain LSTM/GRU) fan the sequences out over
    /// `threads` scoped worker threads. The SAM backbone processes the
    /// batch in fixed rounds of [`Self::SAM_ROUND`] sequences, each round
    /// running the two-phase memory protocol: phase A runs every sequence
    /// of the round against an immutable snapshot of the spatial memory
    /// (in parallel when `threads > 1`), buffering each sequence's writes
    /// in a private [`WriteLog`]; phase B commits the round's logs in
    /// input order on this thread before the next round starts. Round
    /// boundaries and both phases are fixed at *every* thread count, so
    /// the result is bit-identical for any `threads` value, while memory
    /// staleness is bounded by one round rather than the whole batch.
    pub fn forward_train_batch(
        &mut self,
        inputs: &[&SeqInputs],
        threads: usize,
    ) -> Vec<(Vec<f64>, BackboneCache)> {
        self.forward_train_batch_metered(inputs, threads, None)
    }

    /// [`Self::forward_train_batch`] with optional per-phase timing of the
    /// two-phase SAM protocol. Recording happens at round granularity
    /// (outside the per-sequence hot loops) and does not perturb the
    /// computation — results stay bit-identical with metrics on or off.
    pub fn forward_train_batch_metered(
        &mut self,
        inputs: &[&SeqInputs],
        threads: usize,
        metrics: Option<&SamPhaseMetrics>,
    ) -> Vec<(Vec<f64>, BackboneCache)> {
        if let Self::Sam(enc) = self {
            return Self::sam_forward_train_batch(enc, inputs, threads, metrics);
        }
        let this: &Backbone = self;
        let run = |part: &[&SeqInputs]| {
            let (ws, seqs) = (&mut Workspace::new(), coords(part));
            match this {
                Backbone::Lstm(cell) => {
                    let mut caches = vec![LstmCache::default(); part.len()];
                    let hs = cell.forward_batch(&seqs, Some(&mut caches), ws);
                    let caches = caches.into_iter().map(BackboneCache::Lstm);
                    hs.into_iter().zip(caches).collect::<Vec<_>>()
                }
                Backbone::Gru(cell) => {
                    let mut caches = vec![GruCache::default(); part.len()];
                    let hs = cell.forward_batch(&seqs, Some(&mut caches), ws);
                    let caches = caches.into_iter().map(BackboneCache::Gru);
                    hs.into_iter().zip(caches).collect()
                }
                Backbone::Sam(_) => unreachable!("SAM handled above"),
            }
        };
        let parts = inputs.chunks(part_len(inputs.len(), threads));
        par::fan_out(parts, run).into_iter().flatten().collect()
    }

    /// Round-based two-phase SAM batch forward (see
    /// [`Self::forward_train_batch`]).
    ///
    /// The batch's BPTT tapes live in the encoder's own storage, laid out
    /// once per batch by points and handed to the phase-A workers by input
    /// index: nothing is allocated per sequence, nothing a worker
    /// allocated is freed here, and after the first batch no page is
    /// touched for the first time. Starting a batch ends the previous one
    /// (its version rows are folded, its tapes die).
    fn sam_forward_train_batch(
        enc: &mut SamLstmEncoder,
        inputs: &[&SeqInputs],
        threads: usize,
        metrics: Option<&SamPhaseMetrics>,
    ) -> Vec<(Vec<f64>, BackboneCache)> {
        enc.begin_batch(inputs.iter().map(|(coords, _)| coords.len()));
        let SamLstmEncoder {
            cell,
            memory,
            scan_width,
            tapes,
        } = enc;
        let (cell, scan_width) = (&*cell, *scan_width);
        let mut embs: Vec<Vec<f64>> = Vec::with_capacity(inputs.len());
        let mut logs = vec![WriteLog::new(); Self::SAM_ROUND.min(inputs.len())];
        let workers = threads.clamp(1, Self::SAM_ROUND);
        let mut wss: Vec<Workspace> = (0..workers).map(|_| Workspace::new()).collect();
        let mut slots = tapes.tapes_mut();
        for (round, round_tapes) in inputs
            .chunks(Self::SAM_ROUND)
            .zip(slots.chunks_mut(Self::SAM_ROUND))
        {
            let r = round.len();
            // Phase A: each worker's part of the round in one recording
            // lockstep forward against the round-start snapshot, writes
            // buffered. A sequence's state, tape and log depend on that
            // sequence and the snapshot alone (its reads go through its
            // own log's overlay), so they do not depend on `threads`.
            let span = metrics.map(|m| m.phase_a_seconds.start_timer());
            let snapshot: &_ = memory;
            let chunk = part_len(r, workers);
            let parts = round
                .chunks(chunk)
                .zip(logs[..r].chunks_mut(chunk))
                .zip(round_tapes.chunks_mut(chunk))
                .zip(wss.iter_mut());
            let hs = par::fan_out(parts, |(((part, logs), tapes), ws)| {
                let record = Some((tapes, logs));
                cell.forward_batch(&sam_refs(part), snapshot, scan_width, record, ws)
            });
            embs.extend(hs.into_iter().flatten());
            drop(span);
            // Phase B: single-threaded ordered commit — the memory ends up
            // identical to replaying the round's writes in input order, and
            // the next round reads the updated memory.
            let span = metrics.map(|m| m.phase_b_seconds.start_timer());
            for log in &logs[..r] {
                memory.commit(log);
            }
            drop(span);
        }
        embs.into_iter()
            .enumerate()
            .map(|(i, h)| (h, BackboneCache::Sam(tapes.tape_ref(i))))
            .collect()
    }

    /// BPTT over many (cache, embedding-gradient) jobs.
    ///
    /// Jobs are accumulated in fixed-size groups of [`Self::GRAD_GROUP`]
    /// (independent of `threads`), each into its own partial gradient
    /// buffer; the partials are then merged in group index order. Because
    /// floating-point addition is not associative, this fixed reduction
    /// tree — rather than per-thread accumulation — is what makes the
    /// result a function of the job list alone: bit-identical for every
    /// thread count, including 1.
    pub fn backward_batch(
        &self,
        jobs: &[(&BackboneCache, &[f64])],
        grads: &mut BackboneGrads,
        threads: usize,
    ) {
        if jobs.is_empty() {
            return;
        }
        let groups: Vec<&[(&BackboneCache, &[f64])]> = jobs.chunks(Self::GRAD_GROUP).collect();
        let reduce_group = |part: &[(&BackboneCache, &[f64])], ws: &mut Workspace| {
            let mut g = self.zero_grads();
            for (cache, d) in part {
                self.backward(cache, d, &mut g, ws);
            }
            g
        };
        // Contiguous runs of groups per worker keep the partials in group
        // order no matter how many workers there are.
        let per = if threads <= 1 || jobs.len() < 4 {
            groups.len()
        } else {
            groups.len().div_ceil(threads)
        };
        let partials = par::fan_out(groups.chunks(per), |run| {
            let mut ws = Workspace::new();
            run.iter()
                .map(|part| reduce_group(part, &mut ws))
                .collect::<Vec<_>>()
        });
        let partials = partials.into_iter().flatten();
        for p in partials {
            grads.merge(&p);
        }
    }

    /// Number of jobs accumulated into one partial gradient buffer by
    /// [`Self::backward_batch`]. Chosen small enough to give ~`batch/8`
    /// units of parallelism and large enough to amortize the zeroed
    /// partial buffer per group.
    pub const GRAD_GROUP: usize = 8;

    /// Sequences per SAM forward round (see
    /// [`Self::forward_train_batch`]). One round is the unit of memory
    /// staleness: sequences within a round read the memory as of the
    /// round start, and every round boundary commits buffered writes.
    /// 8 keeps every worker busy at typical thread counts while staying
    /// empirically indistinguishable from the fully sequential write
    /// schedule (larger rounds start to shift training trajectories).
    pub const SAM_ROUND: usize = 8;

    /// Clears the SAM spatial memory (no-op for other backbones).
    ///
    /// The trainer resets the memory at every epoch start so stored cell
    /// embeddings always reflect the *current* parameters rather than
    /// stale values from many updates ago. Tapes recorded before the
    /// reset are dead.
    pub fn reset_memory(&mut self) {
        if let Self::Sam(e) = self {
            e.memory.reset();
        }
    }

    /// Ends a training run. For the SAM backbone this is the final memory
    /// refresh — the spatial memory is repopulated by one coherent writing
    /// pass over `inputs` under the final parameters, in the given order
    /// (per sequence: a recording batch of one into the encoder's tape
    /// storage, then its commit — no fold in between, so a sequence costs
    /// what it touches, not the grid), so inference reads a memory whose
    /// contents match the trained encoder — after which the training-only
    /// state (version rows, the batch tape storage) is dropped. No-op for
    /// other backbones.
    pub fn finish_training(&mut self, inputs: &[SeqInputs]) {
        if let Self::Sam(e) = self {
            e.memory.reset();
            let (ws, mut log) = (&mut Workspace::new(), WriteLog::new());
            for input in inputs {
                let lens = std::iter::once(input.0.len());
                e.cell.layout_tapes(&mut e.tapes, e.scan_width, lens);
                let mut spans = e.tapes.tapes_mut();
                let record = Some((&mut spans[..], std::slice::from_mut(&mut log)));
                e.cell
                    .forward_batch(&sam_refs(&[input]), &e.memory, e.scan_width, record, ws);
                drop(spans);
                e.commit(&log);
            }
            e.end_training();
        }
    }

    /// Bytes and timesteps of the BPTT tape the last
    /// [`Self::forward_train_batch`] recorded into the backbone's own
    /// storage (the SAM backbone; `(0, 0)` for the others, whose caches
    /// travel with the results).
    pub fn tape_size(&self) -> (usize, usize) {
        match self {
            Self::Sam(e) => (e.tapes.bytes(), e.tapes.points()),
            _ => (0, 0),
        }
    }

    /// Zero gradients shaped like this backbone's parameters.
    pub fn zero_grads(&self) -> BackboneGrads {
        match self {
            Self::Sam(e) => BackboneGrads::Sam(SamGrads::zeros_like(&e.cell)),
            Self::Lstm(c) => BackboneGrads::Lstm(LstmGrads::zeros_like(c)),
            Self::Gru(c) => BackboneGrads::Gru(GruGrads::zeros_like(c)),
        }
    }

    /// Registers all parameter tensors with `adam`; returns slot ids in
    /// the order [`Self::adam_step`] consumes them.
    pub fn register_adam(&self, adam: &mut Adam) -> Vec<usize> {
        match self {
            Self::Sam(e) => vec![
                adam.register(e.cell.p.as_slice().len()),
                adam.register(e.cell.w_his.as_slice().len()),
                adam.register(e.cell.b_his.len()),
            ],
            Self::Lstm(c) => vec![adam.register(c.p.as_slice().len())],
            Self::Gru(c) => vec![
                adam.register(c.pzr.as_slice().len()),
                adam.register(c.ph.as_slice().len()),
            ],
        }
    }

    /// Applies one Adam update from `grads` scaled by `scale` (e.g.
    /// `1/batch`). `slots` must come from [`Self::register_adam`].
    pub fn adam_step(
        &mut self,
        adam: &mut Adam,
        slots: &[usize],
        grads: &BackboneGrads,
        scale: f64,
    ) {
        match (self, grads) {
            (Self::Sam(e), BackboneGrads::Sam(g)) => {
                adam.step_scaled(slots[0], e.cell.p.as_mut_slice(), g.p.as_slice(), scale);
                adam.step_scaled(
                    slots[1],
                    e.cell.w_his.as_mut_slice(),
                    g.w_his.as_slice(),
                    scale,
                );
                adam.step_scaled(slots[2], &mut e.cell.b_his, &g.b_his, scale);
            }
            (Self::Lstm(c), BackboneGrads::Lstm(g)) => {
                adam.step_scaled(slots[0], c.p.as_mut_slice(), g.p.as_slice(), scale);
            }
            (Self::Gru(c), BackboneGrads::Gru(g)) => {
                adam.step_scaled(slots[0], c.pzr.as_mut_slice(), g.pzr.as_slice(), scale);
                adam.step_scaled(slots[1], c.ph.as_mut_slice(), g.ph.as_slice(), scale);
            }
            _ => panic!("backbone/grads variant mismatch"),
        }
    }
}

/// A trained NeuTraj model: backbone + the grid that defines its input
/// normalization and memory layout.
#[derive(Debug, Clone)]
pub struct NeuTrajModel {
    backbone: Backbone,
    grid: Grid,
    config: TrainConfig,
}

impl NeuTrajModel {
    pub(crate) fn new(backbone: Backbone, grid: Grid, config: TrainConfig) -> Self {
        Self {
            backbone,
            grid,
            config,
        }
    }

    /// Decomposes the model into its parts — the trainer uses this to
    /// continue training from a checkpointed model.
    pub(crate) fn into_parts(self) -> (Backbone, Grid, TrainConfig) {
        (self.backbone, self.grid, self.config)
    }

    /// A model with freshly initialized (untrained) parameters — for
    /// benchmarks, serving-path tests and warm-start scenarios where the
    /// network topology matters but fitted weights do not.
    pub fn untrained(config: TrainConfig, grid: Grid) -> Self {
        let backbone = Backbone::build(&config, &grid);
        Self::new(backbone, grid, config)
    }

    /// The training configuration the model was fitted with.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// The spatial grid the model normalizes against.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The backbone (for inspection / ablation tooling).
    pub fn backbone(&self) -> &Backbone {
        &self.backbone
    }

    /// Mutable backbone access (the trainer uses this; exposed for
    /// fine-tuning scenarios).
    pub fn backbone_mut(&mut self) -> &mut Backbone {
        &mut self.backbone
    }

    /// Embedding dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.backbone.dim()
    }

    /// Converts a trajectory to normalized network inputs: coordinates in
    /// `[-1, 1]`-ish units (grid units scaled by `2/max(P,Q)`, centred)
    /// plus the grid-cell sequence for the SAM memory.
    pub fn seq_inputs(&self, t: &Trajectory) -> SeqInputs {
        seq_inputs(&self.grid, t)
    }

    /// Embeds one trajectory in `O(L)`: [`Self::embed_batch`] of one, so
    /// every production embed takes the same (lockstep) forward.
    pub fn embed(&self, t: &Trajectory) -> Vec<f64> {
        self.embed_batch(&[t]).pop().expect("one in, one out")
    }

    /// Sequences per lockstep GEMM round in [`Self::embed_batch`]. Large
    /// enough to keep the per-step GEMMs compute-bound, small enough that
    /// the stacked state buffers (`B × 5d` worst case) stay in cache.
    pub const MAX_EMBED_BATCH: usize = 256;

    /// Embeds many trajectories through the lockstep batched forward
    /// (chunks of [`Self::MAX_EMBED_BATCH`]), bit-identical to
    /// [`Self::embed`] per trajectory but one GEMM per timestep instead of
    /// one matvec per trajectory per timestep.
    /// Read-only. Takes owned or borrowed trajectories, so a caller holding
    /// them inside other structures need not clone them into a slice.
    pub fn embed_batch<T: Borrow<Trajectory>>(&self, ts: &[T]) -> Vec<Vec<f64>> {
        EMBED_SCRATCH.with(|scratch| {
            let (ws, inputs) = &mut *scratch.borrow_mut();
            let mut out = Vec::with_capacity(ts.len());
            for chunk in ts.chunks(Self::MAX_EMBED_BATCH) {
                if inputs.len() < chunk.len() {
                    inputs.resize_with(chunk.len(), Default::default);
                }
                for (slot, t) in inputs.iter_mut().zip(chunk) {
                    seq_inputs_into(&self.grid, t.borrow(), slot);
                }
                let refs: Vec<&SeqInputs> = inputs[..chunk.len()].iter().collect();
                out.extend(self.backbone.embed_batch_frozen(&refs, ws));
            }
            out
        })
    }

    /// Embeds a corpus using `threads` worker threads (memory frozen),
    /// each worker running the lockstep batched forward on its chunk.
    pub fn embed_all(&self, ts: &[Trajectory], threads: usize) -> Vec<Vec<f64>> {
        let chunk = if threads <= 1 || ts.len() < 16 {
            ts.len().max(1)
        } else {
            ts.len().div_ceil(threads)
        };
        let parts = par::fan_out(ts.chunks(chunk), |part| self.embed_batch(part));
        parts.into_iter().flatten().collect()
    }

    /// Learned similarity `g(Ti,Tj) = exp(-‖E_i − E_j‖)` of two
    /// trajectories (each embedded on the fly).
    pub fn similarity(&self, a: &Trajectory, b: &Trajectory) -> f64 {
        crate::loss::pair_similarity(&self.embed(a), &self.embed(b))
    }
}

/// The coordinate sequences of `inputs`, borrowed.
fn coords<'a>(inputs: &[&'a SeqInputs]) -> Vec<&'a [(f64, f64)]> {
    inputs.iter().map(|(c, _)| c.as_slice()).collect()
}

/// `inputs` borrowed as the SAM cell takes them.
fn sam_refs<'a>(inputs: &[&'a SeqInputs]) -> Vec<SamSeqRef<'a>> {
    inputs
        .iter()
        .map(|(c, g)| (c.as_slice(), g.as_slice()))
        .collect()
}

/// Normalized network inputs for a trajectory over `grid` (free function
/// used by both training and inference).
pub(crate) fn seq_inputs(grid: &Grid, t: &Trajectory) -> SeqInputs {
    let mut inputs = SeqInputs::default();
    seq_inputs_into(grid, t, &mut inputs);
    inputs
}

/// [`seq_inputs`] into reused buffers.
fn seq_inputs_into(grid: &Grid, t: &Trajectory, (coords, cells): &mut SeqInputs) {
    let scale = 2.0 / grid.cols().max(grid.rows()) as f64;
    coords.clear();
    cells.clear();
    for &p in t.points() {
        let (x, y) = grid.to_grid_units(p);
        coords.push((x as f64 * scale - 1.0, y as f64 * scale - 1.0));
        let cell = grid.cell_of(p);
        cells.push((cell.col, cell.row));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neutraj_trajectory::{BoundingBox, Point};

    fn grid() -> Grid {
        Grid::new(BoundingBox::new(0.0, 0.0, 1000.0, 500.0), 50.0).unwrap()
    }

    fn traj(id: u64) -> Trajectory {
        Trajectory::new_unchecked(
            id,
            (0..12)
                .map(|k| Point::new(50.0 + 70.0 * k as f64, 100.0 + 20.0 * k as f64))
                .collect(),
        )
    }

    #[test]
    fn seq_inputs_are_normalized() {
        let g = grid();
        let (coords, cells) = seq_inputs(&g, &traj(0));
        assert_eq!(coords.len(), 12);
        assert_eq!(cells.len(), 12);
        for &(x, y) in &coords {
            assert!((-1.0..=1.0).contains(&x), "x = {x}");
            assert!((-1.0..=1.0).contains(&y), "y = {y}");
        }
    }

    #[test]
    fn all_backbones_build_and_embed() {
        let g = grid();
        for kind in [BackboneKind::SamLstm, BackboneKind::Lstm, BackboneKind::Gru] {
            let cfg = TrainConfig {
                backbone: kind,
                dim: 8,
                ..TrainConfig::neutraj()
            };
            let bb = Backbone::build(&cfg, &g);
            assert_eq!(bb.dim(), 8);
            assert!(bb.num_params() > 0);
            let model = NeuTrajModel::new(bb, g.clone(), cfg);
            let e = model.embed(&traj(1));
            assert_eq!(e.len(), 8);
            assert!(e.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn embed_all_parallel_matches_sequential() {
        let g = grid();
        let cfg = TrainConfig {
            dim: 8,
            ..TrainConfig::neutraj()
        };
        let model = NeuTrajModel::new(Backbone::build(&cfg, &g), g.clone(), cfg);
        let ts: Vec<Trajectory> = (0..40).map(traj).collect();
        let seq = model.embed_all(&ts, 1);
        let par = model.embed_all(&ts, 4);
        assert_eq!(seq, par);
    }

    fn sam_batch() -> (Backbone, TrainConfig, Vec<SeqInputs>) {
        let g = grid();
        let cfg = TrainConfig {
            dim: 8,
            ..TrainConfig::neutraj()
        };
        // Twelve overlapping walks: more than one round, shared cells.
        let batch = (0..12).map(|i| seq_inputs(&g, &traj(i))).collect();
        (Backbone::build(&cfg, &g), cfg, batch)
    }

    fn run_backward(b: &Backbone, out: &[(Vec<f64>, BackboneCache)]) -> BackboneGrads {
        let d_emb = vec![0.25; b.dim()];
        let jobs: Vec<(&BackboneCache, &[f64])> =
            out.iter().map(|(_, c)| (c, d_emb.as_slice())).collect();
        let mut grads = b.zero_grads();
        b.backward_batch(&jobs, &mut grads, 2);
        grads
    }

    /// The tape of a batch lives in the backbone: it can run backward any
    /// number of times until the next batch starts, and never after.
    #[test]
    #[should_panic(expected = "after the batch that recorded it ended")]
    fn sam_tape_dies_when_the_next_batch_starts() {
        let (mut b, _, batch) = sam_batch();
        let inputs: Vec<&SeqInputs> = batch.iter().collect();
        let first = b.forward_train_batch(&inputs, 2);
        let (BackboneGrads::Sam(g1), BackboneGrads::Sam(g2)) =
            (run_backward(&b, &first), run_backward(&b, &first))
        else {
            panic!("SAM backbone")
        };
        assert_eq!(g1.p.as_slice(), g2.p.as_slice());
        assert!(g1.p.as_slice().iter().any(|v| *v != 0.0));
        let _second = b.forward_train_batch(&inputs, 2);
        run_backward(&b, &first);
    }

    #[test]
    #[should_panic(expected = "after the batch that recorded it ended")]
    fn sam_tape_dies_when_the_memory_is_reset() {
        let (mut b, _, batch) = sam_batch();
        let inputs: Vec<&SeqInputs> = batch.iter().collect();
        let out = b.forward_train_batch(&inputs, 1);
        b.reset_memory();
        run_backward(&b, &out);
    }

    /// Between a batch's forward and the next one the memory holds version
    /// rows. Whatever is taken from the backbone in that state — a clone,
    /// the model bytes, a checkpoint, an embedding — is what it would be
    /// after the fold.
    #[test]
    fn snapshots_taken_mid_batch_see_current_memory_values() {
        use crate::checkpoint::{Checkpoint, TrainState};
        let (mut b, cfg, batch) = sam_batch();
        let inputs: Vec<&SeqInputs> = batch.iter().collect();
        let _ = b.forward_train_batch(&inputs, 2);
        let (tape_bytes, points) = b.tape_size();
        assert_eq!(points, 12 * 12);
        assert!(tape_bytes > 0 && tape_bytes / points <= 4096);
        let live = NeuTrajModel::new(b.clone(), grid(), cfg.clone());
        b.finish_training(&[]);
        assert_eq!(b.tape_size(), (0, 0));
        // `finish_training` rebuilt the memory from no sequences: put the
        // batch's back, folded, for the comparison.
        let Backbone::Sam(e) = &mut b else {
            panic!("SAM backbone")
        };
        let Backbone::Sam(live_e) = live.backbone() else {
            panic!("SAM backbone")
        };
        e.memory = live_e.memory.clone();
        e.memory.fold();
        let folded = NeuTrajModel::new(b, grid(), cfg);
        assert_eq!(live.to_bytes(), folded.to_bytes());
        let t = traj(3);
        assert_eq!(live.embed(&t), folded.embed(&t));
        assert_eq!(
            live.embed_batch(&[traj(1), traj(5)]),
            folded.embed_batch(&[traj(1), traj(5)])
        );
        let reloaded = NeuTrajModel::from_bytes(&live.to_bytes()).unwrap();
        assert_eq!(reloaded.embed(&t), live.embed(&t));
        let ckpt = |model: NeuTrajModel| Checkpoint {
            model,
            state: TrainState {
                next_epoch: 1,
                early_stopped: false,
                best_loss: 0.5,
                stale: 0,
                alpha: 1.0,
                epoch_losses: vec![0.5],
                epoch_seconds: vec![0.1],
                adam: Default::default(),
            },
        };
        assert_eq!(ckpt(live).to_bytes(), ckpt(folded).to_bytes());
    }

    #[test]
    fn similarity_is_one_on_self() {
        let g = grid();
        let cfg = TrainConfig {
            dim: 8,
            ..TrainConfig::neutraj()
        };
        let model = NeuTrajModel::new(Backbone::build(&cfg, &g), g.clone(), cfg);
        let t = traj(3);
        assert!((model.similarity(&t, &t) - 1.0).abs() < 1e-12);
        let far = traj(999).map_points(|p| p + Point::new(400.0, 300.0));
        assert!(model.similarity(&t, &far) <= 1.0);
    }
}
