//! The seed-guided metric-learning training loop (§V).

use crate::backbone::{
    seq_inputs, Backbone, BackboneCache, NeuTrajModel, SamPhaseMetrics, SeqInputs,
};
use crate::checkpoint::{Checkpoint, CheckpointPolicy, TrainState};
use crate::config::TrainConfig;
use crate::loss::pair_similarity;
use crate::persist::PersistError;
use crate::sampling::{ranked_random_samples, ranked_weighted_samples, AnchorSamples};
use crate::similarity::SimilarityMatrix;
use neutraj_measures::DistanceMatrix;
use neutraj_nn::linalg::add_assign;
use neutraj_nn::Adam;
use neutraj_obs::{names, Counter, Gauge, Histogram, Registry};
use neutraj_trajectory::rng::Rng;
use neutraj_trajectory::{Grid, Trajectory};
use std::path::Path;
use std::time::Instant;

/// Per-epoch statistics delivered to the training callback (drives the
/// Fig. 5 convergence curves and Table VI timing rows).
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    /// 0-based epoch index.
    pub epoch: usize,
    /// Mean training loss per anchor.
    pub loss: f64,
    /// Wall-clock duration of the epoch in seconds.
    pub seconds: f64,
}

/// Summary of a completed training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean per-anchor loss after each epoch.
    pub epoch_losses: Vec<f64>,
    /// Wall-clock seconds per epoch.
    pub epoch_seconds: Vec<f64>,
    /// The similarity sharpness α that was used.
    pub alpha: f64,
    /// Whether early stopping fired before `epochs` completed.
    pub early_stopped: bool,
    /// Whether the run ended early because the
    /// [`CheckpointPolicy::stop`] flag was raised. An interrupted run has
    /// written a final checkpoint; continue it with [`Trainer::resume`].
    pub interrupted: bool,
}

/// Pre-resolved training-loop instruments, following the
/// `neutraj_train_*` naming convention (plus the optimizer's
/// `neutraj_nn_adam_steps_total`). Resolved once per
/// [`Trainer::with_metrics`]; the loop records at epoch/round
/// granularity, so instrumentation never touches the per-pair hot path.
#[derive(Debug, Clone)]
pub struct TrainMetrics {
    epochs_total: Counter,
    pairs_total: Counter,
    loss: Gauge,
    epoch_seconds: Histogram,
    forward_seconds: Histogram,
    backward_seconds: Histogram,
    tape_bytes: Gauge,
    adam_steps: Counter,
    sam: SamPhaseMetrics,
    ckpt_writes: Counter,
    ckpt_restores: Counter,
    ckpt_corruption: Counter,
    ckpt_fallback: Counter,
    ckpt_write_seconds: Histogram,
}

impl TrainMetrics {
    /// Resolves the training instruments in `registry`.
    pub fn register(registry: &Registry) -> Self {
        Self {
            epochs_total: registry.counter(names::TRAIN_EPOCHS_TOTAL),
            pairs_total: registry.counter(names::TRAIN_PAIRS_TOTAL),
            loss: registry.gauge(names::TRAIN_LOSS),
            epoch_seconds: registry.histogram(names::TRAIN_EPOCH_SECONDS),
            forward_seconds: registry.histogram(names::TRAIN_FORWARD_SECONDS),
            backward_seconds: registry.histogram(names::TRAIN_BACKWARD_SECONDS),
            tape_bytes: registry.gauge(names::TRAIN_TAPE_BYTES),
            adam_steps: registry.counter(names::ADAM_STEPS_TOTAL),
            sam: SamPhaseMetrics::register(registry),
            ckpt_writes: registry.counter(names::CKPT_WRITES_TOTAL),
            ckpt_restores: registry.counter(names::CKPT_RESTORES_TOTAL),
            ckpt_corruption: registry.counter(names::CKPT_CORRUPTION_TOTAL),
            ckpt_fallback: registry.counter(names::CKPT_FALLBACK_TOTAL),
            ckpt_write_seconds: registry.histogram(names::CKPT_WRITE_SECONDS),
        }
    }
}

/// Trains NeuTraj (or a baseline/ablation preset) from seed guidance.
#[derive(Debug, Clone)]
pub struct Trainer {
    cfg: TrainConfig,
    grid: Grid,
    threads: usize,
    metrics: Option<TrainMetrics>,
    ckpt: Option<CheckpointPolicy>,
}

impl Trainer {
    /// Creates a trainer. Panics when `cfg` fails validation — the
    /// configuration is a programming input, not runtime data.
    pub fn new(cfg: TrainConfig, grid: Grid) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid TrainConfig: {e}");
        }
        Self {
            cfg,
            grid,
            threads: 1,
            metrics: None,
            ckpt: None,
        }
    }

    /// Writes crash-safe checkpoints at epoch boundaries according to
    /// `policy` (see [`CheckpointPolicy`]). Checkpointing is observational
    /// — training results are bit-identical with or without it — and an
    /// interrupted run continued with [`Trainer::resume`] produces the
    /// exact same final parameters as an uninterrupted one.
    pub fn with_checkpoints(mut self, policy: CheckpointPolicy) -> Self {
        self.ckpt = Some(policy);
        self
    }

    /// Records training metrics into `registry`: per-epoch loss and
    /// wall-clock, cumulative training-pair and optimizer-step counters,
    /// per-batch forward and backward seconds with the bytes of BPTT tape
    /// between them, and per-phase timings of the two-phase SAM protocol.
    /// Metrics are observational only — [`Trainer::fit`] results are
    /// bit-identical with metrics on or off.
    pub fn with_metrics(mut self, registry: &Registry) -> Self {
        self.metrics = Some(TrainMetrics::register(registry));
        self
    }

    /// Enables multi-threaded forward/BPTT within each batch.
    ///
    /// Every backbone parallelizes both passes. Memory-free backbones
    /// (plain LSTM / GRU) fan sequences straight out; the SAM backbone
    /// runs the two-phase memory protocol in fixed rounds — parallel
    /// forwards against the round-start memory snapshot with buffered
    /// writes, then a single-threaded ordered commit at every round
    /// boundary. Gradients are reduced in fixed-size groups merged in a
    /// fixed order. Both schemes are functions of the batch alone, so
    /// training results are **bit-identical** for every thread count
    /// (see `DESIGN.md`, "Threading & determinism").
    ///
    /// Because results do not depend on the worker count, the trainer
    /// clamps `threads` to the host's available parallelism — requesting
    /// more threads than cores would only add scheduling overhead, never
    /// change the output.
    pub fn with_threads(mut self, threads: usize) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.threads = threads.clamp(1, cores);
        self
    }

    /// The configuration this trainer runs.
    pub fn config(&self) -> &TrainConfig {
        &self.cfg
    }

    /// Fits a model to `seeds` whose pairwise distances are `dist`
    /// (already computed under the target measure, on trajectories
    /// rescaled to grid units — see [`Grid::rescale_trajectory`]).
    ///
    /// `on_epoch` is invoked after every epoch with loss/time stats.
    ///
    /// Panics when `seeds` is empty, `dist` does not match its length, or
    /// a checkpoint write requested via [`Trainer::with_checkpoints`]
    /// fails (an unwritable checkpoint directory is an environment error
    /// on par with an invalid config, and silently continuing would give
    /// false confidence of crash-safety).
    pub fn fit(
        &self,
        seeds: &[Trajectory],
        dist: &DistanceMatrix,
        on_epoch: impl FnMut(&EpochStats),
    ) -> (NeuTrajModel, TrainReport) {
        self.fit_inner(None, seeds, dist, on_epoch)
            .unwrap_or_else(|e| panic!("checkpoint write failed: {e}"))
    }

    /// Continues an interrupted (or merely checkpointed) training run.
    ///
    /// `path` is either a single checkpoint file or a checkpoint
    /// directory; given a directory, the newest checkpoint that passes
    /// verification wins — damaged ones are skipped (counted through
    /// `neutraj_ckpt_corruption_total` / `neutraj_ckpt_fallback_total`
    /// when metrics are attached). `seeds` and `dist` must be the same
    /// data the original run was fitted on; the checkpoint's config and
    /// grid are checked against this trainer's and a mismatch is rejected.
    ///
    /// Resuming is **bit-identical**: interrupt-at-any-boundary then
    /// resume yields exactly the final parameters of an uninterrupted
    /// run (the per-epoch RNG is reseeded from the epoch index alone and
    /// the SAM memory is rebuilt at every epoch start, so the checkpoint
    /// state is the *complete* remaining-run input).
    pub fn resume<P: AsRef<Path>>(
        &self,
        path: P,
        seeds: &[Trajectory],
        dist: &DistanceMatrix,
        on_epoch: impl FnMut(&EpochStats),
    ) -> Result<(NeuTrajModel, TrainReport), PersistError> {
        let path = path.as_ref();
        let ckpt = if path.is_dir() {
            let found = Checkpoint::load_newest_valid(path, |_, _| {
                if let Some(m) = &self.metrics {
                    m.ckpt_corruption.inc();
                }
            })?;
            match found {
                None => {
                    return Err(PersistError::Format(format!(
                        "no checkpoint files in {}",
                        path.display()
                    )))
                }
                Some((c, skipped)) => {
                    if skipped > 0 {
                        if let Some(m) = &self.metrics {
                            m.ckpt_fallback.inc();
                        }
                    }
                    c
                }
            }
        } else {
            Checkpoint::load(path).inspect_err(|e| {
                if matches!(e, PersistError::Corrupted(_)) {
                    if let Some(m) = &self.metrics {
                        m.ckpt_corruption.inc();
                    }
                }
            })?
        };
        if ckpt.model.config() != &self.cfg {
            return Err(PersistError::Format(
                "checkpoint was written under a different training configuration".into(),
            ));
        }
        if ckpt.model.grid() != &self.grid {
            return Err(PersistError::Format(
                "checkpoint grid does not match this trainer's grid".into(),
            ));
        }
        if let Some(m) = &self.metrics {
            m.ckpt_restores.inc();
        }
        self.fit_inner(Some(ckpt), seeds, dist, on_epoch)
    }

    /// The shared training loop behind [`Trainer::fit`] (fresh start) and
    /// [`Trainer::resume`] (`start` carries the checkpointed model +
    /// state). Only checkpoint I/O and checkpoint-state validation can
    /// produce an `Err`.
    fn fit_inner(
        &self,
        start: Option<Checkpoint>,
        seeds: &[Trajectory],
        dist: &DistanceMatrix,
        mut on_epoch: impl FnMut(&EpochStats),
    ) -> Result<(NeuTrajModel, TrainReport), PersistError> {
        assert!(!seeds.is_empty(), "need at least one seed trajectory");
        assert_eq!(dist.n(), seeds.len(), "distance matrix/seed count mismatch");
        if let Some(pos) = seeds.iter().position(|t| t.is_empty()) {
            panic!(
                "seed trajectory at index {pos} is empty (id {})",
                seeds[pos].id
            );
        }
        let cfg = &self.cfg;
        let sim = {
            // On resume the stored α wins: the original run may have used
            // auto-α, and the remaining epochs must see the same matrix.
            let alpha = match &start {
                Some(c) => c.state.alpha,
                None => cfg
                    .alpha
                    .unwrap_or_else(|| SimilarityMatrix::auto_alpha(dist)),
            };
            SimilarityMatrix::with_normalization(dist, alpha, cfg.normalization)
        };
        // Precompute network inputs for every seed once.
        let inputs: Vec<SeqInputs> = seeds.iter().map(|t| seq_inputs(&self.grid, t)).collect();

        let (mut backbone, state) = match start {
            Some(c) => {
                let (backbone, _grid, _cfg) = c.model.into_parts();
                (backbone, Some(c.state))
            }
            None => (Backbone::build(cfg, &self.grid), None),
        };
        let mut adam = Adam::new(cfg.lr);
        if let Some(m) = &self.metrics {
            adam.instrument(m.adam_steps.clone());
        }
        let slots = backbone.register_adam(&mut adam);
        if let Some(st) = &state {
            adam.import_state(&st.adam).map_err(|e| {
                PersistError::Format(format!("checkpoint optimizer state rejected: {e}"))
            })?;
        }
        let mut grads = backbone.zero_grads();

        let n_seeds = seeds.len();
        let mut report = TrainReport {
            epoch_losses: state.as_ref().map_or_else(
                || Vec::with_capacity(cfg.epochs),
                |st| st.epoch_losses.clone(),
            ),
            epoch_seconds: state.as_ref().map_or_else(
                || Vec::with_capacity(cfg.epochs),
                |st| st.epoch_seconds.clone(),
            ),
            alpha: sim.alpha(),
            early_stopped: state.as_ref().is_some_and(|st| st.early_stopped),
            interrupted: false,
        };
        let mut best_loss = state.as_ref().map_or(f64::INFINITY, |st| st.best_loss);
        let mut stale = state.as_ref().map_or(0, |st| st.stale);
        // A run whose checkpoint already recorded early stopping has
        // nothing left to train — skip straight to the memory refresh.
        let start_epoch = match &state {
            Some(st) if st.early_stopped => cfg.epochs,
            Some(st) => st.next_epoch,
            None => 0,
        };
        let mut last_ckpt = Instant::now();
        let metrics = self.metrics.as_ref();
        let d = cfg.dim;
        // Per-batch glue, reused: the row of every involved seed in the
        // flat embedding / embedding-gradient buffers, and the rank weights
        // of a sample list (all lists of a run have one length unless the
        // seed set is tiny).
        let mut row_of = vec![usize::MAX; n_seeds];
        let (mut emb, mut d_emb) = (Vec::new(), Vec::new());
        let mut rank_w = cfg.loss.rank_weights(cfg.n_samples);

        for epoch in start_epoch..cfg.epochs {
            let t0 = Instant::now();
            // Fresh memory every epoch: stored cell embeddings then always
            // reflect the current parameters (stale entries from many
            // updates ago act as noise in the attention read).
            backbone.reset_memory();
            let mut rng =
                Rng::seed_from_u64(cfg.seed ^ (epoch as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            // The anchor order is a function of the epoch index alone
            // (identity permutation reshuffled with the per-epoch RNG), so
            // a resumed run sees exactly the schedule the uninterrupted
            // run would have — carrying the shuffled order across epochs
            // would make epoch k depend on every earlier epoch's shuffle.
            let mut order: Vec<usize> = (0..n_seeds).collect();
            rng.shuffle(&mut order);
            let mut epoch_loss = 0.0;

            for batch in order.chunks(cfg.batch_anchors) {
                // 1. Sample pair lists for every anchor in the batch.
                let samples: Vec<AnchorSamples> = batch
                    .iter()
                    .map(|&a| {
                        if cfg.weighted_sampling {
                            ranked_weighted_samples(&sim, a, cfg.n_samples, &mut rng)
                        } else {
                            ranked_random_samples(&sim, a, cfg.n_samples, &mut rng)
                        }
                    })
                    .collect();

                // 2. Embed every distinct trajectory the batch touches.
                //    Deterministic ascending order keeps SAM memory writes
                //    reproducible.
                let mut involved: Vec<usize> = samples
                    .iter()
                    .flat_map(|s| {
                        std::iter::once(s.anchor)
                            .chain(s.similar.iter().copied())
                            .chain(s.dissimilar.iter().copied())
                    })
                    .collect();
                involved.sort_unstable();
                involved.dedup();

                if let Some(m) = metrics {
                    let pairs: usize = samples
                        .iter()
                        .map(|s| s.similar.len() + s.dissimilar.len())
                        .sum();
                    m.pairs_total.add(pairs as u64);
                }

                let batch_inputs: Vec<&SeqInputs> =
                    involved.iter().map(|&idx| &inputs[idx]).collect();
                let span = metrics.map(|m| m.forward_seconds.start_timer());
                let results = backbone.forward_train_batch_metered(
                    &batch_inputs,
                    self.threads,
                    metrics.map(|m| &m.sam),
                );
                drop(span);
                if let Some(m) = metrics {
                    m.tape_bytes.set(backbone.tape_size().0 as f64);
                }
                // `involved` is sorted and deduplicated: row `p` of the
                // flat `B × d` buffers belongs to seed `involved[p]`.
                for (p, &idx) in involved.iter().enumerate() {
                    row_of[idx] = p;
                }
                emb.clear();
                for (e, _) in &results {
                    emb.extend_from_slice(e);
                }
                d_emb.clear();
                d_emb.resize(involved.len() * d, 0.0);

                // 3. Pair losses → embedding gradients.
                let mut batch_loss = 0.0;
                for s in &samples {
                    let a = row_of[s.anchor];
                    for (list, dissimilar) in [(&s.similar, false), (&s.dissimilar, true)] {
                        if list.len() != rank_w.len() {
                            rank_w = cfg.loss.rank_weights(list.len());
                        }
                        for (&i, &w) in list.iter().zip(&rank_w) {
                            let b = row_of[i];
                            let pl = cfg.loss.pair(
                                &emb[a * d..(a + 1) * d],
                                &emb[b * d..(b + 1) * d],
                                sim.get(s.anchor, i),
                                w,
                                dissimilar,
                            );
                            batch_loss += pl.loss;
                            add_assign(&mut d_emb[a * d..(a + 1) * d], &pl.d_anchor);
                            add_assign(&mut d_emb[b * d..(b + 1) * d], &pl.d_sample);
                        }
                    }
                }
                epoch_loss += batch_loss;

                // 4. BPTT per trajectory, then one optimizer step.
                grads.fill_zero();
                let jobs: Vec<(&BackboneCache, &[f64])> = results
                    .iter()
                    .zip(d_emb.chunks_exact(d))
                    .filter(|(_, g)| g.iter().any(|v| *v != 0.0))
                    .map(|((_, cache), g)| (cache, g))
                    .collect();
                let span = metrics.map(|m| m.backward_seconds.start_timer());
                backbone.backward_batch(&jobs, &mut grads, self.threads);
                drop(span);
                adam.next_step();
                backbone.adam_step(&mut adam, &slots, &grads, 1.0 / batch.len() as f64);
            }

            let loss = epoch_loss / n_seeds as f64;
            let seconds = t0.elapsed().as_secs_f64();
            if let Some(m) = &self.metrics {
                m.epochs_total.inc();
                m.loss.set(loss);
                m.epoch_seconds.observe(seconds);
            }
            report.epoch_losses.push(loss);
            report.epoch_seconds.push(seconds);
            on_epoch(&EpochStats {
                epoch,
                loss,
                seconds,
            });

            if let Some(patience) = cfg.patience {
                if loss + 1e-12 < best_loss {
                    best_loss = loss;
                    stale = 0;
                } else {
                    stale += 1;
                    if stale >= patience {
                        report.early_stopped = true;
                    }
                }
            } else {
                best_loss = best_loss.min(loss);
            }

            // Epoch boundary: everything the rest of the run depends on is
            // now in (backbone, adam, report, best_loss, stale).
            if let Some(policy) = &self.ckpt {
                let stop = policy.stop_requested();
                if stop || policy.due(epoch + 1, last_ckpt.elapsed().as_secs_f64()) {
                    self.write_checkpoint(
                        policy,
                        &backbone,
                        &adam,
                        &report,
                        best_loss,
                        stale,
                        epoch + 1,
                    )?;
                    last_ckpt = Instant::now();
                }
                if stop && !report.early_stopped {
                    report.interrupted = true;
                    break;
                }
            }
            if report.early_stopped {
                break;
            }
        }

        // Final memory refresh over every seed, in a fixed order, under
        // the *final* parameters; training-only storage is dropped.
        backbone.finish_training(&inputs);

        Ok((
            NeuTrajModel::new(backbone, self.grid.clone(), cfg.clone()),
            report,
        ))
    }

    /// Writes one checkpoint for the boundary after `epochs_done`
    /// completed epochs, then applies the retention policy.
    #[allow(clippy::too_many_arguments)]
    fn write_checkpoint(
        &self,
        policy: &CheckpointPolicy,
        backbone: &Backbone,
        adam: &Adam,
        report: &TrainReport,
        best_loss: f64,
        stale: usize,
        epochs_done: usize,
    ) -> Result<(), PersistError> {
        let span = self
            .metrics
            .as_ref()
            .map(|m| m.ckpt_write_seconds.start_timer());
        std::fs::create_dir_all(&policy.dir)?;
        let ckpt = Checkpoint {
            model: NeuTrajModel::new(backbone.clone(), self.grid.clone(), self.cfg.clone()),
            state: TrainState {
                next_epoch: epochs_done,
                early_stopped: report.early_stopped,
                best_loss,
                stale,
                alpha: report.alpha,
                epoch_losses: report.epoch_losses.clone(),
                epoch_seconds: report.epoch_seconds.clone(),
                adam: adam.export_state(),
            },
        };
        ckpt.save(policy.dir.join(Checkpoint::file_name(epochs_done)))?;
        policy.prune();
        drop(span);
        if let Some(m) = &self.metrics {
            m.ckpt_writes.inc();
        }
        Ok(())
    }
}

/// Convenience: how well a model's learned similarity matches seed ground
/// truth — mean squared error of `g` vs `S` over all seed pairs. Used by
/// validation-loss tracking in experiments.
pub fn seed_mse(model: &NeuTrajModel, seeds: &[Trajectory], sim: &SimilarityMatrix) -> f64 {
    let embs = model.embed_all(seeds, 1);
    let n = seeds.len();
    let mut sum = 0.0;
    let mut cnt = 0usize;
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let g = pair_similarity(&embs[i], &embs[j]);
            let f = sim.get(i, j);
            sum += (g - f) * (g - f);
            cnt += 1;
        }
    }
    if cnt == 0 {
        0.0
    } else {
        sum / cnt as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neutraj_measures::Hausdorff;
    use neutraj_trajectory::{gen::PortoLikeGenerator, Dataset};

    fn tiny_world() -> (Grid, Vec<Trajectory>, DistanceMatrix) {
        let ds: Dataset = PortoLikeGenerator {
            num_trajectories: 30,
            num_templates: 6,
            max_len: 30,
            ..Default::default()
        }
        .generate(11);
        let grid = Grid::covering(ds.trajectories(), 100.0).unwrap();
        let seeds: Vec<Trajectory> = ds.trajectories().to_vec();
        let rescaled: Vec<Trajectory> = seeds.iter().map(|t| grid.rescale_trajectory(t)).collect();
        let dist = DistanceMatrix::compute(&Hausdorff, &rescaled);
        (grid, seeds, dist)
    }

    fn fast_cfg() -> TrainConfig {
        TrainConfig {
            dim: 8,
            n_samples: 4,
            batch_anchors: 10,
            epochs: 3,
            ..TrainConfig::neutraj()
        }
    }

    #[test]
    fn training_reduces_loss() {
        let (grid, seeds, dist) = tiny_world();
        let mut stats = Vec::new();
        let (_, report) = Trainer::new(fast_cfg(), grid).fit(&seeds, &dist, |s| {
            stats.push(s.clone());
        });
        assert_eq!(report.epoch_losses.len(), 3);
        assert_eq!(stats.len(), 3);
        assert!(
            report.epoch_losses[2] < report.epoch_losses[0],
            "loss did not decrease: {:?}",
            report.epoch_losses
        );
        assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn training_is_deterministic() {
        let (grid, seeds, dist) = tiny_world();
        let (m1, r1) = Trainer::new(fast_cfg(), grid.clone()).fit(&seeds, &dist, |_| {});
        let (m2, r2) = Trainer::new(fast_cfg(), grid).fit(&seeds, &dist, |_| {});
        assert_eq!(r1.epoch_losses, r2.epoch_losses);
        assert_eq!(m1.embed(&seeds[0]), m2.embed(&seeds[0]));
    }

    #[test]
    fn all_presets_train() {
        let (grid, seeds, dist) = tiny_world();
        for preset in [
            TrainConfig::neutraj(),
            TrainConfig::nt_no_sam(),
            TrainConfig::nt_no_ws(),
            TrainConfig::siamese(),
        ] {
            let cfg = TrainConfig {
                dim: 8,
                n_samples: 3,
                epochs: 1,
                ..preset
            };
            let name = cfg.method_name();
            let (model, report) = Trainer::new(cfg, grid.clone()).fit(&seeds, &dist, |_| {});
            assert_eq!(report.epoch_losses.len(), 1, "{name}");
            assert!(report.epoch_losses[0].is_finite(), "{name}");
            assert!(
                model.embed(&seeds[1]).iter().all(|v| v.is_finite()),
                "{name}"
            );
        }
    }

    #[test]
    fn learned_similarity_correlates_with_ground_truth() {
        // After a few epochs the embedding distance ordering should agree
        // with the exact measure far better than chance: check Spearman-ish
        // sign agreement over sampled pairs.
        let (grid, seeds, dist) = tiny_world();
        let cfg = TrainConfig {
            dim: 16,
            epochs: 10,
            n_samples: 6,
            ..TrainConfig::neutraj()
        };
        let (model, _) = Trainer::new(cfg, grid).fit(&seeds, &dist, |_| {});
        let embs = model.embed_all(&seeds, 2);
        let mut agree = 0usize;
        let mut total = 0usize;
        for a in 0..seeds.len() {
            for i in 0..seeds.len() {
                for j in (i + 1)..seeds.len() {
                    if i == a || j == a {
                        continue;
                    }
                    let truth = dist.get(a, i) < dist.get(a, j);
                    let learned = neutraj_nn::linalg::euclidean(&embs[a], &embs[i])
                        < neutraj_nn::linalg::euclidean(&embs[a], &embs[j]);
                    if truth == learned {
                        agree += 1;
                    }
                    total += 1;
                }
            }
        }
        let acc = agree as f64 / total as f64;
        assert!(acc > 0.65, "pairwise order agreement only {acc:.3}");
    }

    #[test]
    fn parallel_training_matches_sequential() {
        let (grid, seeds, dist) = tiny_world();
        for preset in [TrainConfig::nt_no_sam(), TrainConfig::neutraj()] {
            let cfg = TrainConfig {
                dim: 8,
                epochs: 2,
                n_samples: 4,
                ..preset
            };
            let name = cfg.method_name();
            let (m1, r1) = Trainer::new(cfg.clone(), grid.clone()).fit(&seeds, &dist, |_| {});
            let (m4, r4) =
                Trainer::new(cfg, grid.clone())
                    .with_threads(4)
                    .fit(&seeds, &dist, |_| {});
            // Two-phase forwards + fixed-group gradient reduction make the
            // whole run a function of the batch alone: bit-identical.
            assert_eq!(r1.epoch_losses, r4.epoch_losses, "{name}: losses diverged");
            assert_eq!(
                m1.embed(&seeds[0]),
                m4.embed(&seeds[0]),
                "{name}: embeddings diverged"
            );
        }
    }

    #[test]
    fn early_stopping_fires() {
        let (grid, seeds, dist) = tiny_world();
        let cfg = TrainConfig {
            dim: 8,
            epochs: 50,
            lr: 1e-9, // effectively frozen ⇒ loss cannot improve
            patience: Some(2),
            ..TrainConfig::neutraj()
        };
        let (_, report) = Trainer::new(cfg, grid).fit(&seeds, &dist, |_| {});
        assert!(report.early_stopped);
        assert!(report.epoch_losses.len() < 50);
    }

    #[test]
    fn instrumented_training_records_metrics_without_changing_results() {
        let (grid, seeds, dist) = tiny_world();
        let cfg = TrainConfig {
            dim: 8,
            epochs: 3,
            n_samples: 4,
            ..TrainConfig::neutraj()
        };
        let registry = Registry::new();
        let (m_on, r_on) = Trainer::new(cfg.clone(), grid.clone())
            .with_metrics(&registry)
            .fit(&seeds, &dist, |_| {});
        let (m_off, r_off) = Trainer::new(cfg, grid).fit(&seeds, &dist, |_| {});

        // Instrumentation is observation-only: bit-identical training.
        assert_eq!(r_on.epoch_losses, r_off.epoch_losses);
        assert_eq!(m_on.embed(&seeds[0]), m_off.embed(&seeds[0]));

        assert_eq!(registry.counter("neutraj_train_epochs_total").get(), 3);
        assert!(registry.counter("neutraj_train_pairs_total").get() > 0);
        assert!(registry.counter("neutraj_nn_adam_steps_total").get() > 0);
        let loss = registry.gauge("neutraj_train_loss").get();
        assert_eq!(loss, *r_on.epoch_losses.last().unwrap());
        assert_eq!(registry.histogram("neutraj_train_epoch_seconds").count(), 3);
        let batches = registry.counter("neutraj_nn_adam_steps_total").get();
        for name in [names::TRAIN_FORWARD_SECONDS, names::TRAIN_BACKWARD_SECONDS] {
            let h = registry.histogram(name);
            assert_eq!(h.count(), batches, "{name}: one observation per batch");
            assert!(h.sum() > 0.0, "{name}");
        }
        assert!(registry.gauge(names::TRAIN_TAPE_BYTES).get() > 0.0);
        // The neutraj preset uses the SAM backbone, so both phases ran.
        assert!(
            registry
                .histogram("neutraj_train_sam_phase_a_seconds")
                .count()
                > 0
        );
        assert!(
            registry
                .histogram("neutraj_train_sam_phase_b_seconds")
                .count()
                > 0
        );
    }

    #[test]
    #[should_panic(expected = "invalid TrainConfig")]
    fn invalid_config_panics() {
        let (grid, _, _) = tiny_world();
        let cfg = TrainConfig {
            dim: 0,
            ..TrainConfig::neutraj()
        };
        let _ = Trainer::new(cfg, grid);
    }

    #[test]
    #[should_panic(expected = "is empty")]
    fn empty_seed_trajectory_rejected_with_clear_message() {
        let (grid, mut seeds, _) = tiny_world();
        seeds[3] = Trajectory::new_unchecked(999, vec![]);
        let dist = DistanceMatrix::from_raw(seeds.len(), vec![0.0; seeds.len() * seeds.len()]);
        let _ = Trainer::new(fast_cfg(), grid).fit(&seeds, &dist, |_| {});
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn mismatched_distance_matrix_panics() {
        let (grid, seeds, _) = tiny_world();
        let bad = DistanceMatrix::from_raw(2, vec![0.0; 4]);
        let _ = Trainer::new(fast_cfg(), grid).fit(&seeds, &bad, |_| {});
    }
}
