//! Crash-recoverable snapshot persistence.
//!
//! A served [`Snapshot`] can be sealed to disk and re-adopted after a
//! crash or restart through the same `NTFILE01` envelope contract as
//! model files (`DESIGN.md` §9): `magic ‖ payload_len:u64 ‖ payload ‖
//! crc32(payload):u32`, written via temp-file + fsync + atomic rename.
//! Corruption anywhere in the file — a flipped bit, a torn tail, trailing
//! garbage — is rejected by the envelope **before** a single payload byte
//! is parsed, so a damaged snapshot can never be adopted (the persistence
//! suite damages sealed file images and hands each to [`Snapshot::load`]).
//!
//! # What is stored
//!
//! The payload (`NTSNAP01` codec, little-endian throughout) carries the
//! *inputs* of the snapshot, not its derived state:
//!
//! * the epoch and shard layout (`nshards`, quantized/ANN/graph flags —
//!   the first inert, kept so the format holds — [`AnnParams`], and
//!   [`HnswParams`]),
//! * the trained model through its own `NTMODEL1` codec
//!   ([`NeuTrajModel::to_bytes`]), and
//! * every stored trajectory in **global** order (id + raw points).
//!
//! Embeddings (with their int8 codes), IVF centroids and HNSW graphs are
//! *recomputed* on load by [`Snapshot::build`] — the build pipeline is
//! deterministic (lockstep batched embed, seeded k-means, seeded
//! hashed-level graph construction), so the rebuilt snapshot answers
//! queries bit-identically to the one that was saved, and the file stays
//! compact and structurally simple enough to validate field by field.

use crate::snapshot::{ShardConfig, Snapshot};
use neutraj_model::persist::{load_sealed, save_sealed};
use neutraj_model::{AnnParams, HnswParams, NeuTrajModel, PersistError};
use neutraj_trajectory::cursor::{PutLe, Reader};
use neutraj_trajectory::{Point, Trajectory};
use std::path::Path;

/// Magic header + format version of the snapshot payload codec.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"NTSNAP01";

const FLAG_QUANTIZED: u8 = 1 << 0;
const FLAG_ANN: u8 = 1 << 1;
const FLAG_GRAPH: u8 = 1 << 2;

fn fail(msg: impl Into<String>) -> PersistError {
    PersistError::Format(msg.into())
}

impl Snapshot {
    /// Serializes the snapshot into the raw `NTSNAP01` payload (no file
    /// envelope — see [`Snapshot::save`] for the checksummed form).
    pub fn to_bytes(&self) -> Vec<u8> {
        let cfg = self.shard_config();
        let model_bytes = self.model().to_bytes();
        let mut out = Vec::with_capacity(model_bytes.len() + (1 << 12));
        out.put_slice(SNAPSHOT_MAGIC);
        out.put_u64_le(self.epoch());
        out.put_u64_le(self.nshards() as u64);
        let mut flags = 0u8;
        if cfg.quantized {
            flags |= FLAG_QUANTIZED;
        }
        if cfg.ann.is_some() {
            flags |= FLAG_ANN;
        }
        if cfg.graph.is_some() {
            flags |= FLAG_GRAPH;
        }
        out.put_u8(flags);
        if let Some(ann) = &cfg.ann {
            out.put_u64_le(ann.nlists as u64);
            out.put_u64_le(ann.train_iters as u64);
            out.put_u64_le(ann.train_sample as u64);
            out.put_u64_le(ann.seed);
        }
        if let Some(graph) = &cfg.graph {
            out.put_u64_le(graph.m as u64);
            out.put_u64_le(graph.m0 as u64);
            out.put_u64_le(graph.ef_construction as u64);
            out.put_u64_le(graph.seed);
        }
        out.put_u64_le(model_bytes.len() as u64);
        out.put_slice(&model_bytes);
        out.put_u64_le(self.len() as u64);
        // Global order, so load-time round-robin placement reproduces
        // the exact shard layout (and therefore the exact global
        // indices) of the saved snapshot.
        for g in 0..self.len() {
            let t = self.trajectory(g).expect("global index in range");
            out.put_u64_le(t.id);
            out.put_u64_le(t.points().len() as u64);
            for p in t.points() {
                out.put_f64_le(p.x);
                out.put_f64_le(p.y);
            }
        }
        out
    }

    /// Rebuilds a snapshot from a raw payload produced by
    /// [`Snapshot::to_bytes`]. `build_threads` is the load-time embed
    /// parallelism — it affects speed only, never the rebuilt bits.
    pub fn from_bytes(data: &[u8], build_threads: usize) -> Result<Self, PersistError> {
        let mut r = Reader::new(data);
        if r.take(8)? != SNAPSHOT_MAGIC {
            return Err(fail("bad snapshot magic (not a NeuTraj snapshot?)"));
        }
        let epoch = r.u64()?;
        let nshards = r.u64()? as usize;
        if nshards == 0 {
            return Err(fail("snapshot declares zero shards"));
        }
        let flags = r.u8()?;
        if flags & !(FLAG_QUANTIZED | FLAG_ANN | FLAG_GRAPH) != 0 {
            return Err(fail(format!("unknown snapshot flags {flags:#04x}")));
        }
        let ann = if flags & FLAG_ANN != 0 {
            Some(AnnParams {
                nlists: r.u64()? as usize,
                train_iters: r.u64()? as usize,
                train_sample: r.u64()? as usize,
                seed: r.u64()?,
            })
        } else {
            None
        };
        let graph = if flags & FLAG_GRAPH != 0 {
            let params = HnswParams {
                m: r.u64()? as usize,
                m0: r.u64()? as usize,
                ef_construction: r.u64()? as usize,
                seed: r.u64()?,
            };
            params
                .validate()
                .map_err(|e| fail(format!("stored graph params are invalid: {e}")))?;
            Some(params)
        } else {
            None
        };
        let model_len = r.u64()? as usize;
        let model = NeuTrajModel::from_bytes(r.take(model_len)?)?;
        let ntraj = r.u64()? as usize;
        let mut corpus = Vec::with_capacity(ntraj.min(1 << 20));
        for g in 0..ntraj {
            let id = r.u64()?;
            let npts = r.u64()? as usize;
            let points = r
                .f64s(npts.saturating_mul(2))?
                .chunks_exact(2)
                .map(|c| Point::new(c[0], c[1]))
                .collect();
            let t = Trajectory::new(id, points)
                .map_err(|e| fail(format!("invalid stored trajectory {g} (id {id}): {e}")))?;
            corpus.push(t);
        }
        if !r.rest().is_empty() {
            return Err(fail(format!(
                "{} trailing bytes after the snapshot payload",
                r.rest().len()
            )));
        }
        let cfg = ShardConfig {
            nshards,
            build_threads: build_threads.max(1),
            ann,
            graph,
            quantized: flags & FLAG_QUANTIZED != 0,
        };
        let snapshot = Snapshot::build(&model, corpus, &cfg)
            .map_err(|e| fail(format!("stored snapshot fails to rebuild: {e}")))?;
        Ok(snapshot.with_epoch(epoch))
    }

    /// Persists the snapshot to a file: checksummed envelope, temp-file +
    /// fsync + atomic rename — a crash mid-save leaves either the old
    /// file or the new one, never a torn mix.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), PersistError> {
        save_sealed(path.as_ref(), &self.to_bytes())
    }

    /// Loads a snapshot saved by [`Snapshot::save`], rebuilding shards
    /// with `build_threads`-way embed parallelism. Pair with
    /// [`SimilarityService::from_snapshot`](crate::SimilarityService::from_snapshot)
    /// to resume serving at the saved epoch.
    pub fn load<P: AsRef<Path>>(path: P, build_threads: usize) -> Result<Self, PersistError> {
        Self::from_bytes(&load_sealed(path.as_ref())?, build_threads)
    }
}
