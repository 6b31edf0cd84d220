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
//! The `NTSNAP02` payload is framing plus length-prefixed sections
//! (`len:u64 ‖ bytes`), each written by its structure's own codec:
//!
//! ```text
//! NTSNAP02 ‖ epoch:u64 ‖ nshards:u64 ‖ flags:u8 (bit 0 IVF, bit 1 graph)
//! ‖ NTMODEL1 model ‖ NTRAJv1 corpus (global order)
//! ‖ per shard: section( NTIVF01? ‖ NTHNSW01? )
//! ```
//!
//! The views are stored as served, so a snapshot that took inserts comes
//! back with the very IVF lists and graphs it had: a load re-embeds the
//! corpus ([`Snapshot::build`], the pinned lockstep forward) and installs
//! each shard's views with `SimilarityDb::set_view`, which checks them
//! against the shard's rows — no k-means fit, no graph build. Every shard
//! is a section even with no views, so a shard count the bytes cannot
//! back is refused before anything is allocated per shard.

use crate::snapshot::{ShardConfig, Snapshot};
use neutraj_model::persist::{load_sealed, save_sealed};
use neutraj_model::{HnswIndex, IvfIndex, NeuTrajModel, PersistError, ShortlistView};
use neutraj_trajectory::cursor::{PutLe, Reader};
use neutraj_trajectory::io::{decode_binary, encode_binary};
use std::path::Path;

/// Magic header + format version of the snapshot payload codec.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"NTSNAP02";

const FLAG_ANN: u8 = 1 << 0;
const FLAG_GRAPH: u8 = 1 << 1;

fn fail(msg: impl Into<String>) -> PersistError {
    PersistError::Format(msg.into())
}

fn put_section(out: &mut Vec<u8>, bytes: &[u8]) {
    out.put_u64_le(bytes.len() as u64);
    out.put_slice(bytes);
}

fn section<'a>(r: &mut Reader<'a>) -> Result<&'a [u8], PersistError> {
    let len = r.u64()? as usize;
    Ok(r.take(len)?)
}

/// Decodes view `V` from shard `s`'s section and installs it, when the
/// flags say one is there.
fn install<V: ShortlistView>(
    snapshot: &mut Snapshot,
    s: usize,
    r: &mut Reader,
    present: bool,
) -> Result<(), PersistError> {
    if present {
        let view = V::decode(section(r)?)
            .map_err(|e| fail(format!("shard {s}'s stored {}: {e}", V::NAME)))?;
        snapshot
            .set_view(s, view)
            .map_err(|e| fail(format!("shard {s}: {e}")))?;
    }
    Ok(())
}

impl Snapshot {
    /// Serializes the snapshot into the raw `NTSNAP02` payload (no file
    /// envelope — see [`Snapshot::save`] for the checksummed form).
    pub fn to_bytes(&self) -> Vec<u8> {
        // Every shard carries the same views (`build` and `inserted`
        // keep them uniform), so shard 0 speaks for all.
        let first = self.shard(0);
        let mut flags = 0u8;
        if first.ann_index().is_some() {
            flags |= FLAG_ANN;
        }
        if first.graph_index().is_some() {
            flags |= FLAG_GRAPH;
        }
        let mut out = Vec::new();
        out.put_slice(SNAPSHOT_MAGIC);
        out.put_u64_le(self.epoch());
        out.put_u64_le(self.nshards() as u64);
        out.put_u8(flags);
        put_section(&mut out, &self.model().to_bytes());
        // Global order, so load-time round-robin placement reproduces
        // the exact shard layout (and therefore the exact global
        // indices) of the saved snapshot.
        let rows = (0..self.len()).map(|g| self.trajectory(g).expect("global index in range"));
        put_section(&mut out, &encode_binary(rows));
        for s in 0..self.nshards() {
            let db = self.shard(s);
            let mut views = Vec::new();
            if let Some(ix) = db.ann_index() {
                put_section(&mut views, &ix.encode());
            }
            if let Some(g) = db.graph_index() {
                put_section(&mut views, &g.encode());
            }
            put_section(&mut out, &views);
        }
        out
    }

    /// Restores a snapshot from a raw payload produced by
    /// [`Snapshot::to_bytes`]: re-embeds the corpus, installs each
    /// shard's saved views, restores the epoch. `build_threads` is the
    /// load-time embed parallelism — it affects speed only, never the
    /// restored bits.
    pub fn from_bytes(data: &[u8], build_threads: usize) -> Result<Self, PersistError> {
        let mut r = Reader::new(data);
        let magic = r.take(8)?;
        if magic == b"NTSNAP01" {
            return Err(fail(
                "an NTSNAP01 snapshot (views not stored): rebuild it from its corpus",
            ));
        }
        if magic != SNAPSHOT_MAGIC {
            return Err(fail("bad snapshot magic (not a NeuTraj snapshot?)"));
        }
        let epoch = r.u64()?;
        let nshards = r.u64()?;
        let flags = r.u8()?;
        if flags & !(FLAG_ANN | FLAG_GRAPH) != 0 {
            return Err(fail(format!("unknown snapshot flags {flags:#04x}")));
        }
        let model = NeuTrajModel::from_bytes(section(&mut r)?)?;
        let corpus = decode_binary(section(&mut r)?)
            .map_err(|e| fail(format!("stored corpus: {e}")))?
            .into_trajectories();
        // Each shard section takes at least its 8-byte length.
        if nshards == 0 || nshards > (r.rest().len() / 8) as u64 {
            let left = r.rest().len();
            return Err(fail(format!(
                "{nshards} shards declared, {left} bytes left"
            )));
        }
        let cfg = ShardConfig {
            build_threads,
            ..ShardConfig::new(nshards as usize)
        };
        let mut snapshot = Snapshot::build(&model, corpus, &cfg)
            .map_err(|e| fail(format!("stored snapshot fails to re-embed: {e}")))?;
        for s in 0..snapshot.nshards() {
            let mut shard = Reader::new(section(&mut r)?);
            install::<IvfIndex>(&mut snapshot, s, &mut shard, flags & FLAG_ANN != 0)?;
            install::<HnswIndex>(&mut snapshot, s, &mut shard, flags & FLAG_GRAPH != 0)?;
            if !shard.rest().is_empty() {
                return Err(fail(format!("trailing bytes in shard {s}'s section")));
            }
        }
        if !r.rest().is_empty() {
            return Err(fail(format!(
                "{} trailing bytes after the snapshot payload",
                r.rest().len()
            )));
        }
        Ok(snapshot.with_epoch(epoch))
    }

    /// Persists the snapshot to a file: checksummed envelope, temp-file +
    /// fsync + atomic rename — a crash mid-save leaves either the old
    /// file or the new one, never a torn mix.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), PersistError> {
        save_sealed(path.as_ref(), &self.to_bytes())
    }

    /// Loads a snapshot saved by [`Snapshot::save`], re-embedding shards
    /// with `build_threads`-way parallelism. Pair with
    /// [`SimilarityService::from_snapshot`](crate::SimilarityService::from_snapshot)
    /// to resume serving at the saved epoch.
    pub fn load<P: AsRef<Path>>(path: P, build_threads: usize) -> Result<Self, PersistError> {
        Self::from_bytes(&load_sealed(path.as_ref())?, build_threads)
    }
}
