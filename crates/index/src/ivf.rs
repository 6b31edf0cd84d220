//! IVF (inverted-file) index over embedding rows — the coarse half of the
//! sub-linear serving path.
//!
//! A fitted k-means quantizer ([`KMeans`]) partitions the embedding
//! space into `nlists` Voronoi cells; each cell owns an inverted list of
//! the row ids assigned to it. A query probes the `nprobe` cells whose centroids are
//! nearest, unions their lists into a candidate shortlist, and leaves
//! exact reranking (the norm-trick scan in `neutraj-model`) to the
//! caller. Because the lists partition the corpus, `nprobe = nlists`
//! degenerates to the exhaustive scan — the recall-1.0 anchor the
//! property tests pin down.
//!
//! Everything is deterministic: probe order is ascending
//! `(distance², centroid index)` and each list keeps ids in insertion
//! (ascending) order, so candidate enumeration is reproducible across
//! runs and identical between a bulk-assigned index and one grown by
//! incremental [`IvfIndex::insert`] calls.

use neutraj_cluster::KMeans;
use neutraj_trajectory::cursor::{PutLe, Reader, Truncated};

/// Magic prefix of the serialized section ([`IvfIndex::to_bytes`]).
pub const IVF_MAGIC: &[u8; 8] = b"NTIVF01\0";

/// Errors decoding a serialized IVF section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IvfCodecError(String);

impl core::fmt::Display for IvfCodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "ivf decode: {}", self.0)
    }
}

impl std::error::Error for IvfCodecError {}

impl From<Truncated> for IvfCodecError {
    fn from(e: Truncated) -> Self {
        Self(e.to_string())
    }
}

/// An inverted-file index: a k-means quantizer plus one id list per cell.
#[derive(Debug, Clone, PartialEq)]
pub struct IvfIndex {
    quantizer: KMeans,
    /// `lists[j]` holds the ids assigned to centroid `j`, ascending.
    lists: Vec<Vec<u32>>,
    /// Total ids across all lists; also the next id [`insert`] assigns.
    ///
    /// [`insert`]: IvfIndex::insert
    len: usize,
}

impl IvfIndex {
    /// Builds an index over `data` (row-major `n × dim`) with an
    /// already-fitted `quantizer`: one batched assignment pass, row `i`
    /// getting id `i`. Panics on ragged data.
    pub fn build(quantizer: KMeans, data: &[f64]) -> IvfIndex {
        let mut assign = Vec::new();
        quantizer.assign_batch(data, &mut assign);
        let mut lists = vec![Vec::new(); quantizer.k()];
        for (i, &c) in assign.iter().enumerate() {
            lists[c as usize].push(i as u32);
        }
        IvfIndex {
            quantizer,
            len: assign.len(),
            lists,
        }
    }

    /// Rebuilds an index from its parts (the persistence path). Panics
    /// when a list references a centroid that doesn't exist.
    pub fn from_parts(quantizer: KMeans, lists: Vec<Vec<u32>>) -> IvfIndex {
        assert_eq!(
            lists.len(),
            quantizer.k(),
            "ivf: list count != centroid count"
        );
        let len = lists.iter().map(Vec::len).sum();
        IvfIndex {
            quantizer,
            lists,
            len,
        }
    }

    /// The coarse quantizer.
    pub fn quantizer(&self) -> &KMeans {
        &self.quantizer
    }

    /// Number of inverted lists.
    pub fn nlists(&self) -> usize {
        self.lists.len()
    }

    /// Embedding dimensionality the index was built for.
    pub fn dim(&self) -> usize {
        self.quantizer.dim()
    }

    /// Total number of indexed rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no rows are indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Ids in list `j`, ascending.
    pub fn list(&self, j: usize) -> &[u32] {
        &self.lists[j]
    }

    /// Assigns the next id (`self.len()`) to `emb`'s nearest cell and
    /// returns it — the incremental path behind `SimilarityDb::insert`.
    /// Scalar assignment agrees exactly with the batched [`build`] pass,
    /// so an index grown by inserts matches a bulk rebuild.
    ///
    /// [`build`]: IvfIndex::build
    pub fn insert(&mut self, emb: &[f64]) -> usize {
        let id = self.len;
        let cell = self.quantizer.assign(emb);
        self.lists[cell].push(id as u32);
        self.len += 1;
        id
    }

    /// Appends the ids of the `nprobe` cells nearest to `query` into
    /// `out` (cleared first), in probe order — ascending centroid
    /// distance, ids ascending within each list. Returns the number of
    /// lists probed (`min(nprobe, nlists)`).
    pub fn candidates_into(&self, query: &[f64], nprobe: usize, out: &mut Vec<u32>) -> usize {
        out.clear();
        let probe = self.quantizer.nearest(query, nprobe);
        for &cell in &probe {
            out.extend_from_slice(&self.lists[cell]);
        }
        probe.len()
    }

    /// Serializes the index: `NTIVF01\0` magic, header, centroid matrix,
    /// then each list — all little-endian. Integrity is the enclosing
    /// envelope's job (the `NTFILE01` CRC seal in `neutraj-model`).
    pub fn to_bytes(&self) -> Vec<u8> {
        let dim = self.dim();
        let ids: usize = self.lists.iter().map(Vec::len).sum();
        let cap = 8 + 3 * 8 + self.nlists() * dim * 8 + self.nlists() * 8 + ids * 4;
        let mut buf = Vec::with_capacity(cap);
        buf.put_slice(IVF_MAGIC);
        buf.put_u64_le(dim as u64);
        buf.put_u64_le(self.nlists() as u64);
        buf.put_u64_le(self.len as u64);
        for &v in self.quantizer.centroids() {
            buf.put_f64_le(v);
        }
        for list in &self.lists {
            buf.put_u64_le(list.len() as u64);
            for &id in list {
                buf.put_u32_le(id);
            }
        }
        buf
    }

    /// Decodes a [`to_bytes`] section, validating the magic, lengths,
    /// centroid finiteness, and that the lists partition `0..len`.
    ///
    /// [`to_bytes`]: IvfIndex::to_bytes
    pub fn from_bytes(data: &[u8]) -> Result<IvfIndex, IvfCodecError> {
        let mut cur = Reader::new(data);
        let magic = cur.take(8)?;
        if magic != IVF_MAGIC {
            return Err(IvfCodecError(format!("bad magic {magic:02x?}")));
        }
        let dim = cur.u64()? as usize;
        let nlists = cur.u64()? as usize;
        let len = cur.u64()? as usize;
        if dim == 0 || dim > 1 << 20 {
            return Err(IvfCodecError(format!("implausible dim {dim}")));
        }
        if nlists == 0 || nlists > 1 << 24 {
            return Err(IvfCodecError(format!("implausible nlists {nlists}")));
        }
        let centroids = cur.f64s(nlists * dim)?;
        if let Some(v) = centroids.iter().find(|v| !v.is_finite()) {
            return Err(IvfCodecError(format!("non-finite centroid value {v}")));
        }
        let mut lists = Vec::with_capacity(nlists);
        let mut total = 0usize;
        for j in 0..nlists {
            let count = cur.u64()? as usize;
            total += count;
            if total > len {
                return Err(IvfCodecError(format!(
                    "lists overflow len {len} at list {j}"
                )));
            }
            // A corrupt count must not reserve more than the buffer holds.
            let mut list = Vec::with_capacity(count.min(cur.rest().len() / 4));
            let mut prev: Option<u32> = None;
            for _ in 0..count {
                let id = cur.u32()?;
                if id as usize >= len {
                    return Err(IvfCodecError(format!("id {id} out of range (len {len})")));
                }
                if prev.is_some_and(|p| p >= id) {
                    return Err(IvfCodecError(format!("list {j} ids not ascending")));
                }
                prev = Some(id);
                list.push(id);
            }
            lists.push(list);
        }
        if total != len {
            return Err(IvfCodecError(format!(
                "lists hold {total} ids, header says {len}"
            )));
        }
        if !cur.rest().is_empty() {
            return Err(IvfCodecError(format!(
                "{} trailing bytes",
                cur.rest().len()
            )));
        }
        Ok(IvfIndex::from_parts(
            KMeans::from_centroids(dim, centroids),
            lists,
        ))
    }
}
