//! Append-only storage in shared chunks — how a database shares its rows
//! with its [`SimilarityDb::inserted`](crate::SimilarityDb::inserted)
//! successors (`DESIGN.md` §13).
//!
//! The trajectories, the embedding store's rows and norms, and its int8
//! codes each live in a [`Chunks`] list: blocks of a fixed number of
//! rows, every one but the last full. `clone` copies the block pointers,
//! not the rows, so a successor costs its own rows plus at most one
//! partial block per list. Appending to a block another list still holds
//! copies that one block first (`Arc::make_mut`), so neither ever sees
//! the other's rows.

use std::sync::Arc;

/// Rows per chunk of the trajectories and of the embedding rows. Small
/// enough that extending a shared last chunk copies little (at most
/// `CHUNK − 1` rows), large enough that copying the chunk pointers of a
/// corpus is `N / 64` words. At `d = 32` a chunk of embedding rows is
/// also one L1 chunk of the fused scan.
pub(crate) const CHUNK: usize = 64;

/// Rows per chunk of the int8 codes: eight row chunks. The u8 scan runs
/// once per chunk, and over 64-row chunks it ran 15–20 % slower a row
/// than over one contiguous column (`EXPERIMENTS.md`, "Shared chunks");
/// over 512 it runs at par. A code row is 64 bytes at `d = 32`, so the partial
/// chunk a rotation copies is at most 32 KiB.
pub(crate) const CODE_CHUNK: usize = 8 * CHUNK;

/// The contents of one chunk: up to its list's row count of some columns.
pub(crate) trait Block: Clone {
    /// Rows held.
    fn rows(&self) -> usize;
}

impl<T: Clone> Block for Vec<T> {
    fn rows(&self) -> usize {
        self.len()
    }
}

/// An append-only list of rows in shared blocks of `ROWS` rows (see the
/// module docs). `==` compares rows, not pointers.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Chunks<B, const ROWS: usize = CHUNK> {
    blocks: Vec<Arc<B>>,
}

impl<B, const ROWS: usize> Default for Chunks<B, ROWS> {
    fn default() -> Self {
        Self { blocks: Vec::new() }
    }
}

impl<B: Block, const ROWS: usize> Chunks<B, ROWS> {
    /// Rows stored.
    pub(crate) fn len(&self) -> usize {
        (self.blocks.last()).map_or(0, |last| (self.blocks.len() - 1) * ROWS + last.rows())
    }

    /// The blocks, in row order: block `c` holds rows from `c·ROWS`.
    pub(crate) fn blocks(&self) -> impl ExactSizeIterator<Item = &B> + Clone {
        self.blocks.iter().map(|b| &**b)
    }

    /// The block holding row `i`; panics past the last block.
    #[inline]
    pub(crate) fn block(&self, i: usize) -> &B {
        &self.blocks[i / ROWS]
    }

    /// The block the next row goes into: the last one while it has room
    /// (copied first if another list shares it), else a new `empty()`.
    pub(crate) fn tail(&mut self, empty: impl FnOnce() -> B) -> &mut B {
        if self.blocks.last().is_none_or(|last| last.rows() == ROWS) {
            self.blocks.push(Arc::new(empty()));
        }
        Arc::make_mut(self.blocks.last_mut().expect("a block was just ensured"))
    }

    /// How many of `parent`'s full blocks this list holds by pointer
    /// rather than by copy, and how many `parent` has.
    pub(crate) fn shared_with(&self, parent: &Self) -> (usize, usize) {
        let full = (parent.blocks.iter()).filter(|b| b.rows() == ROWS);
        let shared = (full.clone().zip(&self.blocks))
            .filter(|(theirs, ours)| Arc::ptr_eq(theirs, ours))
            .count();
        (shared, full.count())
    }
}

/// A list of single values (trajectories) rather than of column blocks.
impl<T: Clone> Chunks<Vec<T>> {
    /// Row `i`, if stored.
    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        self.blocks.get(i / CHUNK)?.get(i % CHUNK)
    }

    /// Row `i`, which the caller knows is stored.
    pub(crate) fn row(&self, i: usize) -> &T {
        &self.block(i)[i % CHUNK]
    }

    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.blocks.iter().flat_map(|b| b.iter())
    }

    /// Appends `ts`: tops up the last block, then fills whole new ones.
    pub(crate) fn extend(&mut self, ts: impl IntoIterator<Item = T>) {
        for t in ts {
            self.tail(|| Vec::with_capacity(CHUNK)).push(t);
        }
    }
}
