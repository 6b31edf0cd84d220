//! The spatial memory tensor **M** (§IV-A), its version rows, and the
//! two-phase write log.
//!
//! # Rows, versions and epochs
//!
//! A BPTT tape names the memory rows a step read by **row id** instead of
//! copying them, so a row must not change while a tape that names it may
//! still run backward. The memory therefore keeps two kinds of rows in one
//! flat buffer: the dense cell rows (`cols·rows` of them, row-major over
//! the grid — row id = cell index) and, behind them, **version rows**.
//! [`SpatialMemory::commit`] never edits a row in place: it appends a new
//! version row per written cell and repoints the cell at it. Every read
//! of a cell ([`SpatialMemory::slot`], the window ids the attention read
//! names, `==`, `clone`) follows the cell's current row, so live version
//! rows are invisible to readers. [`SpatialMemory::fold`] copies each repointed
//! cell's current row back into its dense row and drops the version rows.
//!
//! Everything that edits or drops a row a tape may name — `fold`,
//! [`SpatialMemory::reset`], the in-place [`SpatialMemory::write`] — moves
//! the memory to a fresh, process-unique **epoch**. A tape records the
//! epoch it was written under and the backward pass refuses any other.

use std::sync::atomic::{AtomicU64, Ordering};

/// Row ids with this bit set name a sequence-local row of the tape (one
/// of the sequence's own pending writes) rather than a memory row.
pub(crate) const LOCAL_ROW: u32 = 1 << 31;

/// A process-unique stamp: memory epochs and tape-set stamps are drawn
/// from one counter, so no two row sets ever share one.
pub(crate) fn fresh_stamp() -> u64 {
    // Relaxed: the value publishes nothing but its own uniqueness.
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The gated write `slot ← w ⊙ value + (1 - w) ⊙ slot` (§IV-C.2).
#[inline]
fn interpolate(slot: &mut [f64], weight: &[f64], value: &[f64]) {
    for k in 0..slot.len() {
        debug_assert!((0.0..=1.0).contains(&weight[k]), "weight out of range");
        slot[k] = weight[k] * value[k] + (1.0 - weight[k]) * slot[k];
    }
}

/// A `P × Q × d` grid-cell memory: each cell of the spatial grid owns a
/// `d`-dimensional embedding that accumulates information from every
/// trajectory that passed through it.
///
/// All slots are zero-initialized ("all grid cell embeddings are
/// initialized with 0 before training", §IV-A). The *writer* updates a
/// slot as a gated interpolation; the *reader* gathers the `(2w+1)²` scan
/// window around a cell. Equality compares the cells' current values.
#[derive(Debug, Clone)]
pub struct SpatialMemory {
    cols: usize,
    rows: usize,
    dim: usize,
    /// The dense cell rows, then the version rows appended since the last
    /// fold; `dim` values each.
    data: Vec<f64>,
    /// The row every cell currently points at. Empty while no version row
    /// is live: every cell then is its own dense row.
    head: Vec<u32>,
    /// Stamp of the current row set (see the module docs).
    epoch: u64,
}

impl PartialEq for SpatialMemory {
    fn eq(&self, other: &Self) -> bool {
        (self.cols, self.rows, self.dim) == (other.cols, other.rows, other.dim)
            && (0..self.cells()).all(|cell| self.cell_row(cell) == other.cell_row(cell))
    }
}

impl SpatialMemory {
    /// Creates a zeroed memory for a `cols × rows` grid with `dim`-sized
    /// slots.
    pub fn new(cols: usize, rows: usize, dim: usize) -> Self {
        assert!(cols > 0 && rows > 0 && dim > 0, "degenerate memory shape");
        assert!(
            cols * rows < LOCAL_ROW as usize,
            "grid too large for row ids"
        );
        Self {
            cols,
            rows,
            dim,
            data: vec![0.0; cols * rows * dim],
            head: Vec::new(),
            epoch: fresh_stamp(),
        }
    }

    /// Grid width `P`.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Grid height `Q`.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Slot dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    fn cells(&self) -> usize {
        self.cols * self.rows
    }

    /// Stamp of the current row set: a tape recorded under another epoch
    /// names rows that have since been edited or dropped.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Zeroes every slot (fresh training run) and drops the version rows.
    pub fn reset(&mut self) {
        self.data.truncate(self.cells() * self.dim);
        self.data.fill(0.0);
        self.head.clear();
        self.epoch = fresh_stamp();
    }

    /// Folds the version rows back into the dense cell layout: every
    /// repointed cell's dense row takes its current value and the version
    /// rows are dropped (their storage is kept for the next batch). No
    /// value a reader can see changes; tapes recorded before the fold are
    /// dead. A memory without version rows is left as it is, epoch
    /// included.
    pub fn fold(&mut self) {
        if self.head.is_empty() {
            return;
        }
        let d = self.dim;
        for cell in 0..self.cells() {
            let id = self.head[cell] as usize;
            if id != cell {
                self.data.copy_within(id * d..(id + 1) * d, cell * d);
            }
        }
        self.data.truncate(self.cells() * d);
        self.head.clear();
        self.epoch = fresh_stamp();
    }

    #[inline]
    fn cell_index(&self, col: u32, row: u32) -> usize {
        debug_assert!((col as usize) < self.cols && (row as usize) < self.rows);
        row as usize * self.cols + col as usize
    }

    /// Id of the row `cell` currently points at.
    #[inline]
    fn row_id(&self, cell: usize) -> usize {
        if self.head.is_empty() {
            cell
        } else {
            self.head[cell] as usize
        }
    }

    #[inline]
    fn cell_row(&self, cell: usize) -> &[f64] {
        let id = self.row_id(cell);
        &self.data[id * self.dim..(id + 1) * self.dim]
    }

    /// Every row, dense and version, as one `dim`-wide row-major matrix —
    /// what the ids of [`Self::window_ids`] index.
    pub(crate) fn all_rows(&self) -> &[f64] {
        &self.data
    }

    /// The embedding slot of cell `(col, row)`.
    #[inline]
    pub fn slot(&self, col: u32, row: u32) -> &[f64] {
        self.cell_row(self.cell_index(col, row))
    }

    /// Scan-window bounds of half-width `w` around `(col, row)`, clipped
    /// to the grid: `(c0, c1, r0, r1)`, all inclusive.
    #[inline]
    fn window_bounds(&self, col: u32, row: u32, w: u32) -> (u32, u32, u32, u32) {
        let c0 = col.saturating_sub(w);
        let c1 = (col + w).min(self.cols as u32 - 1);
        let r0 = row.saturating_sub(w);
        let r1 = (row + w).min(self.rows as u32 - 1);
        (c0, c1, r0, r1)
    }

    /// Cells of the scan window of half-width `w` around `(col, row)`,
    /// clipped to the grid, in row-major order (§IV-C.1).
    pub fn window(&self, col: u32, row: u32, w: u32) -> Vec<(u32, u32)> {
        let (c0, c1, r0, r1) = self.window_bounds(col, row, w);
        let mut out = Vec::with_capacity(((c1 - c0 + 1) * (r1 - r0 + 1)) as usize);
        for r in r0..=r1 {
            for c in c0..=c1 {
                out.push((c, r));
            }
        }
        out
    }

    /// Ids of the rows the window's cells currently point at, in the
    /// row-major cell order of [`Self::window`], into the front of `out`;
    /// returns `K`. The ids stay valid — and the rows they name unchanged
    /// — for as long as the memory's [`Self::epoch`] does.
    pub(crate) fn window_ids(&self, col: u32, row: u32, w: u32, out: &mut [u32]) -> usize {
        let (c0, c1, r0, r1) = self.window_bounds(col, row, w);
        let mut k = 0;
        for r in r0..=r1 {
            for cell in self.cell_index(c0, r)..=self.cell_index(c1, r) {
                out[k] = self.row_id(cell) as u32;
                k += 1;
            }
        }
        k
    }

    /// Copies the window's current slots into a flat `K × dim` row-major
    /// buffer (the matrix `G_t` of §IV-C.1) and returns it with `K` — the
    /// copied-window oracle the id read is tested against.
    #[cfg(test)]
    pub(crate) fn gather(&self, col: u32, row: u32, w: u32) -> (Vec<f64>, usize) {
        let cells = self.window(col, row, w);
        let g = cells
            .iter()
            .flat_map(|&(c, r)| self.slot(c, r))
            .copied()
            .collect();
        (g, cells.len())
    }

    /// The writer (§IV-C.2): `M(cell) ← w ⊙ value + (1 - w) ⊙ M(cell)`
    /// with a per-dimension interpolation weight `w ∈ [0, 1]`, applied to
    /// the cell's current row **in place** — so it starts a new epoch and
    /// tapes recorded before it are dead. Training writes go through
    /// [`Self::commit`], which keeps them alive.
    pub fn write(&mut self, col: u32, row: u32, weight: &[f64], value: &[f64]) {
        assert_eq!(weight.len(), self.dim, "write weight arity");
        assert_eq!(value.len(), self.dim, "write value arity");
        let o = self.row_id(self.cell_index(col, row)) * self.dim;
        interpolate(&mut self.data[o..o + self.dim], weight, value);
        self.epoch = fresh_stamp();
    }

    /// Phase B of the two-phase training protocol: replays a sequence's
    /// buffered writes against this memory, in the exact order they were
    /// recorded. Committing the logs of a batch in input order reproduces
    /// the write order of a fully sequential pass over that batch.
    ///
    /// No existing row changes: each distinct cell of the log first gets
    /// a new version row seeded with its current value, the replay runs
    /// on those, and the epoch stays — tapes that name the old rows still
    /// read what their forward read.
    pub fn commit(&mut self, log: &WriteLog) {
        let d = self.dim;
        if log.is_empty() {
            return;
        }
        if self.head.is_empty() {
            self.head.extend(0..self.cells() as u32);
        }
        for &((col, row), _) in &log.touched {
            let cell = self.cell_index(col, row);
            let cur = self.head[cell] as usize;
            let new = self.data.len() / d;
            assert!(
                new < LOCAL_ROW as usize,
                "version rows exhaust the id space"
            );
            self.data.extend_from_within(cur * d..(cur + 1) * d);
            self.head[cell] = new as u32;
        }
        for (i, &(col, row)) in log.cells.iter().enumerate() {
            let o = self.head[self.cell_index(col, row)] as usize * d;
            let at = i * d..(i + 1) * d;
            interpolate(
                &mut self.data[o..o + d],
                &log.weights[at.clone()],
                &log.values[at],
            );
        }
    }

    /// Fraction of slots that have been written to (any non-zero entry).
    /// Useful diagnostics for how much of the city the training data covers.
    pub fn occupancy(&self) -> f64 {
        let occupied = (0..self.cells())
            .filter(|&cell| self.cell_row(cell).iter().any(|v| *v != 0.0))
            .count();
        occupied as f64 / self.cells() as f64
    }
}

/// Pending memory writes of one sequence — phase A of the two-phase
/// training protocol.
///
/// During the parallel phase every sequence runs against an immutable
/// snapshot of the spatial memory and records its writes here instead of
/// mutating the shared tensor. The sequence still has to read its own
/// pending writes, so every recorded write also produces the cell's new
/// sequence-local value as a **local row** — appended, never edited, to
/// the block the caller passes in (the sequence's tape), where row `i`
/// belongs to write `i`. `overlay_ids` puts the latest local row
/// of every touched cell over a window's ids, which makes a buffered
/// forward bit-identical to a sequential training forward started from
/// the same memory state. Phase B replays the logs in fixed input order
/// via [`SpatialMemory::commit`], preserving the deterministic write
/// order.
///
/// Everything is flat and reused across [`Self::clear`]: a recorded step
/// appends to three buffers and allocates nothing once they have grown.
#[derive(Debug, Clone, Default)]
pub struct WriteLog {
    /// Cell of every buffered write, in record order.
    cells: Vec<(u32, u32)>,
    /// Interpolation weights of every buffered write, `len × dim`.
    weights: Vec<f64>,
    /// Written values of every buffered write, `len × dim`.
    values: Vec<f64>,
    /// The distinct cells this sequence has written, in first-write
    /// order, each with the index of its latest local row. A sequence
    /// touches a handful of cells, so this is searched linearly (newest
    /// first: a trajectory lingers).
    touched: Vec<((u32, u32), u32)>,
}

impl WriteLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of buffered writes.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no writes are buffered.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Drops all buffered writes (reuse across sequences).
    pub fn clear(&mut self) {
        self.cells.clear();
        self.weights.clear();
        self.values.clear();
        self.touched.clear();
    }

    /// Buffers the gated write `slot ← w ⊙ value + (1 - w) ⊙ slot` against
    /// `base` and writes the cell's new sequence-local value to local row
    /// [`Self::len`] of `local` (a `dim`-wide row-major block with room
    /// for it; the rows before it are the earlier writes' and stay as
    /// they are).
    pub fn record(
        &mut self,
        base: &SpatialMemory,
        col: u32,
        row: u32,
        weight: &[f64],
        value: &[f64],
        local: &mut [f64],
    ) {
        let d = base.dim;
        assert_eq!(weight.len(), d, "write weight arity");
        assert_eq!(value.len(), d, "write value arity");
        let at = self.cells.len();
        assert!(at < LOCAL_ROW as usize, "local rows exhaust the id space");
        let (earlier, rest) = local.split_at_mut(at * d);
        let prev = match self.touched_index(col, row) {
            Some(i) => {
                let before = std::mem::replace(&mut self.touched[i].1, at as u32) as usize;
                &earlier[before * d..(before + 1) * d]
            }
            None => {
                self.touched.push(((col, row), at as u32));
                base.slot(col, row)
            }
        };
        rest[..d].copy_from_slice(prev);
        interpolate(&mut rest[..d], weight, value);
        self.cells.push((col, row));
        self.weights.extend_from_slice(weight);
        self.values.extend_from_slice(value);
    }

    fn touched_index(&self, col: u32, row: u32) -> Option<usize> {
        self.touched
            .iter()
            .rposition(|&(cell, _)| cell == (col, row))
    }

    /// Overlays this sequence's pending writes on the ids of the window
    /// of half-width `w` around `(col, row)` (as filled by
    /// [`SpatialMemory::window_ids`]): the id of every touched cell inside
    /// the window becomes [`LOCAL_ROW`]` | `its latest local row. Calls
    /// `patched(k, local_row)` for each replaced position `k`.
    pub(crate) fn overlay_ids(
        &self,
        base: &SpatialMemory,
        col: u32,
        row: u32,
        w: u32,
        ids: &mut [u32],
        mut patched: impl FnMut(usize, usize),
    ) {
        let (c0, c1, r0, r1) = base.window_bounds(col, row, w);
        let width = (c1 - c0 + 1) as usize;
        for &((c, r), at) in &self.touched {
            if (c0..=c1).contains(&c) && (r0..=r1).contains(&r) {
                let k = (r - r0) as usize * width + (c - c0) as usize;
                ids[k] = LOCAL_ROW | at;
                patched(k, at as usize);
            }
        }
    }

    /// The slot of `(col, row)` as this sequence sees it: its own pending
    /// write (in `local`, the block [`Self::record`] filled) if one
    /// exists, else the snapshot's value.
    #[cfg(test)]
    pub(crate) fn slot<'a>(
        &self,
        base: &'a SpatialMemory,
        local: &'a [f64],
        col: u32,
        row: u32,
    ) -> &'a [f64] {
        match self.touched_index(col, row) {
            Some(i) => &local[self.touched[i].1 as usize * base.dim..][..base.dim],
            None => base.slot(col, row),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_zeroed() {
        let m = SpatialMemory::new(4, 3, 2);
        assert!(m.slot(0, 0).iter().all(|v| *v == 0.0));
        assert_eq!(m.occupancy(), 0.0);
    }

    #[test]
    fn write_interpolates() {
        let mut m = SpatialMemory::new(2, 2, 2);
        m.write(1, 0, &[1.0, 0.5], &[10.0, 10.0]);
        assert_eq!(m.slot(1, 0), &[10.0, 5.0]);
        m.write(1, 0, &[0.5, 0.0], &[0.0, 99.0]);
        assert_eq!(m.slot(1, 0), &[5.0, 5.0]);
        assert_eq!(m.occupancy(), 0.25);
    }

    #[test]
    fn window_clips_at_borders() {
        let m = SpatialMemory::new(5, 4, 1);
        assert_eq!(m.window(2, 2, 1).len(), 9);
        assert_eq!(m.window(0, 0, 1).len(), 4);
        assert_eq!(m.window(4, 3, 2).len(), 9); // 3 x 3 corner clip
        assert_eq!(m.window(2, 2, 0), vec![(2, 2)]);
    }

    #[test]
    fn gather_layout_matches_window() {
        let mut m = SpatialMemory::new(3, 3, 2);
        m.write(1, 1, &[1.0, 1.0], &[7.0, 8.0]);
        let (g, k) = m.gather(0, 0, 1);
        assert_eq!(k, 4); // cells (0,0),(1,0),(0,1),(1,1)
        assert_eq!(&g[6..8], &[7.0, 8.0]); // last window cell is (1,1)
        assert!(g[..6].iter().all(|v| *v == 0.0));
    }

    #[test]
    fn reset_clears() {
        let mut m = SpatialMemory::new(2, 2, 3);
        m.write(0, 1, &[1.0; 3], &[1.0, 2.0, 3.0]);
        m.reset();
        assert_eq!(m.occupancy(), 0.0);
    }

    #[test]
    fn log_reads_see_own_writes_base_untouched() {
        let base = SpatialMemory::new(3, 3, 2);
        let mut log = WriteLog::new();
        let mut local = vec![f64::NAN; 2 * 2];
        assert_eq!(log.slot(&base, &local, 1, 1), &[0.0, 0.0]);
        log.record(&base, 1, 1, &[1.0, 0.5], &[4.0, 4.0], &mut local);
        assert_eq!(log.slot(&base, &local, 1, 1), &[4.0, 2.0]);
        assert_eq!(base.slot(1, 1), &[0.0, 0.0], "snapshot must stay frozen");
        assert_eq!(log.len(), 1);
        // Second write interpolates against the sequence's own value, like
        // the sequential writer would against the live memory — into a
        // new local row; the first one is what an earlier step read.
        log.record(&base, 1, 1, &[0.5, 0.5], &[0.0, 0.0], &mut local);
        assert_eq!(log.slot(&base, &local, 1, 1), &[2.0, 1.0]);
        assert_eq!(local, vec![4.0, 2.0, 2.0, 1.0]);
    }

    #[test]
    fn commit_replays_in_order_matching_sequential_writes() {
        let mut seq = SpatialMemory::new(3, 3, 1);
        let base = seq.clone();
        let mut log = WriteLog::new();
        let writes: [(u32, u32, f64, f64); 4] = [
            (0, 0, 0.7, 3.0),
            (1, 2, 1.0, -2.0),
            (0, 0, 0.3, 9.0),
            (2, 1, 0.5, 1.0),
        ];
        let mut local = vec![0.0; writes.len()];
        for &(c, r, w, v) in &writes {
            seq.write(c, r, &[w], &[v]);
            log.record(&base, c, r, &[w], &[v], &mut local);
        }
        let mut committed = base.clone();
        committed.commit(&log);
        assert_eq!(committed, seq, "commit must replay the exact write order");
        committed.fold();
        assert_eq!(committed, seq, "fold must keep every current value");
    }

    #[test]
    fn overlay_ids_patch_the_touched_cells_of_a_window() {
        let mut base = SpatialMemory::new(3, 3, 1);
        base.write(0, 0, &[1.0], &[1.0]);
        let mut log = WriteLog::new();
        let mut local = vec![0.0; 2];
        log.record(&base, 1, 0, &[1.0], &[7.0], &mut local);
        log.record(&base, 2, 2, &[1.0], &[9.0], &mut local); // outside the window
        let mut ids = [u32::MAX; 4];
        assert_eq!(base.window_ids(0, 0, 1, &mut ids), 4);
        // window (0,0),(1,0),(0,1),(1,1) over a 3-wide grid.
        assert_eq!(ids, [0, 1, 3, 4]);
        let mut patched = Vec::new();
        log.overlay_ids(&base, 0, 0, 1, &mut ids, |k, at| patched.push((k, at)));
        assert_eq!(ids, [0, LOCAL_ROW, 3, 4]);
        assert_eq!(patched, vec![(1, 0)]);
        log.clear();
        assert!(log.is_empty());
        log.overlay_ids(&base, 0, 0, 1, &mut ids, |_, _| {
            panic!("nothing is pending")
        });
    }

    /// The contract the id tape rests on: a commit changes no row that
    /// exists — ids taken before it still read the values they named —
    /// while every reader of *cells* sees the new values at once, with no
    /// fold in between; the fold then changes no value, only the epoch.
    #[test]
    fn commit_appends_versions_and_readers_follow_them() {
        let d = 2;
        let mut mem = SpatialMemory::new(4, 3, d);
        for (i, (c, r)) in [(0u32, 0u32), (1, 0), (2, 1), (3, 2)]
            .into_iter()
            .enumerate()
        {
            mem.write(c, r, &[1.0; 2], &[i as f64 + 1.0, -(i as f64) - 1.0]);
        }
        let mut dense = mem.clone();
        let epoch = mem.epoch();
        let mut ids = [0u32; 9];
        let k = mem.window_ids(1, 1, 1, &mut ids);
        assert_eq!(k, 9);
        let before: Vec<f64> = ids.iter().flat_map(|&i| row(&mem, i).to_vec()).collect();
        assert_eq!(before, mem.gather(1, 1, 1).0);

        // Two logs over overlapping cells, the second on top of the first.
        for round in 0..2 {
            let mut log = WriteLog::new();
            let mut local = vec![0.0; 3 * d];
            for (c, r) in [(1u32, 0u32), (2, 1), (1, 0)] {
                let (w, v) = ([0.25, 0.5], [10.0 + round as f64, -3.0]);
                log.record(&mem, c, r, &w, &v, &mut local);
                dense.write(c, r, &w, &v);
            }
            mem.commit(&log);
        }
        assert_eq!(mem.epoch(), epoch, "a commit keeps tapes alive");
        let after: Vec<f64> = ids.iter().flat_map(|&i| row(&mem, i).to_vec()).collect();
        assert_eq!(after, before, "a commit edited a row an id names");

        // Cell readers see the committed values while versions are live.
        let live = |m: &SpatialMemory| -> Vec<f64> {
            (0..3)
                .flat_map(|r| (0..4).flat_map(move |c| m.slot(c, r).to_vec()))
                .collect()
        };
        assert_eq!(live(&mem), live(&dense));
        assert_eq!(mem, dense);
        assert_eq!(mem.clone(), dense);
        assert_eq!(mem.occupancy(), dense.occupancy());
        for (c, r, w) in [(1, 1, 1), (0, 0, 2), (3, 2, 1)] {
            assert_eq!(mem.gather(c, r, w), dense.gather(c, r, w));
            let cells: Vec<f64> = mem
                .window(c, r, w)
                .iter()
                .flat_map(|&(c, r)| dense.slot(c, r).to_vec())
                .collect();
            assert_eq!(mem.gather(c, r, w).0, cells);
            let n = mem.window_ids(c, r, w, &mut ids);
            let named: Vec<f64> = ids[..n]
                .iter()
                .flat_map(|&i| row(&mem, i).to_vec())
                .collect();
            assert_eq!(named, cells);
        }

        mem.fold();
        assert_ne!(mem.epoch(), epoch, "a fold ends the tapes' epoch");
        assert_eq!(live(&mem), live(&dense));
        assert_eq!(mem.all_rows().len(), 4 * 3 * d, "version rows dropped");
        let folded = mem.epoch();
        mem.fold();
        assert_eq!(mem.epoch(), folded, "nothing to fold, nothing ended");
        mem.write(0, 0, &[0.5; 2], &[1.0; 2]);
        assert_ne!(mem.epoch(), folded, "an in-place write ends the epoch");
        let written = mem.epoch();
        mem.reset();
        assert_ne!(mem.epoch(), written);
        assert_eq!(mem.occupancy(), 0.0);
    }

    fn row(m: &SpatialMemory, id: u32) -> &[f64] {
        &m.all_rows()[id as usize * m.dim()..][..m.dim()]
    }
}
