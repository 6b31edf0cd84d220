//! The spatial memory tensor **M** (§IV-A) and the two-phase write log.

/// A `P × Q × d` grid-cell memory: each cell of the spatial grid owns a
/// `d`-dimensional embedding that accumulates information from every
/// trajectory that passed through it.
///
/// All slots are zero-initialized ("all grid cell embeddings are
/// initialized with 0 before training", §IV-A). The *writer* updates a
/// slot as a gated interpolation; the *reader* gathers the `(2w+1)²` scan
/// window around a cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialMemory {
    cols: usize,
    rows: usize,
    dim: usize,
    data: Vec<f64>,
}

impl SpatialMemory {
    /// Creates a zeroed memory for a `cols × rows` grid with `dim`-sized
    /// slots.
    pub fn new(cols: usize, rows: usize, dim: usize) -> Self {
        assert!(cols > 0 && rows > 0 && dim > 0, "degenerate memory shape");
        Self {
            cols,
            rows,
            dim,
            data: vec![0.0; cols * rows * dim],
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

    /// Zeroes every slot (fresh training run).
    pub fn reset(&mut self) {
        self.data.fill(0.0);
    }

    #[inline]
    fn offset(&self, col: u32, row: u32) -> usize {
        debug_assert!((col as usize) < self.cols && (row as usize) < self.rows);
        (row as usize * self.cols + col as usize) * self.dim
    }

    /// The embedding slot of cell `(col, row)`.
    #[inline]
    pub fn slot(&self, col: u32, row: u32) -> &[f64] {
        let o = self.offset(col, row);
        &self.data[o..o + self.dim]
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

    /// Gathers the window slots into a flat `K × dim` row-major buffer
    /// (the matrix `G_t` of §IV-C.1). Returns the buffer and `K`.
    pub fn gather(&self, col: u32, row: u32, w: u32) -> (Vec<f64>, usize) {
        let mut g = Vec::new();
        let k = self.gather_append(col, row, w, &mut g);
        (g, k)
    }

    /// The window of half-width `w` around `(col, row)` as it lies in
    /// memory: one contiguous run of `(c1 − c0 + 1)·dim` values per grid
    /// row, top to bottom — concatenated, the `K × dim` matrix `G_t` in
    /// the row-major cell order of [`Self::window`]. The read-only forward
    /// scores these runs where they are instead of copying them out.
    pub fn window_runs(
        &self,
        col: u32,
        row: u32,
        w: u32,
    ) -> impl Iterator<Item = &[f64]> + Clone + '_ {
        let (c0, c1, r0, r1) = self.window_bounds(col, row, w);
        (r0..=r1).map(move |r| &self.data[self.offset(c0, r)..self.offset(c1, r) + self.dim])
    }

    /// [`Self::gather`] into a caller-provided buffer (appended, not
    /// cleared — the SAM cache packs all steps of a sequence into one flat
    /// allocation). Returns `K`.
    pub fn gather_append(&self, col: u32, row: u32, w: u32, out: &mut Vec<f64>) -> usize {
        let before = out.len();
        for run in self.window_runs(col, row, w) {
            out.extend_from_slice(run);
        }
        (out.len() - before) / self.dim
    }

    /// The writer (§IV-C.2): `M(cell) ← w ⊙ value + (1 - w) ⊙ M(cell)`
    /// with a per-dimension interpolation weight `w ∈ [0, 1]`.
    pub fn write(&mut self, col: u32, row: u32, weight: &[f64], value: &[f64]) {
        assert_eq!(weight.len(), self.dim, "write weight arity");
        assert_eq!(value.len(), self.dim, "write value arity");
        let o = self.offset(col, row);
        let slot = &mut self.data[o..o + self.dim];
        for k in 0..self.dim {
            debug_assert!((0.0..=1.0).contains(&weight[k]), "weight out of range");
            slot[k] = weight[k] * value[k] + (1.0 - weight[k]) * slot[k];
        }
    }

    /// Phase B of the two-phase training protocol: replays a sequence's
    /// buffered writes against this memory, in the exact order they were
    /// recorded. Committing the logs of a batch in input order reproduces
    /// the write order of a fully sequential pass over that batch.
    pub fn commit(&mut self, log: &WriteLog) {
        let d = self.dim;
        for (i, &(col, row)) in log.cells.iter().enumerate() {
            let at = i * d..(i + 1) * d;
            self.write(col, row, &log.weights[at.clone()], &log.values[at]);
        }
    }

    /// Fraction of slots that have been written to (any non-zero entry).
    /// Useful diagnostics for how much of the city the training data covers.
    pub fn occupancy(&self) -> f64 {
        let total = self.cols * self.rows;
        let occupied = (0..total)
            .filter(|i| {
                self.data[i * self.dim..(i + 1) * self.dim]
                    .iter()
                    .any(|v| *v != 0.0)
            })
            .count();
        occupied as f64 / total as f64
    }
}

/// Pending memory writes of one sequence — phase A of the two-phase
/// training protocol.
///
/// During the parallel phase every sequence runs against an immutable
/// snapshot of the spatial memory and records its writes here instead of
/// mutating the shared tensor. Reads *through* the log
/// ([`Self::slot`], [`Self::gather_append`]) see the sequence's own
/// pending writes overlaid on the snapshot, so a buffered forward is
/// bit-identical to a sequential training forward started from the same
/// memory state. Phase B replays the logs in fixed input order via
/// [`SpatialMemory::commit`], preserving the deterministic write order.
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
    /// order. A sequence touches a handful of cells, so this is searched
    /// linearly (newest first: a trajectory lingers).
    touched: Vec<(u32, u32)>,
    /// Current local value of every touched cell, `touched.len() × dim`.
    overlay: Vec<f64>,
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
        self.overlay.clear();
    }

    /// Buffers the gated write `slot ← w ⊙ value + (1 - w) ⊙ slot` against
    /// `base`, keeping the sequence-local slot value readable through
    /// [`Self::slot`].
    pub fn record(
        &mut self,
        base: &SpatialMemory,
        col: u32,
        row: u32,
        weight: &[f64],
        value: &[f64],
    ) {
        let d = base.dim;
        assert_eq!(weight.len(), d, "write weight arity");
        assert_eq!(value.len(), d, "write value arity");
        let at = self.touched_index(col, row).unwrap_or_else(|| {
            self.touched.push((col, row));
            self.overlay.extend_from_slice(base.slot(col, row));
            self.touched.len() - 1
        });
        let slot = &mut self.overlay[at * d..(at + 1) * d];
        for k in 0..d {
            debug_assert!((0.0..=1.0).contains(&weight[k]), "weight out of range");
            slot[k] = weight[k] * value[k] + (1.0 - weight[k]) * slot[k];
        }
        self.cells.push((col, row));
        self.weights.extend_from_slice(weight);
        self.values.extend_from_slice(value);
    }

    fn touched_index(&self, col: u32, row: u32) -> Option<usize> {
        self.touched.iter().rposition(|&cell| cell == (col, row))
    }

    /// The slot of `(col, row)` as this sequence sees it: its own pending
    /// write if one exists, else the snapshot's value.
    pub fn slot<'a>(&'a self, base: &'a SpatialMemory, col: u32, row: u32) -> &'a [f64] {
        match self.touched_index(col, row) {
            Some(at) => &self.overlay[at * base.dim..(at + 1) * base.dim],
            None => base.slot(col, row),
        }
    }

    /// [`SpatialMemory::gather_append`] reading through the overlay: the
    /// snapshot's window, then one pass over the touched cells that fall
    /// inside it.
    pub fn gather_append(
        &self,
        base: &SpatialMemory,
        col: u32,
        row: u32,
        w: u32,
        out: &mut Vec<f64>,
    ) -> usize {
        let d = base.dim;
        let before = out.len();
        let k = base.gather_append(col, row, w, out);
        let (c0, c1, r0, r1) = base.window_bounds(col, row, w);
        let width = (c1 - c0 + 1) as usize;
        for (at, &(c, r)) in self.touched.iter().enumerate() {
            if (c0..=c1).contains(&c) && (r0..=r1).contains(&r) {
                let ki = (r - r0) as usize * width + (c - c0) as usize;
                out[before + ki * d..before + (ki + 1) * d]
                    .copy_from_slice(&self.overlay[at * d..(at + 1) * d]);
            }
        }
        k
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
    fn gather_append_does_not_clear() {
        let mut m = SpatialMemory::new(3, 3, 1);
        m.write(0, 0, &[1.0], &[5.0]);
        let mut buf = vec![-1.0];
        let k = m.gather_append(0, 0, 0, &mut buf);
        assert_eq!(k, 1);
        assert_eq!(buf, vec![-1.0, 5.0]);
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
        assert_eq!(log.slot(&base, 1, 1), &[0.0, 0.0]);
        log.record(&base, 1, 1, &[1.0, 0.5], &[4.0, 4.0]);
        assert_eq!(log.slot(&base, 1, 1), &[4.0, 2.0]);
        assert_eq!(base.slot(1, 1), &[0.0, 0.0], "snapshot must stay frozen");
        assert_eq!(log.len(), 1);
        // Second write interpolates against the overlay, like the
        // sequential writer would against the live memory.
        log.record(&base, 1, 1, &[0.5, 0.5], &[0.0, 0.0]);
        assert_eq!(log.slot(&base, 1, 1), &[2.0, 1.0]);
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
        for &(c, r, w, v) in &writes {
            seq.write(c, r, &[w], &[v]);
            log.record(&base, c, r, &[w], &[v]);
        }
        let mut committed = base.clone();
        committed.commit(&log);
        assert_eq!(committed, seq, "commit must replay the exact write order");
    }

    #[test]
    fn log_gather_overlays_window() {
        let mut base = SpatialMemory::new(3, 3, 1);
        base.write(0, 0, &[1.0], &[1.0]);
        let mut log = WriteLog::new();
        log.record(&base, 1, 0, &[1.0], &[7.0]);
        let mut g = Vec::new();
        let k = log.gather_append(&base, 0, 0, 1, &mut g);
        assert_eq!(k, 4);
        // window (0,0),(1,0),(0,1),(1,1): base value, overlaid, base, base.
        assert_eq!(g, vec![1.0, 7.0, 0.0, 0.0]);
        log.clear();
        assert!(log.is_empty());
        let mut g2 = Vec::new();
        log.gather_append(&base, 0, 0, 1, &mut g2);
        assert_eq!(g2, vec![1.0, 0.0, 0.0, 0.0]);
    }
}
