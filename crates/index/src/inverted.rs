//! Grid-based inverted index.

use crate::SpatialIndex;
use neutraj_trajectory::{Grid, GridCell, Trajectory};
use std::collections::HashMap;

/// An inverted index from grid cells to the trajectories passing through
/// them — the "grid based inverted index" of Table V.
///
/// A query gathers the posting lists of every cell the query trajectory
/// touches, dilated by `⌈radius / cell_size⌉` cells so that any trajectory
/// whose nearest approach to the query is within `radius` shares at least
/// one dilated cell (the dilation is measured in Chebyshev cells, which
/// dominates Euclidean distance, so the candidate set is a superset).
#[derive(Debug, Clone)]
pub struct GridInvertedIndex {
    grid: Grid,
    /// Cell linear index → sorted, deduplicated posting list.
    postings: HashMap<usize, Vec<usize>>,
    len: usize,
}

impl GridInvertedIndex {
    /// Builds the index for `corpus` over `grid`.
    pub fn build(grid: Grid, corpus: &[Trajectory]) -> Self {
        let mut postings: HashMap<usize, Vec<usize>> = HashMap::new();
        let mut len = 0usize;
        for (i, t) in corpus.iter().enumerate() {
            if t.is_empty() {
                continue;
            }
            len += 1;
            let mut cells: Vec<usize> = t
                .points()
                .iter()
                .map(|p| grid.index_of(grid.cell_of(*p)))
                .collect();
            cells.sort_unstable();
            cells.dedup();
            for c in cells {
                postings.entry(c).or_default().push(i);
            }
        }
        Self {
            grid,
            postings,
            len,
        }
    }

    /// The grid the index is built over.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Candidates sharing at least one cell with the query's cell set
    /// dilated by `dilation` cells (Chebyshev).
    fn candidates_dilated(&self, query: &Trajectory, dilation: u32) -> Vec<usize> {
        let mut query_cells: Vec<GridCell> = query
            .points()
            .iter()
            .map(|p| self.grid.cell_of(*p))
            .collect();
        query_cells.sort_unstable_by_key(|c| (c.row, c.col));
        query_cells.dedup();
        let mut seen_cells: Vec<usize> = Vec::new();
        for qc in &query_cells {
            for wc in self.grid.scan_window(*qc, dilation) {
                seen_cells.push(self.grid.index_of(wc));
            }
        }
        seen_cells.sort_unstable();
        seen_cells.dedup();
        let mut out: Vec<usize> = seen_cells
            .into_iter()
            .filter_map(|c| self.postings.get(&c))
            .flatten()
            .copied()
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

impl SpatialIndex for GridInvertedIndex {
    fn candidates(&self, query: &Trajectory, radius: f64) -> Vec<usize> {
        let dilation = (radius / self.grid.cell_size()).ceil() as u32;
        self.candidates_dilated(query, dilation)
    }

    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neutraj_trajectory::{BoundingBox, Point};

    fn grid() -> Grid {
        Grid::new(BoundingBox::new(0.0, 0.0, 100.0, 100.0), 10.0).unwrap()
    }

    fn hline(id: u64, y: f64) -> Trajectory {
        Trajectory::new_unchecked(
            id,
            (0..10)
                .map(|k| Point::new(5.0 + 10.0 * k as f64, y))
                .collect(),
        )
    }

    #[test]
    fn build_and_postings() {
        let ts = vec![hline(0, 5.0), hline(1, 5.0), hline(2, 95.0)];
        let idx = GridInvertedIndex::build(grid(), &ts);
        let posting = |col, row| {
            let cell = idx.grid.index_of(GridCell::new(col, row));
            idx.postings.get(&cell).map_or(&[][..], Vec::as_slice)
        };
        assert_eq!(idx.len(), 3);
        assert_eq!(posting(0, 0), &[0, 1]);
        assert_eq!(posting(0, 9), &[2]);
        assert!(posting(0, 5).is_empty());
        assert_eq!(idx.postings.len(), 20);
    }

    #[test]
    fn zero_dilation_finds_cell_sharers() {
        let ts = vec![hline(0, 5.0), hline(1, 8.0), hline(2, 95.0)];
        let idx = GridInvertedIndex::build(grid(), &ts);
        // Lines 0 and 1 are in the same cell row; line 2 is far.
        let cands = idx.candidates_dilated(&ts[0], 0);
        assert_eq!(cands, vec![0, 1]);
    }

    #[test]
    fn dilation_expands_candidate_set() {
        let ts = vec![hline(0, 5.0), hline(1, 25.0), hline(2, 95.0)];
        let idx = GridInvertedIndex::build(grid(), &ts);
        assert_eq!(idx.candidates_dilated(&ts[0], 0), vec![0]);
        // y=25 is two cell-rows away: dilation 2 reaches it.
        assert_eq!(idx.candidates_dilated(&ts[0], 2), vec![0, 1]);
        let all = idx.candidates_dilated(&ts[0], 10);
        assert_eq!(all, vec![0, 1, 2]);
    }

    #[test]
    fn radius_based_candidates_are_superset_of_truth() {
        // Any trajectory whose true minimum point distance to the query is
        // within the radius must appear in the candidate set.
        let ts: Vec<Trajectory> = (0..10).map(|i| hline(i, 5.0 + 10.0 * i as f64)).collect();
        let idx = GridInvertedIndex::build(grid(), &ts);
        let radius = 25.0;
        let cands = idx.candidates(&ts[0], radius);
        for (i, t) in ts.iter().enumerate() {
            let min_d = t
                .points()
                .iter()
                .flat_map(|p| ts[0].points().iter().map(move |q| p.dist(q)))
                .fold(f64::INFINITY, f64::min);
            if min_d <= radius {
                assert!(
                    cands.contains(&i),
                    "lost trajectory {i} at min dist {min_d}"
                );
            }
        }
    }

    #[test]
    fn empty_trajectories_ignored() {
        let ts = vec![hline(0, 5.0), Trajectory::new_unchecked(1, vec![])];
        let idx = GridInvertedIndex::build(grid(), &ts);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.candidates_dilated(&ts[0], 10), vec![0]);
    }
}
