//! Spatial grid discretization.
//!
//! The paper partitions the city-centre extent into `50 m × 50 m` cells and
//! maps every trajectory `T = [X₁ᶜ, ...]` into a cell sequence
//! `Tᵍ = [X₁ᵍ, ...]` (§IV-A). The grid also fixes the `P × Q` shape of the
//! spatial attention memory tensor.

use crate::{BoundingBox, Point, Result, TrajError, Trajectory};

/// A cell coordinate `(col, row)` within a [`Grid`].
///
/// `col` indexes the x axis (`0..P`), `row` the y axis (`0..Q`), matching
/// the paper's `Xᵍ = (xᵍ, yᵍ)` notation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridCell {
    /// Column index along x, in `0..P`.
    pub col: u32,
    /// Row index along y, in `0..Q`.
    pub row: u32,
}

impl GridCell {
    /// Creates a cell coordinate.
    pub const fn new(col: u32, row: u32) -> Self {
        Self { col, row }
    }
}

/// A uniform `P × Q` grid over a rectangular extent.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    extent: BoundingBox,
    cell_size: f64,
    cols: u32,
    rows: u32,
}

impl Grid {
    /// Builds a grid covering `extent` with square cells of side
    /// `cell_size` (same length unit as the coordinates, metres by
    /// convention). The extent must be non-empty and the cell size
    /// strictly positive.
    pub fn new(extent: BoundingBox, cell_size: f64) -> Result<Self> {
        if extent.is_empty() {
            return Err(TrajError::InvalidGrid("empty extent".into()));
        }
        if cell_size <= 0.0 || cell_size.is_nan() || !cell_size.is_finite() {
            return Err(TrajError::InvalidGrid(format!(
                "cell size must be positive and finite, got {cell_size}"
            )));
        }
        let cols = (extent.width() / cell_size).ceil().max(1.0) as u32;
        let rows = (extent.height() / cell_size).ceil().max(1.0) as u32;
        if cols as u64 * rows as u64 > 100_000_000 {
            return Err(TrajError::InvalidGrid(format!(
                "grid too large: {cols} x {rows} cells"
            )));
        }
        Ok(Self {
            extent,
            cell_size,
            cols,
            rows,
        })
    }

    /// Grid sized to cover every trajectory in `corpus`, inflated by one
    /// cell of margin so border points never land outside.
    pub fn covering(corpus: &[Trajectory], cell_size: f64) -> Result<Self> {
        let mut bb = BoundingBox::EMPTY;
        for t in corpus {
            bb = bb.union(&t.mbr());
        }
        if bb.is_empty() {
            return Err(TrajError::InvalidGrid(
                "cannot build a grid over an empty corpus".into(),
            ));
        }
        Self::new(bb.inflated(cell_size), cell_size)
    }

    /// Number of columns `P`.
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Number of rows `Q`.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Total number of cells `P × Q`.
    pub fn num_cells(&self) -> usize {
        self.cols as usize * self.rows as usize
    }

    /// Side length of one (square) cell.
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    /// The covered extent.
    pub fn extent(&self) -> &BoundingBox {
        &self.extent
    }

    /// Maps a point to its cell, clamping points outside the extent onto
    /// the border cells.
    pub fn cell_of(&self, p: Point) -> GridCell {
        let col = ((p.x - self.extent.min_x) / self.cell_size)
            .floor()
            .clamp(0.0, (self.cols - 1) as f64) as u32;
        let row = ((p.y - self.extent.min_y) / self.cell_size)
            .floor()
            .clamp(0.0, (self.rows - 1) as f64) as u32;
        GridCell::new(col, row)
    }

    /// Flattens a cell to a linear index in `0..num_cells()` (row-major).
    pub fn index_of(&self, c: GridCell) -> usize {
        debug_assert!(c.col < self.cols && c.row < self.rows);
        c.row as usize * self.cols as usize + c.col as usize
    }

    /// Centre point of a cell, in coordinate space.
    pub fn cell_center(&self, c: GridCell) -> Point {
        Point::new(
            self.extent.min_x + (c.col as f64 + 0.5) * self.cell_size,
            self.extent.min_y + (c.row as f64 + 0.5) * self.cell_size,
        )
    }

    /// A point expressed in *grid units*: `(x - min_x)/cell_size`.
    pub fn to_grid_units(&self, p: Point) -> (f32, f32) {
        (
            ((p.x - self.extent.min_x) / self.cell_size) as f32,
            ((p.y - self.extent.min_y) / self.cell_size) as f32,
        )
    }

    /// Returns a copy of `t` with coordinates rescaled to grid units
    /// (useful to compute ground-truth distances on the same scale as the
    /// learned embedding distances).
    pub fn rescale_trajectory(&self, t: &Trajectory) -> Trajectory {
        t.map_points(|p| {
            Point::new(
                (p.x - self.extent.min_x) / self.cell_size,
                (p.y - self.extent.min_y) / self.cell_size,
            )
        })
    }

    /// All cells within Chebyshev distance `w` of `center`, clipped to the
    /// grid; this is the SAM scan window `scan(xᵍ) × scan(yᵍ)` of §IV-C.
    /// The window is produced in row-major order and has at most
    /// `(2w+1)²` entries.
    pub fn scan_window(&self, center: GridCell, w: u32) -> Vec<GridCell> {
        let c0 = center.col.saturating_sub(w);
        let c1 = center.col.saturating_add(w).min(self.cols - 1);
        let r0 = center.row.saturating_sub(w);
        let r1 = center.row.saturating_add(w).min(self.rows - 1);
        let mut out = Vec::with_capacity(((c1 - c0 + 1) * (r1 - r0 + 1)) as usize);
        for row in r0..=r1 {
            for col in c0..=c1 {
                out.push(GridCell::new(col, row));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_10x5() -> Grid {
        Grid::new(BoundingBox::new(0.0, 0.0, 100.0, 50.0), 10.0).unwrap()
    }

    #[test]
    fn dimensions() {
        let g = grid_10x5();
        assert_eq!(g.cols(), 10);
        assert_eq!(g.rows(), 5);
        assert_eq!(g.num_cells(), 50);
    }

    #[test]
    fn invalid_grids_rejected() {
        assert!(Grid::new(BoundingBox::EMPTY, 10.0).is_err());
        assert!(Grid::new(BoundingBox::new(0.0, 0.0, 1.0, 1.0), 0.0).is_err());
        assert!(Grid::new(BoundingBox::new(0.0, 0.0, 1.0, 1.0), -1.0).is_err());
        assert!(Grid::new(BoundingBox::new(0.0, 0.0, 1.0, 1.0), f64::NAN).is_err());
        // absurdly fine grid over a huge extent
        assert!(Grid::new(BoundingBox::new(0.0, 0.0, 1e9, 1e9), 0.01).is_err());
    }

    #[test]
    fn cell_mapping_and_clamping() {
        let g = grid_10x5();
        assert_eq!(g.cell_of(Point::new(0.0, 0.0)), GridCell::new(0, 0));
        assert_eq!(g.cell_of(Point::new(15.0, 25.0)), GridCell::new(1, 2));
        // outside points clamp to borders
        assert_eq!(g.cell_of(Point::new(-5.0, 500.0)), GridCell::new(0, 4));
        assert_eq!(g.cell_of(Point::new(1e6, -1.0)), GridCell::new(9, 0));
    }

    fn cells(g: &Grid) -> impl Iterator<Item = GridCell> + '_ {
        (0..g.rows()).flat_map(|row| (0..g.cols()).map(move |col| GridCell::new(col, row)))
    }

    #[test]
    fn index_roundtrip() {
        let g = grid_10x5();
        let indices: Vec<usize> = cells(&g).map(|c| g.index_of(c)).collect();
        assert_eq!(indices, (0..g.num_cells()).collect::<Vec<_>>());
    }

    #[test]
    fn cell_center_maps_back() {
        let g = grid_10x5();
        for c in cells(&g) {
            assert_eq!(g.cell_of(g.cell_center(c)), c);
        }
    }

    #[test]
    fn grid_units() {
        let g = grid_10x5();
        let (x, y) = g.to_grid_units(Point::new(25.0, 10.0));
        assert_eq!((x, y), (2.5, 1.0));
    }

    #[test]
    fn scan_window_interior_and_border() {
        let g = grid_10x5();
        let win = g.scan_window(GridCell::new(5, 2), 2);
        assert_eq!(win.len(), 25);
        assert!(win
            .iter()
            .all(|c| c.col.abs_diff(5) <= 2 && c.row.abs_diff(2) <= 2));
        // corner clips
        let win = g.scan_window(GridCell::new(0, 0), 2);
        assert_eq!(win.len(), 9); // 3 x 3
        let win = g.scan_window(GridCell::new(9, 4), 1);
        assert_eq!(win.len(), 4); // 2 x 2
                                  // w = 0 is just the cell itself
        assert_eq!(
            g.scan_window(GridCell::new(3, 3), 0),
            vec![GridCell::new(3, 3)]
        );
        // a window wider than the address space clips to the whole grid
        assert_eq!(g.scan_window(GridCell::new(5, 2), u32::MAX).len(), 50);
    }

    #[test]
    fn covering_grid_contains_all_points() {
        let ts = vec![
            Trajectory::new_unchecked(0, vec![Point::new(-3.0, 2.0), Point::new(8.0, 9.0)]),
            Trajectory::new_unchecked(1, vec![Point::new(0.0, -7.0), Point::new(1.0, 1.0)]),
        ];
        let g = Grid::covering(&ts, 1.0).unwrap();
        for t in &ts {
            for p in t.points() {
                assert!(g.extent().contains(*p));
            }
        }
    }

    #[test]
    fn rescale_matches_grid_units() {
        let g = grid_10x5();
        let t = Trajectory::new_unchecked(0, vec![Point::new(25.0, 10.0)]);
        let r = g.rescale_trajectory(&t);
        assert_eq!(r.points()[0], Point::new(2.5, 1.0));
    }
}
