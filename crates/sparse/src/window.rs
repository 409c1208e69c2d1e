//! Row-window partitioning with column condensing.
//!
//! HC-SpMM's hybrid unit (§IV-A) is the *row window*: 16 consecutive rows of
//! the adjacency matrix. Within a window, the non-zero columns are moved to
//! the front (TC-GNN-style condensing), so Tensor cores only traverse
//! `ceil(nnz_cols / 8)` 16×8 tiles while CUDA cores read the original CSR
//! entries directly. Both views of a window describe the same values, so no
//! result merging is needed.
//!
//! ## Construction
//!
//! Condensing a window makes one pass over its entries. Each column id goes
//! through an open-addressing set that numbers the window's distinct
//! columns in first-seen order (a *slot*), and the entry records its slot.
//! Only the distinct columns are then sorted; the sort turns each slot into
//! its condensed index, and each entry finds its index by two array lookups,
//! with no search. [`TileMeta`]'s encoder receives the sorted columns and
//! the `(row, condensed index)` bits and allocates the bitmaps and the
//! column stream once each, at their exact sizes. Those two buffers are the
//! only allocations a non-empty window makes: the set and the per-entry
//! arrays are scratch that one worker reuses for every window it condenses.
//! The scratch is sized by the largest window's entries, never by the
//! matrix's column count, and is dropped when the build returns.

use crate::csr::Csr;
use crate::tile::TileMeta;

/// Rows per row window, fixed by the WMMA m-dimension (§IV-A).
pub const WINDOW_ROWS: usize = 16;

/// One condensed row window. The condensed structure (distinct columns +
/// per-entry condensed indices) is held in compressed form — occupancy
/// bitmaps plus a delta-varint column stream ([`TileMeta`]) — which is the
/// canonical representation kernels and cost models consume directly; the
/// old dense `unique_cols`/`cond_idx` vectors are recoverable views, not
/// stored state.
#[derive(Debug, Clone, PartialEq)]
pub struct RowWindow {
    /// First row of the window in the parent matrix.
    pub start_row: usize,
    /// Rows covered (equal to `WINDOW_ROWS` except possibly the last).
    pub rows: usize,
    /// Non-zero count within the window.
    pub nnz: usize,
    /// Compressed tile metadata: occupancy bitmaps + column stream.
    pub meta: TileMeta,
}

impl RowWindow {
    /// Number of non-zero columns — one of the two selection features.
    pub fn nnz_cols(&self) -> usize {
        self.meta.nnz_cols()
    }

    /// Decode the sorted distinct columns (the old `unique_cols` view).
    /// Allocates; format converters use it, hot paths walk
    /// [`TileMeta::row_cond_indices`] instead.
    pub fn unique_cols(&self) -> Vec<u32> {
        self.meta.decode_cols()
    }

    /// Bytes of the window's device-format metadata encoding — what the
    /// condense step writes back and the tensor A-conversion loads.
    pub fn meta_bytes(&self) -> usize {
        self.meta.encoded_bytes()
    }

    /// Sparsity of the condensed window: fraction of zeros inside the
    /// `rows × nnz_cols` region actually traversed by the Tensor cores —
    /// the other selection feature (§IV-B).
    pub fn sparsity(&self) -> f64 {
        let cells = self.rows * self.nnz_cols();
        if cells == 0 {
            return 1.0;
        }
        1.0 - self.nnz as f64 / cells as f64
    }

    /// Computing intensity = #nonzero elements / #nonzero columns (Eq. 5);
    /// the objective LOA maximizes.
    pub fn computing_intensity(&self) -> f64 {
        if self.nnz_cols() == 0 {
            return 0.0;
        }
        self.nnz as f64 / self.nnz_cols() as f64
    }

    /// Number of `rows × tile_k` tiles the Tensor cores traverse.
    pub fn num_tiles(&self, tile_k: usize) -> usize {
        self.nnz_cols().div_ceil(tile_k)
    }

    /// Whether the window holds no edges at all.
    pub fn is_empty(&self) -> bool {
        self.nnz == 0
    }

    /// Condense the window covering rows `[start, start + rows)` of `a`.
    /// This is the single source of truth for window construction: the
    /// full partition build and the dynamic-graph patch path (which
    /// re-condenses only windows whose rows a delta touched) both condense
    /// through the same code (see the module docs), so a patched window is
    /// bit-identical to a freshly built one. A call condenses one window
    /// with scratch of its own; [`RowWindowPartition::build_with_rows`]
    /// reuses one scratch across all the windows a worker condenses.
    pub fn build(a: &Csr, start: usize, rows: usize) -> RowWindow {
        Condenser::default().window(a, start, rows)
    }
}

/// An empty cell of [`Condenser::table`]. A live cell holds
/// `col << 32 | slot` with `slot < u32::MAX` (a window holds fewer entries
/// than that), so no live cell equals it.
const EMPTY: u64 = u64::MAX;

/// Scratch for condensing row windows (see the module docs), reused across
/// the windows one worker condenses. Every buffer is sized by one window's
/// entries, never by the matrix's column count.
#[derive(Default)]
struct Condenser {
    /// Open-addressing set of the window's distinct columns, at load at
    /// most ½: each cell is [`EMPTY`] or `col << 32 | slot`, where `slot`
    /// numbers the distinct columns in first-seen order.
    table: Vec<u64>,
    /// The slot of each entry's column, in CSR entry order.
    entry_slot: Vec<u32>,
    /// The distinct columns as `col << 32 | slot`; sorted, they run in
    /// column order.
    distinct: Vec<u64>,
    /// The condensed index of each slot.
    cond_of_slot: Vec<u32>,
}

impl Condenser {
    /// Condense rows `[start, start + rows)` of `a`.
    fn window(&mut self, a: &Csr, start: usize, rows: usize) -> RowWindow {
        let lo = a.row_ptr[start] as usize;
        let hi = a.row_ptr[start + rows] as usize;
        self.number_distinct(&a.col_idx[lo..hi]);

        // Sorting the distinct columns ranks each slot.
        self.distinct.sort_unstable();
        self.cond_of_slot.clear();
        self.cond_of_slot.resize(self.distinct.len(), 0);
        for (cond, &cell) in self.distinct.iter().enumerate() {
            self.cond_of_slot[cell as u32 as usize] = cond as u32;
        }

        let (entry_slot, cond_of_slot) = (&self.entry_slot, &self.cond_of_slot);
        let entries = (0..rows).flat_map(|r| {
            let rlo = a.row_ptr[start + r] as usize - lo;
            let rhi = a.row_ptr[start + r + 1] as usize - lo;
            entry_slot[rlo..rhi]
                .iter()
                .map(move |&slot| (r, cond_of_slot[slot as usize] as usize))
        });
        let unique_cols = self.distinct.iter().map(|&cell| (cell >> 32) as u32);
        RowWindow {
            start_row: start,
            rows,
            nnz: hi - lo,
            meta: TileMeta::encode_from(rows, unique_cols, entries),
        }
    }

    /// Fill `entry_slot` and `distinct` (unsorted) for one window's
    /// column ids.
    fn number_distinct(&mut self, cols: &[u32]) {
        self.entry_slot.clear();
        self.distinct.clear();
        if cols.is_empty() {
            return;
        }
        self.entry_slot.reserve(cols.len());
        self.distinct.reserve(cols.len());
        // Only the prefix this window needs is cleared, so a large window
        // early in the build does not make every later window pay for it.
        let cap = (2 * cols.len()).next_power_of_two();
        if self.table.len() < cap {
            self.table.resize(cap, EMPTY);
        }
        let table = &mut self.table[..cap];
        table.fill(EMPTY);
        let shift = 64 - cap.trailing_zeros();
        for &c in cols {
            // Fibonacci hashing: the product's top bits pick the cell.
            let mut h = (u64::from(c).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> shift) as usize;
            loop {
                let cell = table[h];
                if cell == EMPTY {
                    let slot = self.distinct.len() as u32;
                    let cell = u64::from(c) << 32 | u64::from(slot);
                    table[h] = cell;
                    self.distinct.push(cell);
                    self.entry_slot.push(slot);
                    break;
                }
                if (cell >> 32) as u32 == c {
                    self.entry_slot.push(cell as u32);
                    break;
                }
                h = (h + 1) & (cap - 1);
            }
        }
    }
}

/// A full partition of a CSR matrix into condensed row windows.
#[derive(Debug, Clone, PartialEq)]
pub struct RowWindowPartition {
    /// The windows, in row order.
    pub windows: Vec<RowWindow>,
    /// Rows per window used to build the partition.
    pub window_rows: usize,
}

impl RowWindowPartition {
    /// Partition `a` into windows of [`WINDOW_ROWS`] rows.
    pub fn build(a: &Csr) -> Self {
        Self::build_with_rows(a, WINDOW_ROWS)
    }

    /// Partition with a custom window height (characterization experiments
    /// use 16×32 synthetic windows). Windows are independent, so large
    /// matrices are condensed on the `hc-parallel` pool, each worker with
    /// one scratch for all its windows; the output is deterministic
    /// regardless of thread count (window `w` is always built from rows
    /// `[w·h, (w+1)·h)` with the same serial logic, and no window reads
    /// what an earlier one left in the scratch).
    pub fn build_with_rows(a: &Csr, window_rows: usize) -> Self {
        assert!(window_rows > 0);
        let n_windows = a.nrows.div_ceil(window_rows);

        // Work hint: each entry is hashed once and looked up once; the
        // sort of the distinct columns folds into the constant.
        let work = 2 * a.nnz() as u64 + n_windows as u64;
        let windows =
            hc_parallel::par_map_indexed_init(n_windows, work, Condenser::default, |c, w| {
                let start = w * window_rows;
                c.window(a, start, window_rows.min(a.nrows - start))
            });

        RowWindowPartition {
            windows,
            window_rows,
        }
    }

    /// Number of windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// True when the partition covers an empty matrix.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Entry range `[lo, hi)` of window `w` in the parent CSR arrays.
    pub fn entry_range(&self, a: &Csr, w: usize) -> (usize, usize) {
        let win = &self.windows[w];
        (
            a.row_ptr[win.start_row] as usize,
            a.row_ptr[win.start_row + win.rows] as usize,
        )
    }

    /// Mean computing intensity across non-empty windows (LOA's global
    /// objective, reported by Fig. 15-style analyses).
    pub fn mean_computing_intensity(&self) -> f64 {
        let live: Vec<&RowWindow> = self.windows.iter().filter(|w| !w.is_empty()).collect();
        if live.is_empty() {
            return 0.0;
        }
        live.iter().map(|w| w.computing_intensity()).sum::<f64>() / live.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    fn banded(n: usize, band: usize) -> Csr {
        let mut coo = Coo::new(n, n);
        for r in 0..n {
            for d in 0..band {
                let c = (r + d) % n;
                coo.push(r as u32, c as u32, 1.0);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn covers_all_rows() {
        let a = banded(40, 3);
        let p = RowWindowPartition::build(&a);
        assert_eq!(p.len(), 3); // 16 + 16 + 8
        assert_eq!(p.windows[2].rows, 8);
        let total_rows: usize = p.windows.iter().map(|w| w.rows).sum();
        assert_eq!(total_rows, 40);
        let total_nnz: usize = p.windows.iter().map(|w| w.nnz).sum();
        assert_eq!(total_nnz, a.nnz());
    }

    #[test]
    fn condensed_indices_point_at_right_columns() {
        let a = banded(32, 4);
        let p = RowWindowPartition::build(&a);
        for (wi, w) in p.windows.iter().enumerate() {
            let (lo, hi) = p.entry_range(&a, wi);
            let cols = w.unique_cols();
            // The row-by-row bitmap walk must reproduce the CSR entry
            // order exactly (rows ascend; columns ascend within a row).
            let cond: Vec<u32> = (0..w.rows)
                .flat_map(|r| w.meta.row_cond_indices(r))
                .collect();
            assert_eq!(cond.len(), hi - lo);
            for (e, &ci) in (lo..hi).zip(&cond) {
                assert_eq!(cols[ci as usize], a.col_idx[e]);
            }
        }
    }

    #[test]
    fn dense_window_features() {
        // A fully dense 16×16 block: sparsity 0, intensity 16.
        let mut coo = Coo::new(16, 16);
        for r in 0..16 {
            for c in 0..16 {
                coo.push(r, c, 1.0);
            }
        }
        let p = RowWindowPartition::build(&coo.to_csr());
        let w = &p.windows[0];
        assert_eq!(w.nnz_cols(), 16);
        assert_eq!(w.sparsity(), 0.0);
        assert_eq!(w.computing_intensity(), 16.0);
        assert_eq!(w.num_tiles(8), 2);
    }

    #[test]
    fn diagonal_window_features() {
        // Identity: each window has 16 nnz over 16 distinct columns.
        let p = RowWindowPartition::build(&Csr::identity(16));
        let w = &p.windows[0];
        assert_eq!(w.nnz_cols(), 16);
        assert!((w.sparsity() - (1.0 - 16.0 / 256.0)).abs() < 1e-12);
        assert_eq!(w.computing_intensity(), 1.0);
    }

    #[test]
    fn empty_window_is_degenerate() {
        let p = RowWindowPartition::build(&Csr::empty(16, 16));
        let w = &p.windows[0];
        assert!(w.is_empty());
        assert_eq!(w.sparsity(), 1.0);
        assert_eq!(w.computing_intensity(), 0.0);
        assert_eq!(w.num_tiles(8), 0);
    }

    #[test]
    fn parallel_build_matches_sequential() {
        // Above the threshold the build runs threaded; the result must be
        // identical to a window-by-window sequential construction.
        let a = crate::gen::barabasi_albert(16 * 5000, 2, 9);
        let parallel = RowWindowPartition::build(&a);
        assert_eq!(parallel.len(), 5000);
        // Sequential reference via the small-path (build per 16-row slice).
        for probe in [0usize, 1, 2499, 4999] {
            let start = probe * 16;
            let rows = 16.min(a.nrows - start);
            let lo = a.row_ptr[start] as usize;
            let hi = a.row_ptr[start + rows] as usize;
            let mut cols: Vec<u32> = a.col_idx[lo..hi].to_vec();
            cols.sort_unstable();
            cols.dedup();
            assert_eq!(parallel.windows[probe].unique_cols(), cols);
            assert_eq!(parallel.windows[probe].nnz, hi - lo);
        }
    }

    #[test]
    fn custom_window_height() {
        let a = banded(64, 2);
        let p = RowWindowPartition::build_with_rows(&a, 32);
        assert_eq!(p.len(), 2);
        assert_eq!(p.windows[0].rows, 32);
    }

    #[test]
    fn condensing_shrinks_traversal() {
        // One row window touching columns {0, 1000, 2000}: condensed width 3.
        let coo = Coo::from_triples(16, 4096, [(0, 0, 1.0), (5, 1000, 1.0), (9, 2000, 1.0)]);
        let p = RowWindowPartition::build(&coo.to_csr());
        assert_eq!(p.windows[0].nnz_cols(), 3);
        assert_eq!(p.windows[0].num_tiles(8), 1);
    }
}
