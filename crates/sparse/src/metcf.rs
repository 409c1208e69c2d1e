//! ME-TCF — the Memory-Efficient Tensor-Core Format of DTC-SpMM (Fan et
//! al., ASPLOS'24), rebuilt as a real data structure.
//!
//! Per condensed row window, non-zero columns are grouped into tiles of
//! `TILE_K` and every entry is packed to one byte of position (4 bits of
//! row-in-window, 3 bits of column-in-tile) plus its value; tiles index a
//! shared entry array. Compared with keeping CSR plus per-entry u32
//! condensed indices, this is what makes the format "memory-efficient" —
//! [`MeTcf::byte_size`] quantifies it.

use crate::csr::Csr;
use crate::dense::DenseMatrix;
use crate::window::RowWindowPartition;

/// Columns per tensor-core tile (TF32 WMMA K-dimension).
pub const TILE_K: usize = 8;

/// One 16×8 tile's metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileDesc {
    /// Range of this tile's entries in the packed arrays.
    pub entry_start: u32,
    /// Exclusive end of the entry range.
    pub entry_end: u32,
    /// First of the tile's (up to `TILE_K`) columns in `tile_cols`.
    pub col_start: u32,
    /// Number of live columns (< `TILE_K` only in a window's last tile).
    pub col_count: u8,
}

/// One row window in ME-TCF.
#[derive(Debug, Clone, PartialEq)]
pub struct MeTcfWindow {
    /// First matrix row covered.
    pub start_row: u32,
    /// Rows covered (≤ 16).
    pub rows: u8,
    /// Range of this window's tiles in `tiles`.
    pub tile_start: u32,
    /// Exclusive end of the tile range.
    pub tile_end: u32,
}

/// The full ME-TCF matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct MeTcf {
    /// Number of matrix rows.
    pub nrows: usize,
    /// Number of matrix columns.
    pub ncols: usize,
    /// Row windows.
    pub windows: Vec<MeTcfWindow>,
    /// Tile descriptors, grouped by window.
    pub tiles: Vec<TileDesc>,
    /// Original column id per condensed tile column.
    pub tile_cols: Vec<u32>,
    /// Packed entry positions: `row_in_window << 3 | col_in_tile`.
    pub entry_pos: Vec<u8>,
    /// Entry values, parallel to `entry_pos`.
    pub entry_vals: Vec<f32>,
}

impl MeTcf {
    /// Convert a CSR matrix (16-row windows, condensed columns).
    pub fn from_csr(a: &Csr) -> MeTcf {
        let part = RowWindowPartition::build(a);
        let mut out = MeTcf {
            nrows: a.nrows,
            ncols: a.ncols,
            windows: Vec::with_capacity(part.len()),
            tiles: Vec::new(),
            tile_cols: Vec::new(),
            entry_pos: Vec::new(),
            entry_vals: Vec::new(),
        };
        for w in &part.windows {
            let tile_start = out.tiles.len() as u32;
            let n_tiles = w.nnz_cols().div_ceil(TILE_K);
            // Bucket entries by tile, preserving CSR order within a tile so
            // the format stays deterministic.
            let mut per_tile: Vec<Vec<(u8, f32)>> = vec![Vec::new(); n_tiles];
            for r in w.start_row..w.start_row + w.rows {
                let (s, e) = a.row_range(r);
                // The bitmap walk yields condensed indices in this row's
                // CSR entry order (both ascend by column).
                let conds = w.meta.row_cond_indices(r - w.start_row);
                for (i, cond) in (s..e).zip(conds) {
                    let cond = cond as usize;
                    let tile = cond / TILE_K;
                    let row_in_window = (r - w.start_row) as u8;
                    let col_in_tile = (cond % TILE_K) as u8;
                    per_tile[tile].push(((row_in_window << 3) | col_in_tile, a.vals[i]));
                }
            }
            let unique_cols = w.unique_cols();
            for (t, entries) in per_tile.into_iter().enumerate() {
                let entry_start = out.entry_pos.len() as u32;
                for (pos, val) in entries {
                    out.entry_pos.push(pos);
                    out.entry_vals.push(val);
                }
                let col_start = out.tile_cols.len() as u32;
                let cols = &unique_cols[t * TILE_K..((t + 1) * TILE_K).min(w.nnz_cols())];
                out.tile_cols.extend_from_slice(cols);
                out.tiles.push(TileDesc {
                    entry_start,
                    entry_end: out.entry_pos.len() as u32,
                    col_start,
                    col_count: cols.len() as u8,
                });
            }
            out.windows.push(MeTcfWindow {
                start_row: w.start_row as u32,
                rows: w.rows as u8,
                tile_start,
                tile_end: out.tiles.len() as u32,
            });
        }
        out
    }

    /// Total stored entries.
    pub fn nnz(&self) -> usize {
        self.entry_vals.len()
    }

    /// Total tiles (the Tensor-core cost driver).
    pub fn num_tiles(&self) -> usize {
        self.tiles.len()
    }

    /// Format footprint in bytes.
    pub fn byte_size(&self) -> u64 {
        (self.windows.len() * std::mem::size_of::<MeTcfWindow>()
            + self.tiles.len() * std::mem::size_of::<TileDesc>()
            + self.tile_cols.len() * 4
            + self.entry_pos.len()
            + self.entry_vals.len() * 4) as u64
    }

    /// SpMM straight off the format — validates that the packing is
    /// lossless.
    pub fn spmm_reference(&self, x: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.ncols, x.rows);
        let mut z = DenseMatrix::zeros(self.nrows, x.cols);
        for w in &self.windows {
            for t in w.tile_start..w.tile_end {
                let tile = &self.tiles[t as usize];
                for i in tile.entry_start..tile.entry_end {
                    let pos = self.entry_pos[i as usize];
                    let row = w.start_row as usize + (pos >> 3) as usize;
                    let col_in_tile = (pos & 0x7) as usize;
                    debug_assert!(col_in_tile < tile.col_count as usize);
                    let col = self.tile_cols[tile.col_start as usize + col_in_tile] as usize;
                    let v = self.entry_vals[i as usize];
                    let xrow = x.row(col);
                    let zrow = z.row_mut(row);
                    for (o, &xv) in zrow.iter_mut().zip(xrow) {
                        *o += v * xv;
                    }
                }
            }
        }
        z
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::window::WINDOW_ROWS;

    #[test]
    fn roundtrip_spmm_matches_csr() {
        for seed in 0..3 {
            let a = gen::erdos_renyi(200, 900, seed);
            let m = MeTcf::from_csr(&a);
            let x = DenseMatrix::random_features(200, 16, seed);
            let want = a.spmm_reference(&x);
            let got = m.spmm_reference(&x);
            assert!(want.max_abs_diff(&got) < 1e-4, "seed {seed}");
            assert_eq!(m.nnz(), a.nnz());
        }
    }

    #[test]
    fn tile_count_matches_window_math() {
        let a = gen::community(320, 2_000, 10, 0.9, 1);
        let m = MeTcf::from_csr(&a);
        let part = RowWindowPartition::build(&a);
        let want: usize = part.windows.iter().map(|w| w.num_tiles(TILE_K)).sum();
        assert_eq!(m.num_tiles(), want);
    }

    #[test]
    fn packing_is_within_bounds() {
        let a = gen::barabasi_albert(500, 4, 2);
        let m = MeTcf::from_csr(&a);
        for w in &m.windows {
            assert!(w.rows as usize <= WINDOW_ROWS);
            for t in w.tile_start..w.tile_end {
                let tile = &m.tiles[t as usize];
                for i in tile.entry_start..tile.entry_end {
                    let pos = m.entry_pos[i as usize];
                    assert!((pos >> 3) < w.rows, "row out of window");
                    assert!((pos & 7) < tile.col_count, "col out of tile");
                }
            }
        }
    }

    #[test]
    fn more_compact_than_csr_plus_condensed_indices() {
        // The "memory-efficient" claim: 1 byte of position per entry beats
        // the 4-byte condensed index HC-SpMM keeps alongside CSR.
        let a = gen::molecules(2_048, 5_000, 3);
        let m = MeTcf::from_csr(&a);
        let csr_plus_idx = a.byte_size() + a.nnz() as u64 * 4;
        assert!(
            m.byte_size() < csr_plus_idx,
            "ME-TCF {} should beat CSR+idx {}",
            m.byte_size(),
            csr_plus_idx
        );
    }

    #[test]
    fn empty_matrix() {
        let m = MeTcf::from_csr(&Csr::empty(40, 40));
        assert_eq!(m.nnz(), 0);
        let x = DenseMatrix::random_features(40, 4, 1);
        assert_eq!(m.spmm_reference(&x), DenseMatrix::zeros(40, 4));
    }
}
