//! Tile-CSR-style kernel (Xue et al., ICCD'23) — the related-work system
//! the paper cites as "an unstructured SpMM kernel using Tensor cores,
//! introducing a format named Tile-CSR to reduce the zero elements in
//! submatrices traversed by Tensor cores. However, this kernel only
//! supports half precision."
//!
//! Tile-CSR stores a CSR *of tiles*: per 16-row band, the non-empty 16×16
//! half-precision tiles with their packed entries. Compared with the
//! condensed row window, the tile grid is laid over the **original** column
//! space, so a scattered window produces many barely-filled tiles — the
//! reduced-precision traffic wins on dense graphs and loses badly on
//! scattered ones.

use gpu_sim::{coalesced_transactions, BlockCost, DeviceSpec, Precision};
use graph_sparse::{Csr, DenseMatrix};
use hc_core::{SpmmKernel, SpmmResult};

/// Tile edge of the half-precision WMMA shape (m16n16k16).
const TILE: usize = 16;

/// Tile-CSR-style half-precision Tensor-core kernel.
#[derive(Debug, Clone, Copy, Default)]
pub struct TileCsrSpmm;

impl TileCsrSpmm {
    /// Non-empty 16×16 tiles and nnz for one 16-row band over the original
    /// column grid.
    fn band_tiles(a: &Csr, start: usize, rows: usize) -> (usize, usize) {
        let mut tiles = std::collections::HashSet::new();
        let mut nnz = 0usize;
        for r in start..start + rows {
            for &c in a.row_cols(r) {
                tiles.insert(c as usize / TILE);
                nnz += 1;
            }
        }
        (tiles.len(), nnz)
    }

    fn band_cost(tiles: usize, nnz: usize, rows: usize, dim: usize, dev: &DeviceSpec) -> BlockCost {
        let mut b = BlockCost {
            warps: 8,
            ..Default::default()
        };
        if tiles == 0 {
            return b;
        }
        let eb = Precision::Fp16.storage_bytes();
        let dim_chunks = dim.div_ceil(16);
        // Tile descriptors + packed entries (2-byte positions + half
        // values), coalesced.
        b.dram.transactions += coalesced_transactions(
            nnz as u64 * (2 + eb) + tiles as u64 * 8,
            dev.transaction_bytes,
        );
        b.dram.bytes_loaded += nnz as u64 * (2 + eb) + tiles as u64 * 8;
        b.shared.stores += (nnz as u64).div_ceil(dev.warp_size as u64);
        // X fragments: a full 16-row strip of X per tile per dim chunk —
        // tiles sit on the original grid, so there is no condensing and
        // every tile pays the full fragment.
        let fragments = (tiles * dim_chunks) as u64;
        b.dram.transactions += fragments * TILE as u64;
        b.dram.bytes_loaded += (tiles * TILE * dim) as u64 * eb;
        b.shared.stores += fragments * (TILE * 16) as u64 * eb / (dev.warp_size as u64 * 4);
        // One m16n16k16 WMMA per fragment.
        b.wmma_issues = fragments;
        b.shared.loads += fragments * 2;
        // FP32 accumulators stored once.
        b.dram.bytes_stored += (rows * dim) as u64 * 4;
        b.dram.transactions +=
            rows as u64 * coalesced_transactions(dim as u64 * 4, dev.transaction_bytes);
        b
    }
}

impl SpmmKernel for TileCsrSpmm {
    fn name(&self) -> &'static str {
        "Tile-CSR(half)"
    }

    fn spmm(&self, a: &Csr, x: &DenseMatrix, dev: &DeviceSpec) -> SpmmResult {
        let run = self.spmm_run(a, x.cols, dev);
        // Half-precision operands, FP32 accumulate.
        let p = Precision::Fp16;
        let mut z = DenseMatrix::zeros(a.nrows, x.cols);
        for r in 0..a.nrows {
            let (s, e) = a.row_range(r);
            for i in s..e {
                p.axpy(
                    z.row_mut(r),
                    p.quantize(a.vals[i]),
                    x.row(a.col_idx[i] as usize),
                );
            }
        }
        SpmmResult { z, run }
    }

    fn spmm_run(&self, a: &Csr, dim: usize, dev: &DeviceSpec) -> gpu_sim::KernelRun {
        let mut blocks = Vec::with_capacity(a.nrows.div_ceil(TILE));
        for start in (0..a.nrows).step_by(TILE) {
            let rows = TILE.min(a.nrows - start);
            let (tiles, nnz) = Self::band_tiles(a, start, rows);
            if nnz == 0 {
                continue;
            }
            blocks.push(Self::band_cost(tiles, nnz, rows, dim, dev));
        }
        dev.execute(&blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_sparse::gen;
    use hc_core::HcSpmm;

    #[test]
    fn numerics_match_at_half_tolerance() {
        let a = gen::community(256, 1500, 8, 0.9, 1);
        let x = DenseMatrix::random_features(256, 32, 2);
        let dev = DeviceSpec::rtx3090();
        let r = TileCsrSpmm.spmm(&a, &x, &dev);
        assert!(a.spmm_reference(&x).max_abs_diff(&r.z) < 0.1);
    }

    #[test]
    fn uncondensed_tiles_lose_on_scattered_graphs() {
        // Scattering multiplies Tile-CSR's non-empty tile count; the
        // condensed hybrid barely notices at the tile level.
        let dev = DeviceSpec::rtx3090();
        let clean = gen::molecules(2_048, 5_000, 3);
        let scattered = gen::scatter_relabel(&clean, 4);
        let x = DenseMatrix::random_features(2_048, 64, 5);
        let t_clean = TileCsrSpmm.spmm(&clean, &x, &dev).run.time_ms;
        let t_scattered = TileCsrSpmm.spmm(&scattered, &x, &dev).run.time_ms;
        assert!(
            t_scattered > 1.5 * t_clean,
            "scatter should hurt Tile-CSR: {t_clean} → {t_scattered}"
        );
        let hc = HcSpmm::with_precision(Precision::Fp16)
            .spmm(&scattered, &x, &dev)
            .run
            .time_ms;
        assert!(
            hc < t_scattered,
            "HC(half) {hc} should beat Tile-CSR {t_scattered}"
        );
    }

    #[test]
    fn empty_bands_are_skipped() {
        let a = Csr::empty(64, 64);
        let x = DenseMatrix::random_features(64, 16, 1);
        let dev = DeviceSpec::rtx3090();
        let r = TileCsrSpmm.spmm(&a, &x, &dev);
        assert_eq!(r.run.profile.blocks, 0);
        assert_eq!(r.z, DenseMatrix::zeros(64, 16));
    }
}
