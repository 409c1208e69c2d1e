//! Sputnik-style SpMM (Gale, Zaharia, Young, Elsen — SC'20).
//!
//! Sputnik's CSR kernel uses 1-D tiling: a thread block owns a contiguous
//! strip of sparse rows, subwarp groups map to rows for load balance, and
//! all memory accesses are vectorized (`float4`). The row strip gives the
//! dense operand actual temporal reuse in L1 — unlike cuSPARSE — which is
//! why it is the state-of-the-art CUDA-core baseline. It lacks HC-SpMM's
//! shared-memory CSR staging (edges stream through registers with per-
//! iteration L1 broadcasts) and its adaptive tail handling (the dense
//! dimension is processed in padded 32-wide slices).

use gpu_sim::{coalesced_transactions, BlockCost, DeviceSpec};
use graph_sparse::{Csr, DenseMatrix, RowWindowPartition};
use hc_core::{SpmmKernel, SpmmResult};

/// Sputnik-style 1-D tiled CSR kernel.
#[derive(Debug, Clone, Copy, Default)]
pub struct SputnikSpmm;

/// Sputnik's half-precision variant (Appendix B): the same structure with
/// all operand traffic halved — Sputnik ships kernels specifically
/// vectorized for fp16, which is why it more than doubles its own fp32
/// throughput there.
#[derive(Debug, Clone, Copy, Default)]
pub struct SputnikHalfSpmm;

impl SpmmKernel for SputnikHalfSpmm {
    fn name(&self) -> &'static str {
        "Sputnik(half)"
    }

    fn spmm(&self, a: &Csr, x: &DenseMatrix, dev: &DeviceSpec) -> SpmmResult {
        let run = self.spmm_run(a, x.cols, dev);
        // Numerics at fp16 operand precision, fp32 accumulate.
        let p = gpu_sim::Precision::Fp16;
        let mut z = graph_sparse::DenseMatrix::zeros(a.nrows, x.cols);
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
        let part = RowWindowPartition::build(a);
        let blocks: Vec<BlockCost> = part
            .windows
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| {
                let mut b = SputnikSpmm::tile_cost(w.nnz, w.nnz_cols(), w.rows, dim, dev);
                // Halve every operand stream (values, dense rows, output)
                // and the vector-load transaction count.
                b.dram.bytes_loaded /= 2;
                b.dram.bytes_stored /= 2;
                b.dram.transactions = b.dram.transactions / 2 + 1;
                b
            })
            .collect();
        dev.execute(&blocks)
    }
}

impl SputnikSpmm {
    fn tile_cost(
        nnz: usize,
        distinct_cols: usize,
        rows: usize,
        dim: usize,
        dev: &DeviceSpec,
    ) -> BlockCost {
        let mut b = BlockCost {
            warps: rows.clamp(1, 16) as u32,
            ..Default::default()
        };
        let slices = dim.div_ceil(32);
        // Padded slices: no adaptive tail.
        b.cuda_fma_issues = (nnz * slices) as u64;
        // Vectorized CSR loads: float4/int4 packs 4 entries per lane access;
        // entries stream through L1 with one (cheap, but latency-bearing)
        // transaction per 4 entries per slice.
        b.dram.transactions += (nnz.div_ceil(4) * slices) as u64 * 2;
        b.dram.bytes_loaded += nnz as u64 * 8;
        // Dense gathers: latency per access, but the 1-D tile captures reuse
        // — DRAM bytes are paid per distinct column of the strip, padded to
        // the slice grid.
        b.dram.transactions += (nnz * slices) as u64;
        b.dram.bytes_loaded += (distinct_cols * slices * 32) as u64 * 4;
        // Output store.
        b.dram.bytes_stored += (rows * dim) as u64 * 4;
        b.dram.transactions +=
            rows as u64 * coalesced_transactions(dim as u64 * 4, dev.transaction_bytes);
        b
    }
}

impl SpmmKernel for SputnikSpmm {
    fn name(&self) -> &'static str {
        "Sputnik"
    }

    fn spmm(&self, a: &Csr, x: &DenseMatrix, dev: &DeviceSpec) -> SpmmResult {
        SpmmResult {
            z: a.spmm_reference(x),
            run: self.spmm_run(a, x.cols, dev),
        }
    }

    fn spmm_run(&self, a: &Csr, dim: usize, dev: &DeviceSpec) -> gpu_sim::KernelRun {
        // 1-D tiles are strips of 16 rows — reuse RowWindowPartition to get
        // per-strip distinct-column counts.
        let part = RowWindowPartition::build(a);
        let blocks: Vec<BlockCost> = part
            .windows
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| Self::tile_cost(w.nnz, w.nnz_cols(), w.rows, dim, dev))
            .collect();
        dev.execute(&blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cusparse::CusparseSpmm;
    use graph_sparse::gen;
    use hc_core::{CudaSpmm, SpmmKernel};

    #[test]
    fn exact_numerics() {
        let a = gen::barabasi_albert(200, 3, 1);
        let x = DenseMatrix::random_features(200, 32, 2);
        let dev = DeviceSpec::rtx3090();
        let r = SputnikSpmm.spmm(&a, &x, &dev);
        assert_eq!(r.z, a.spmm_reference(&x));
    }

    #[test]
    fn beats_cusparse_on_graphs() {
        let dev = DeviceSpec::rtx3090();
        let a = gen::community(2048, 16_000, 64, 0.85, 3);
        let x = DenseMatrix::random_features(2048, 32, 4);
        let sp = SputnikSpmm.spmm(&a, &x, &dev).run.time_ms;
        let cu = CusparseSpmm.spmm(&a, &x, &dev).run.time_ms;
        assert!(sp < cu, "sputnik {sp} !< cusparse {cu}");
    }

    #[test]
    fn loses_slightly_to_hc_cuda_path() {
        // The paper's HC-SpMM CUDA path adds shared staging + adaptive tail;
        // on an unaligned dim it must win.
        let dev = DeviceSpec::rtx3090();
        let a = gen::erdos_renyi(1024, 6000, 5);
        let x = DenseMatrix::random_features(1024, 47, 6);
        let sp = SputnikSpmm.spmm(&a, &x, &dev).run.time_ms;
        let hc = CudaSpmm::optimized().spmm(&a, &x, &dev).run.time_ms;
        assert!(hc < sp, "hc-cuda {hc} !< sputnik {sp}");
    }
}
