//! GE-SpMM-style kernel (Huang, Dai, Wang, Yang — SC'20).
//!
//! GE-SpMM's two techniques are Coalesced Row Caching — warps cooperatively
//! stage CSR column indices in shared memory, exactly the optimization
//! HC-SpMM adopts — and Coarse-grained Warp Merging, where one warp computes
//! several adjacent rows to reuse the cached indices. The merge group is
//! small (2–4 rows), so dense-operand reuse is captured across merged rows
//! only, not across the whole 16-row window; and like Sputnik the dense
//! dimension is processed in padded 32-wide slices.

use gpu_sim::{coalesced_transactions, BlockCost, DeviceSpec};
use graph_sparse::{Csr, DenseMatrix};
use hc_core::{SpmmKernel, SpmmResult};

/// GE-SpMM-style CRC + CWM kernel.
#[derive(Debug, Clone, Copy, Default)]
pub struct GeSpmm;

/// Rows merged per warp (the paper's CWM factor).
const MERGE: usize = 4;

impl GeSpmm {
    fn group_cost(
        nnz: usize,
        distinct_cols: usize,
        rows: usize,
        dim: usize,
        dev: &DeviceSpec,
    ) -> BlockCost {
        let mut b = BlockCost {
            warps: rows.div_ceil(MERGE).max(1) as u32,
            ..Default::default()
        };
        let slices = dim.div_ceil(32);
        b.cuda_fma_issues = (nnz * slices) as u64;
        // CRC: one coalesced CSR load + shared broadcasts.
        b.dram.transactions += coalesced_transactions(nnz as u64 * 8, dev.transaction_bytes);
        b.dram.bytes_loaded += nnz as u64 * 8;
        b.shared.stores += (nnz as u64).div_ceil(dev.warp_size as u64) * 2;
        b.shared.loads += (nnz * slices) as u64;
        // Dense gathers: reuse only within a merge group → DRAM bytes per
        // distinct column *of each group* (the caller passes the summed
        // group-distinct count), padded slices.
        b.dram.transactions += (nnz * slices) as u64;
        b.dram.bytes_loaded += (distinct_cols * slices * 32) as u64 * 4;
        b.dram.bytes_stored += (rows * dim) as u64 * 4;
        b.dram.transactions +=
            rows as u64 * coalesced_transactions(dim as u64 * 4, dev.transaction_bytes);
        b
    }
}

impl SpmmKernel for GeSpmm {
    fn name(&self) -> &'static str {
        "GE-SpMM"
    }

    fn spmm(&self, a: &Csr, x: &DenseMatrix, dev: &DeviceSpec) -> SpmmResult {
        SpmmResult {
            z: a.spmm_reference(x),
            run: self.spmm_run(a, x.cols, dev),
        }
    }

    fn spmm_run(&self, a: &Csr, dim: usize, dev: &DeviceSpec) -> gpu_sim::KernelRun {
        let mut blocks = Vec::with_capacity(a.nrows.div_ceil(16));
        let mut scratch: Vec<u32> = Vec::new();
        for start in (0..a.nrows).step_by(16) {
            let rows = 16.min(a.nrows - start);
            let lo = a.row_ptr[start] as usize;
            let hi = a.row_ptr[start + rows] as usize;
            if hi == lo {
                continue;
            }
            // Distinct columns summed over 4-row merge groups.
            let mut group_distinct = 0usize;
            for g in (start..start + rows).step_by(MERGE) {
                let ge = (g + MERGE).min(start + rows);
                scratch.clear();
                scratch
                    .extend_from_slice(&a.col_idx[a.row_ptr[g] as usize..a.row_ptr[ge] as usize]);
                scratch.sort_unstable();
                scratch.dedup();
                group_distinct += scratch.len();
            }
            blocks.push(Self::group_cost(hi - lo, group_distinct, rows, dim, dev));
        }
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
        let a = gen::community(300, 1500, 10, 0.9, 1);
        let x = DenseMatrix::random_features(300, 32, 2);
        let dev = DeviceSpec::rtx3090();
        let r = GeSpmm.spmm(&a, &x, &dev);
        assert_eq!(r.z, a.spmm_reference(&x));
    }

    #[test]
    fn between_cusparse_and_hc_cuda() {
        let dev = DeviceSpec::rtx3090();
        let a = gen::community(2048, 16_000, 64, 0.85, 3);
        let x = DenseMatrix::random_features(2048, 32, 4);
        let ge = GeSpmm.spmm(&a, &x, &dev).run.time_ms;
        let cu = CusparseSpmm.spmm(&a, &x, &dev).run.time_ms;
        let hc = CudaSpmm::optimized().spmm(&a, &x, &dev).run.time_ms;
        assert!(ge < cu, "ge {ge} !< cusparse {cu}");
        assert!(hc <= ge * 1.05, "hc-cuda {hc} should not lose to ge {ge}");
    }

    #[test]
    fn merge_group_reuse_is_partial() {
        // On a community graph the 16-row window shares most columns, so
        // HC's window-level dedup loads fewer DRAM bytes than GE's
        // group-level dedup.
        let dev = DeviceSpec::rtx3090();
        let a = gen::community(1024, 10_000, 32, 0.95, 5);
        let x = DenseMatrix::random_features(1024, 32, 6);
        let ge = GeSpmm.spmm(&a, &x, &dev);
        let hc = CudaSpmm::optimized().spmm(&a, &x, &dev);
        assert!(ge.run.profile.dram_bytes_loaded > hc.run.profile.dram_bytes_loaded);
    }
}
