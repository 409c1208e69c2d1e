//! Kernel fusion of Aggregation + Update (§V-A).
//!
//! GNN frameworks launch Aggregation (SpMM) and Update (GEMM) as separate
//! kernels: the aggregated rows are written to global memory by one kernel
//! and immediately read back by the next, and each launch costs ≈0.03 ms.
//! When Update directly follows Aggregation — the backward pass of GCN and
//! the forward pass of GIN — HC-SpMM fuses them: each thread block keeps its
//! row window's aggregation result in shared memory and multiplies it by the
//! weight matrix with Tensor cores before storing only the final output.
//!
//! This module provides the fused kernel, the unfused two-launch comparator
//! (Table VI), and the dense-GEMM cost model the Update phase uses
//! everywhere (cuBLAS-style Tensor-core tiling).

use gpu_sim::{coalesced_transactions, BlockCost, DeviceSpec, KernelRun};
use graph_sparse::{Csr, DenseMatrix};

use crate::kernels::assert_operand_rows;
use crate::kernels::hybrid::HcSpmm;
use crate::preprocess::Preprocessed;

/// Block costs for a dense `m×k · k×n` GEMM on Tensor cores (64×64 output
/// tiles, ideal L2 reuse — the cuBLAS model used for every Update phase).
pub fn gemm_block_costs(m: usize, n: usize, k: usize, dev: &DeviceSpec) -> Vec<BlockCost> {
    if m == 0 || n == 0 || k == 0 {
        return Vec::new();
    }
    let tiles_m = m.div_ceil(64);
    let tiles_n = n.div_ceil(64);
    // Split-K: tall reductions are divided across blocks (with a cheap
    // final reduction, folded into the store traffic below), as cuBLAS does
    // — otherwise a skinny `m×n` with huge `k` would run on a handful of
    // SMs.
    let split_k = k.div_ceil(4096).max(1);
    let blocks = tiles_m * tiles_n * split_k;
    let k_per_block = k.div_ceil(split_k);
    // Ideal-reuse DRAM traffic for the whole kernel, split evenly.
    let total_bytes_loaded = (m * k + k * n) as u64 * 4;
    let total_bytes_stored = (m * n) as u64 * 4 * split_k as u64;
    let mut out = Vec::with_capacity(blocks);
    for _ in 0..blocks {
        let mut b = BlockCost {
            warps: 8,
            ..Default::default()
        };
        // 4×4 warp tiles of 16×16, each consuming its K share in steps of 8.
        b.wmma_issues = (16 * k_per_block.div_ceil(8)) as u64;
        b.shared.loads += b.wmma_issues * 2;
        b.dram.bytes_loaded = total_bytes_loaded / blocks as u64;
        b.dram.bytes_stored = total_bytes_stored / blocks as u64;
        b.dram.transactions = coalesced_transactions(
            b.dram.bytes_loaded + b.dram.bytes_stored,
            dev.transaction_bytes,
        );
        out.push(b);
    }
    out
}

/// Simulate a standalone GEMM kernel launch (the Update phase).
pub fn gemm_run(m: usize, n: usize, k: usize, dev: &DeviceSpec) -> KernelRun {
    dev.execute(&gemm_block_costs(m, n, k, dev))
}

/// Result of a fused or unfused Aggregation+Update pass.
#[derive(Debug, Clone)]
pub struct AggUpdateResult {
    /// `(Ā · G) · W`, computed numerically.
    pub out: DenseMatrix,
    /// The intermediate aggregation `Ā · G` (kept for gradient computation;
    /// in the fused kernel it only ever lived in shared memory).
    pub aggregated: DenseMatrix,
    /// Simulated execution record.
    pub run: KernelRun,
}

/// The fused launch for an Update of width `update_cols`, with only the
/// aggregation `Ā · G` computed: one launch; per-window SpMM into shared
/// memory, then an in-block Tensor-core multiply by a `g.cols ×
/// update_cols` weight. Callers that read `(Ā·G)·W` layer the product on
/// top ([`fused_agg_update`]); callers that bill it but never read it (a
/// GNN's unread dX product) stop here.
pub fn fused_agg_update_run(
    hc: &HcSpmm,
    pre: &Preprocessed,
    a: &Csr,
    g: &DenseMatrix,
    update_cols: usize,
    dev: &DeviceSpec,
) -> (DenseMatrix, KernelRun) {
    assert_operand_rows(a, g.rows);
    let (d, h) = (g.cols, update_cols);

    let mut blocks = Vec::with_capacity(pre.partition.len() + 1);
    for (win, &choice) in pre.partition.windows.iter().zip(&pre.choices) {
        if win.is_empty() {
            continue;
        }
        let mut b = hc.window_cost(win, choice, d, dev);
        // The aggregation result stays in shared memory instead of global:
        // remove the Z store, add shared traffic for it.
        let z_bytes = (win.rows * d) as u64 * 4;
        b.dram.bytes_stored = b.dram.bytes_stored.saturating_sub(z_bytes);
        b.dram.transactions = b.dram.transactions.saturating_sub(
            win.rows as u64 * coalesced_transactions(d as u64 * 4, dev.transaction_bytes),
        );
        b.shared.stores += z_bytes.div_ceil(dev.warp_size as u64 * 4);
        // In-block Update: 16×d · d×h on Tensor cores. W is read through the
        // L2 (bytes charged once, below); fragment loads come from shared.
        let wmma = (win.rows.div_ceil(16) * h.div_ceil(16) * d.div_ceil(8)) as u64;
        b.wmma_issues += wmma;
        b.shared.loads += wmma * 2;
        b.dram.transactions += coalesced_transactions((d * h) as u64 * 4, dev.transaction_bytes);
        // Final output store.
        b.dram.bytes_stored += (win.rows * h) as u64 * 4;
        b.dram.transactions +=
            win.rows as u64 * coalesced_transactions(h as u64 * 4, dev.transaction_bytes);
        blocks.push(b);
    }
    // W's DRAM traffic is paid once (it stays L2-resident across blocks).
    let mut wblock = BlockCost {
        warps: 1,
        ..Default::default()
    };
    wblock.dram.bytes_loaded = (d * h) as u64 * 4;
    blocks.push(wblock);

    let run = dev.execute(&blocks);
    (hc.numeric(pre, a, g), run)
}

/// Fused Aggregation+Update: [`fused_agg_update_run`] with the Update
/// `(Ā·G)·W` computed on the host.
pub fn fused_agg_update(
    hc: &HcSpmm,
    pre: &Preprocessed,
    a: &Csr,
    g: &DenseMatrix,
    w: &DenseMatrix,
    dev: &DeviceSpec,
) -> AggUpdateResult {
    assert_eq!(g.cols, w.rows, "Update weight rows must match G's columns");
    let (aggregated, run) = fused_agg_update_run(hc, pre, a, g, w.cols, dev);
    AggUpdateResult {
        out: aggregated.matmul(w),
        aggregated,
        run,
    }
}

/// The unfused comparator's launches for an Update of width `update_cols`,
/// with only the aggregation computed: Aggregation kernel (Z to global
/// memory) followed by a separate Update GEMM (Z read back) — two
/// launches.
pub fn unfused_agg_update_run(
    hc: &HcSpmm,
    pre: &Preprocessed,
    a: &Csr,
    g: &DenseMatrix,
    update_cols: usize,
    dev: &DeviceSpec,
) -> (DenseMatrix, KernelRun) {
    let spmm = hc.spmm_preprocessed(pre, a, g, dev);
    let gemm = gemm_run(a.nrows, update_cols, g.cols, dev);
    (spmm.z, spmm.run.then(&gemm))
}

/// The unfused comparator: [`unfused_agg_update_run`] with the Update
/// `(Ā·G)·W` computed on the host.
pub fn unfused_agg_update(
    hc: &HcSpmm,
    pre: &Preprocessed,
    a: &Csr,
    g: &DenseMatrix,
    w: &DenseMatrix,
    dev: &DeviceSpec,
) -> AggUpdateResult {
    let (aggregated, run) = unfused_agg_update_run(hc, pre, a, g, w.cols, dev);
    AggUpdateResult {
        out: aggregated.matmul(w),
        aggregated,
        run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::{CoreChoice, Selector};
    use graph_sparse::gen;

    fn setup(n: usize, d: usize, h: usize) -> (Csr, DenseMatrix, DenseMatrix) {
        let a = gen::community(n, n * 6, n / 32, 0.9, 11);
        let g = DenseMatrix::random_features(n, d, 12);
        let w = DenseMatrix::random_features(d, h, 13);
        (a, g, w)
    }

    #[test]
    fn fused_equals_unfused_numerically() {
        let dev = DeviceSpec::rtx3090();
        let (a, g, w) = setup(512, 32, 16);
        let hc = HcSpmm::default();
        let pre = hc.preprocess(&a, &dev);
        let f = fused_agg_update(&hc, &pre, &a, &g, &w, &dev);
        let u = unfused_agg_update(&hc, &pre, &a, &g, &w, &dev);
        assert_eq!(f.out, u.out);
        assert_eq!(f.aggregated, u.aggregated);
    }

    #[test]
    fn fusion_is_faster_and_saves_a_launch() {
        let dev = DeviceSpec::rtx3090();
        let (a, g, w) = setup(2048, 64, 32);
        let hc = HcSpmm::default();
        let pre = hc.preprocess(&a, &dev);
        let f = fused_agg_update(&hc, &pre, &a, &g, &w, &dev);
        let u = unfused_agg_update(&hc, &pre, &a, &g, &w, &dev);
        assert!(
            f.run.time_ms < u.run.time_ms,
            "fused {} !< unfused {}",
            f.run.time_ms,
            u.run.time_ms
        );
        assert_eq!(f.run.profile.launches, 1);
        assert_eq!(u.run.profile.launches, 2);
        // Fusion removes the Z round trip from DRAM.
        assert!(f.run.profile.dram_bytes() < u.run.profile.dram_bytes());
    }

    #[test]
    fn gemm_numeric_vs_cost_shapes() {
        let dev = DeviceSpec::rtx3090();
        let small = gemm_run(64, 64, 64, &dev);
        let big = gemm_run(512, 512, 512, &dev);
        assert!(big.time_ms > small.time_ms);
        assert!(gemm_block_costs(0, 10, 10, &dev).is_empty());
    }

    #[test]
    fn fused_preserves_exactness_with_cuda_only_selector() {
        // Force every window onto CUDA cores: fused output must be exact.
        let dev = DeviceSpec::rtx3090();
        let (a, g, w) = setup(256, 32, 8);
        let hc = HcSpmm {
            selector: Selector {
                w1: 0.0,
                w2: 0.0,
                b: 1.0,
            },
            ..HcSpmm::default()
        };
        let pre = hc.preprocess(&a, &dev);
        assert!(pre.choices.iter().all(|c| *c == CoreChoice::Cuda));
        let f = fused_agg_update(&hc, &pre, &a, &g, &w, &dev);
        let want = a.spmm_reference(&g).matmul(&w);
        assert_eq!(f.out, want);
    }
}
