//! TC-GNN-style kernel (Wang, Feng, Wang, Huang, Ding — USENIX ATC'23).
//!
//! TC-GNN processes *every* row window on Tensor cores after SGT column
//! condensing; CUDA cores participate only as data movers. That makes it
//! excellent on dense windows and wasteful on the sparse majority of
//! real-graph windows (the paper's motivation: TC-GNN's preprocessed
//! matrices are still ~90.9 % sparse on average). Its fragment loading is
//! the uncooperative variant HC-SpMM's Algorithm 4 improves on.
//!
//! Its SGT preprocessing builds the condensed layout with per-window
//! scans of the edge list — the paper's Table XI measures it ~36× more
//! expensive than HC-SpMM's DTC-derived preprocessing kernel.

use gpu_sim::{DeviceSpec, KernelRun, Precision};
use graph_sparse::{Csr, DenseMatrix, RowWindowPartition};
use hc_core::{SpmmKernel, SpmmResult, TensorSpmm};

/// TC-GNN-style all-Tensor kernel.
#[derive(Debug, Clone, Copy)]
pub struct TcGnnSpmm {
    /// Precision (TF32 in the paper; Appendix B evaluates half, whose
    /// 16×16×16 tile requirement wastes more zero columns).
    pub precision: Precision,
}

impl Default for TcGnnSpmm {
    fn default() -> Self {
        TcGnnSpmm {
            precision: Precision::Tf32,
        }
    }
}

impl TcGnnSpmm {
    /// The inner per-window kernel: unoptimized fragment loading.
    fn inner(&self) -> TensorSpmm {
        // TC-GNN ships neither compressed tile metadata nor the cp.async
        // pipeline — model its published kernel, not HC's upgrades.
        TensorSpmm {
            precision: self.precision,
            optimized_loading: false,
            compressed_meta: false,
            pipelined: false,
        }
    }

    /// SGT preprocessing cost. TC-GNN's released SGT (sparse-graph
    /// translation) runs on the *host*: per window it scans the edge list
    /// and builds the condensed column map with Python-driven set
    /// operations. DTC-SpMM and this paper's Table XI measure it one to two
    /// orders of magnitude slower than the GPU radix-sort pipeline; we model
    /// the host pass at a generous 25 M edges/s plus one PCIe round trip of
    /// the rebuilt index arrays.
    pub fn preprocess_run(&self, a: &Csr, dev: &DeviceSpec) -> KernelRun {
        const HOST_EDGES_PER_SEC: f64 = 25e6;
        const PCIE_GBS: f64 = 16.0;
        let _ = RowWindowPartition::build(a); // the structure SGT produces
        let host_s = a.nnz() as f64 / HOST_EDGES_PER_SEC;
        let pcie_s = (a.nnz() as f64 * 8.0) / (PCIE_GBS * 1e9);
        KernelRun {
            time_ms: (host_s + pcie_s) * 1e3 + dev.launch_overhead_us * 1e-3,
            ..KernelRun::default()
        }
    }
}

impl SpmmKernel for TcGnnSpmm {
    fn name(&self) -> &'static str {
        "TC-GNN"
    }

    fn spmm(&self, a: &Csr, x: &DenseMatrix, dev: &DeviceSpec) -> SpmmResult {
        self.inner().spmm(a, x, dev)
    }

    fn spmm_run(&self, a: &Csr, dim: usize, dev: &DeviceSpec) -> KernelRun {
        self.inner().spmm_run(a, dim, dev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_sparse::gen;
    use hc_core::HcSpmm;

    #[test]
    fn numerics_match_at_tf32_tolerance() {
        let a = gen::erdos_renyi(256, 1000, 1);
        let x = DenseMatrix::random_features(256, 32, 2);
        let dev = DeviceSpec::rtx3090();
        let r = TcGnnSpmm::default().spmm(&a, &x, &dev);
        assert!(a.spmm_reference(&x).max_abs_diff(&r.z) < 0.05);
    }

    #[test]
    fn loses_badly_on_sparse_wide_windows() {
        // PM-like: sparse citation graph — the paper's 6.76× worst case.
        let dev = DeviceSpec::rtx3090();
        let a = gen::barabasi_albert(2048, 2, 3);
        let x = DenseMatrix::random_features(2048, 32, 4);
        let tc = TcGnnSpmm::default().spmm(&a, &x, &dev).run.time_ms;
        let hc = HcSpmm::default().spmm(&a, &x, &dev).run.time_ms;
        assert!(tc > 1.3 * hc, "tc-gnn {tc} should lose ≥1.3× to hc {hc}");
    }

    #[test]
    fn preprocessing_much_slower_than_hc() {
        let dev = DeviceSpec::rtx3090();
        let a = gen::community(4096, 30_000, 128, 0.85, 5);
        let tc = TcGnnSpmm::default().preprocess_run(&a, &dev).time_ms;
        let hc = HcSpmm::default().preprocess(&a, &dev).run.time_ms;
        let ratio = tc / hc;
        assert!(
            ratio > 5.0,
            "TC-GNN preprocessing should be ≫ HC's: ratio {ratio}"
        );
    }
}
