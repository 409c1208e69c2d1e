//! DTC-SpMM-style kernel (Fan, Wang, Chu — ASPLOS'24).
//!
//! The strongest Tensor-core-only baseline: the ME-TCF format removes
//! format-traversal overhead and its fragment loading is as efficient as
//! HC-SpMM's Algorithm 4. The kernel still runs *every* window on Tensor
//! cores, so on sparse windows it wastes MMA throughput where HC-SpMM
//! switches to CUDA cores — Fig. 10 shows HC-SpMM between 0.99× (a tie,
//! on graphs whose windows are nearly all Tensor-suited) and 3.03× faster.

use gpu_sim::{DeviceSpec, KernelRun, Precision};
use graph_sparse::{Csr, DenseMatrix, MeTcf};
use hc_core::{HcSpmm, SpmmKernel, SpmmResult, TensorSpmm};

/// DTC-SpMM-style all-Tensor kernel with ME-TCF-grade loading.
#[derive(Debug, Clone, Copy)]
pub struct DtcSpmm {
    /// Input precision.
    pub precision: Precision,
}

impl Default for DtcSpmm {
    fn default() -> Self {
        DtcSpmm {
            precision: Precision::Tf32,
        }
    }
}

impl DtcSpmm {
    fn inner(&self) -> TensorSpmm {
        // DTC's ME-TCF has its own (uncompressed) descriptors and stages X
        // synchronously — keep the competitor's published cost model.
        TensorSpmm {
            precision: self.precision,
            optimized_loading: true,
            compressed_meta: false,
            pipelined: false,
        }
    }

    /// ME-TCF construction: the same GPU radix-sort pipeline HC-SpMM
    /// adopts, plus the extra passes that emit ME-TCF's block descriptors
    /// (Table XI measures DTC preprocessing at ≈1.3× HC-SpMM's).
    pub fn preprocess_run(&self, a: &Csr, dev: &DeviceSpec) -> KernelRun {
        // HC-SpMM strips the ME-TCF descriptor emission from the pipeline;
        // reconstruct DTC's cost as the shared pipeline + descriptor pass
        // (one extra read/write sweep of the sorted edges).
        let base = HcSpmm::default().preprocess(a, dev).run;
        let extra_bytes = a.nnz() as u64 * 16;
        let extra_s = extra_bytes as f64 / (dev.dram_bandwidth_gbs * 1e9) * 2.0;
        KernelRun {
            time_ms: base.time_ms + extra_s * 1e3,
            ..base
        }
    }
}

impl SpmmKernel for DtcSpmm {
    fn name(&self) -> &'static str {
        "DTC-SpMM"
    }

    fn spmm(&self, a: &Csr, x: &DenseMatrix, dev: &DeviceSpec) -> SpmmResult {
        // Timing comes from the shared Tensor-core cost model; the numerics
        // are computed through the real ME-TCF structure (and quantized at
        // the kernel's precision), so the format itself is exercised.
        let run = self.spmm_run(a, x.cols, dev);
        let m = MeTcf::from_csr(a);
        let p = self.precision;
        let xq = DenseMatrix {
            rows: x.rows,
            cols: x.cols,
            data: x.data.iter().map(|&v| p.quantize(v)).collect(),
        };
        let mut aq = m;
        aq.entry_vals.iter_mut().for_each(|v| *v = p.quantize(*v));
        SpmmResult {
            z: aq.spmm_reference(&xq),
            run,
        }
    }

    fn spmm_run(&self, a: &Csr, dim: usize, dev: &DeviceSpec) -> KernelRun {
        self.inner().spmm_run(a, dim, dev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcgnn::TcGnnSpmm;
    use graph_sparse::gen;

    #[test]
    fn beats_tcgnn_everywhere() {
        let dev = DeviceSpec::rtx3090();
        for seed in [1, 2] {
            let a = gen::community(1024, 8000, 32, 0.9, seed);
            let x = DenseMatrix::random_features(1024, 32, seed);
            let dtc = DtcSpmm::default().spmm(&a, &x, &dev).run.time_ms;
            let tc = TcGnnSpmm::default().spmm(&a, &x, &dev).run.time_ms;
            assert!(dtc < tc, "dtc {dtc} !< tcgnn {tc}");
        }
    }

    #[test]
    fn hc_never_loses_more_than_a_tie() {
        let dev = DeviceSpec::rtx3090();
        let a = gen::community(2048, 20_000, 32, 0.95, 4);
        let x = DenseMatrix::random_features(2048, 32, 5);
        let dtc = DtcSpmm::default().spmm(&a, &x, &dev).run.time_ms;
        let hc = HcSpmm::default().spmm(&a, &x, &dev).run.time_ms;
        assert!(hc <= dtc * 1.02, "hc {hc} vs dtc {dtc}");
    }

    #[test]
    fn preprocessing_slightly_above_hc() {
        let dev = DeviceSpec::rtx3090();
        let a = gen::community(4096, 30_000, 128, 0.85, 5);
        let dtc = DtcSpmm::default().preprocess_run(&a, &dev).time_ms;
        let hc = HcSpmm::default().preprocess(&a, &dev).run.time_ms;
        let ratio = dtc / hc;
        assert!(
            (1.0..2.5).contains(&ratio),
            "DTC preprocessing should be ~1.3× HC's: {ratio}"
        );
    }
}
