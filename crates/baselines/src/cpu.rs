//! PyTorch-CPU reference point (§VI-B1's "183.77× average speedup").
//!
//! `torch.sparse.mm` on a workstation CPU is memory-bound: each non-zero
//! streams its CSR entry and gathers a dense row, with no GPU-grade
//! bandwidth behind it. We model a 10-core desktop CPU (the paper's
//! i9-10900K) with a modeled sustained 40 GB/s of effective random-access
//! bandwidth and 150 GFLOP/s of sparse-kernel throughput, and compute the
//! numerics for real.

use graph_sparse::{Csr, DenseMatrix};

/// Modeled sustained DRAM bandwidth for sparse gathers (bytes/s).
const CPU_BW: f64 = 40e9;
/// Modeled sustained FP32 throughput in sparse kernels (FLOP/s).
const CPU_FLOPS: f64 = 150e9;

/// Result of the CPU SpMM model.
#[derive(Debug, Clone)]
pub struct CpuSpmmReport {
    /// Numerical result.
    pub z: DenseMatrix,
    /// Modeled execution time in milliseconds.
    pub time_ms: f64,
}

/// SpMM on the CPU: real numerics, roofline-modeled time.
pub fn cpu_spmm(a: &Csr, x: &DenseMatrix) -> CpuSpmmReport {
    CpuSpmmReport {
        z: a.spmm_reference(x),
        time_ms: cpu_spmm_time_ms(a, x.cols),
    }
}

/// The roofline-modeled CPU time alone for a `dim`-wide X: the model is a
/// pure function of the matrix shape, nnz and feature width, so timing
/// experiments skip both the feature matrix and the reference multiply.
pub fn cpu_spmm_time_ms(a: &Csr, dim: usize) -> f64 {
    let flops = 2.0 * a.nnz() as f64 * dim as f64;
    // Per nnz: 8 B CSR entry + a gathered dense row (cache-hostile, pay a
    // 64-byte line per 16 floats) + its share of the output stream.
    let line_per_row = (dim as f64 * 4.0 / 64.0).ceil() * 64.0;
    let bytes = a.nnz() as f64 * (8.0 + line_per_row) + (a.nrows * dim) as f64 * 4.0;
    // Framework dispatch overhead: a PyTorch sparse-op call costs ~10 µs of
    // Python/ATen plumbing before any arithmetic runs.
    const DISPATCH_S: f64 = 10e-6;
    let time_s = (flops / CPU_FLOPS).max(bytes / CPU_BW) + DISPATCH_S;
    time_s * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;
    use graph_sparse::gen;
    use hc_core::{HcSpmm, SpmmKernel};

    #[test]
    fn numerics_are_reference() {
        let a = gen::erdos_renyi(100, 400, 1);
        let x = DenseMatrix::random_features(100, 16, 2);
        assert_eq!(cpu_spmm(&a, &x).z, a.spmm_reference(&x));
    }

    #[test]
    fn gpu_speedup_is_two_orders_of_magnitude_on_large_graphs() {
        // §VI-B1: 183.77× average over the datasets. Order of magnitude is
        // what we pin.
        let dev = DeviceSpec::rtx3090();
        let a = gen::community(16_384, 120_000, 512, 0.85, 3);
        let x = DenseMatrix::random_features(16_384, 64, 4);
        let cpu = cpu_spmm(&a, &x).time_ms;
        let gpu = HcSpmm::default().spmm(&a, &x, &dev).run.time_ms;
        let speedup = cpu / gpu;
        assert!(
            (20.0..2000.0).contains(&speedup),
            "GPU speedup {speedup} outside expected band"
        );
    }

    #[test]
    fn time_scales_with_work() {
        let a1 = gen::erdos_renyi(512, 2000, 5);
        let a2 = gen::erdos_renyi(512, 8000, 5);
        let x = DenseMatrix::random_features(512, 32, 6);
        assert!(cpu_spmm(&a2, &x).time_ms > cpu_spmm(&a1, &x).time_ms);
    }
}
