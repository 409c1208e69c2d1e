//! SpMM kernel interface shared by HC-SpMM and every baseline.

pub mod cuda;
pub mod hybrid;
pub mod straightforward;
pub mod tensor;

use std::ops::Range;

use gpu_sim::{DeviceSpec, KernelRun, Precision};
use graph_sparse::{Csr, DenseMatrix};

/// Output of one simulated SpMM: the numerical result plus the simulated
/// execution record.
#[derive(Debug, Clone)]
pub struct SpmmResult {
    /// `Z = A · X`, computed for real.
    pub z: DenseMatrix,
    /// Simulated time and counters.
    pub run: KernelRun,
}

/// A kernel that multiplies a sparse matrix by a dense matrix on the
/// simulated device. Implemented by HC-SpMM and by all comparison kernels in
/// the `baselines` crate.
pub trait SpmmKernel {
    /// Kernel name as printed in the paper's figures.
    fn name(&self) -> &'static str;

    /// Execute `Z = A · X`. Preprocessing (format conversion, window
    /// condensing, core classification) is *excluded*, matching the paper's
    /// measurement protocol (§VI-B1); kernels with a preprocessing phase
    /// expose it separately.
    fn spmm(&self, a: &Csr, x: &DenseMatrix, dev: &DeviceSpec) -> SpmmResult;

    /// Timing-only execution of `A · X` for a `dim`-wide X: the simulated
    /// run record, with no dense operand and no numeric result. Every
    /// kernel's simulated time is a pure function of `a`'s structure, the
    /// feature width and the device — never of X's values or of `Z` — so
    /// timing experiments (Fig. 10, Tables VII/X/XVI) and launches whose
    /// output nobody reads (the GNN backward's dX products) bill through
    /// this entry point without materializing either matrix.
    /// Implementations must return exactly `self.spmm(a, x, dev).run` for
    /// any X with `dim` columns.
    fn spmm_run(&self, a: &Csr, dim: usize, dev: &DeviceSpec) -> KernelRun;
}

/// Panics unless the dense operand has one row per column of `a`. The host
/// numeric entry points check this before their pool region: a short X
/// would otherwise panic on an unnamed slice index inside a worker, and a
/// tall X would silently multiply only its first `a.ncols` rows.
/// [`crate::resilient::execute_resilient`] rejects the same shapes as
/// [`crate::HcError::ShapeMismatch`] with the same wording.
#[track_caller]
pub(crate) fn assert_operand_rows(a: &Csr, x_rows: usize) {
    assert!(
        x_rows == a.ncols,
        "feature matrix has {x_rows} rows, graph needs {}",
        a.ncols
    );
}

/// The numeric row loop of the HC kernels: accumulates rows `rows` of
/// `A · X` into `z` (row-major, `x.cols` columns, row `rows.start` at
/// offset 0). Each sparse value and dense operand is quantized at `p` and
/// the products add up in f32 in CSR entry order — the WMMA contract on
/// quantized paths, exact f32 SpMM at [`Precision::Fp32`]. The per-entry
/// update is one [`Precision::axpy`] over the whole output row.
pub(crate) fn numeric_rows(
    p: Precision,
    a: &Csr,
    rows: Range<usize>,
    x: &DenseMatrix,
    z: &mut [f32],
) {
    let cols = x.cols;
    for (local, r) in rows.enumerate() {
        let zrow = &mut z[local * cols..(local + 1) * cols];
        let (s, e) = a.row_range(r);
        for i in s..e {
            p.axpy(zrow, p.quantize(a.vals[i]), x.row(a.col_idx[i] as usize));
        }
    }
}

/// Numerical check helper: asserts a kernel result matches the reference
/// SpMM within `tol` (quantized paths need a loose tolerance).
pub fn assert_matches_reference(a: &Csr, x: &DenseMatrix, z: &DenseMatrix, tol: f32) {
    let want = a.spmm_reference(x);
    let diff = want.max_abs_diff(z);
    assert!(
        diff <= tol,
        "kernel output deviates from reference by {diff} (tol {tol})"
    );
}
