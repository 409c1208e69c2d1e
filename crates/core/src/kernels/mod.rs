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
/// quantized paths, exact f32 SpMM at [`Precision::Fp32`].
///
/// The precision is matched once per call — per window on the hybrid and
/// tensor paths, per row on the CUDA path — and each arm runs the row
/// loop with its quantizer inlined, so no stored entry dispatches. The
/// arithmetic is [`Precision::axpy`]'s, in the same order: quantize the
/// value, then `z[j] += a · q(x[j])` for each entry in CSR order.
/// An X at least [`AVX2_MIN_COLS`] wide runs the AVX2 twin of the loop on
/// a CPU that has AVX2; the bits are the same either way.
pub(crate) fn numeric_rows(
    p: Precision,
    a: &Csr,
    rows: Range<usize>,
    x: &DenseMatrix,
    z: &mut [f32],
) {
    if avx2_rows(x.cols) {
        // SAFETY: `avx2_rows` holds only when `avx2()` found AVX2 on this
        // CPU.
        unsafe { numeric_rows_avx2(p, a, rows, x, z) }
    } else {
        numeric_rows_body(p, a, rows, x, z)
    }
}

/// The narrowest X that [`numeric_rows`] runs at AVX2 width. The AVX2
/// build's main vector loops cover 32 columns per pass (the baseline's
/// SSE2 loops 4 or 8), so a narrower row runs only their remainder loops
/// and scalar tail. A sweep of five Table II analogues found AVX2 faster
/// at every d ≥ 32 and mixed below.
const AVX2_MIN_COLS: usize = 32;

/// Whether [`numeric_rows`] runs its AVX2 twin for an X `cols` wide.
fn avx2_rows(cols: usize) -> bool {
    cols >= AVX2_MIN_COLS && avx2()
}

/// Whether the running CPU has AVX2, which [`numeric_rows_avx2`] needs.
/// The standard library caches the answer after the first call.
fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// The body of [`numeric_rows`], which both twins compile.
#[inline(always)]
fn numeric_rows_body(p: Precision, a: &Csr, rows: Range<usize>, x: &DenseMatrix, z: &mut [f32]) {
    match p {
        Precision::Fp32 => quantized_rows(a, rows, x, z, |v| Precision::Fp32.quantize(v)),
        Precision::Tf32 => quantized_rows(a, rows, x, z, |v| Precision::Tf32.quantize(v)),
        Precision::Bf16 => quantized_rows(a, rows, x, z, |v| Precision::Bf16.quantize(v)),
        Precision::Fp16 => quantized_rows(a, rows, x, z, |v| Precision::Fp16.quantize(v)),
    }
}

/// [`numeric_rows_body`] compiled for AVX2: the same source, so the same
/// f32 multiplies and adds in the same order, eight lanes at a time.
///
/// # Safety
///
/// The running CPU must have AVX2.
#[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2"))]
unsafe fn numeric_rows_avx2(
    p: Precision,
    a: &Csr,
    rows: Range<usize>,
    x: &DenseMatrix,
    z: &mut [f32],
) {
    numeric_rows_body(p, a, rows, x, z)
}

/// [`numeric_rows`] at one precision, given as its quantizer `q`.
#[inline(always)]
fn quantized_rows(
    a: &Csr,
    rows: Range<usize>,
    x: &DenseMatrix,
    z: &mut [f32],
    q: impl Fn(f32) -> f32,
) {
    let cols = x.cols;
    for (local, r) in rows.enumerate() {
        let zrow = &mut z[local * cols..(local + 1) * cols];
        let (s, e) = a.row_range(r);
        for i in s..e {
            let v = q(a.vals[i]);
            for (o, &xv) in zrow.iter_mut().zip(x.row(a.col_idx[i] as usize)) {
                *o += v * q(xv);
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use graph_sparse::gen;

    const WIDTHS: [usize; 12] = [0, 1, 8, 16, 29, 31, 32, 33, 64, 74, 97, 130];
    const PRECISIONS: [Precision; 4] = [
        Precision::Fp32,
        Precision::Tf32,
        Precision::Bf16,
        Precision::Fp16,
    ];

    /// Says past the test harness's output capture that no twin ran, so
    /// a pass on a CPU without AVX2 does not read as a comparison.
    fn note_baseline_only(test: &str) {
        use std::io::Write;
        let _ = writeln!(
            std::io::stderr(),
            "{test}: this CPU has no AVX2, so only the baseline body ran"
        );
    }

    /// Community graph with full-mantissa values in [-2, 2), so
    /// quantizing the sparse operand is observable.
    fn graph() -> Csr {
        let mut g = gen::community(128, 1_500, 4, 0.9, 11);
        let v = DenseMatrix::random_features(1, g.nnz(), 13);
        for (slot, &val) in g.vals.iter_mut().zip(&v.data) {
            *slot = 2.0 * val;
        }
        g
    }

    /// Features in [-1, 1) with every fifth value −0.0; column `j` holds
    /// one NaN when `j % 3 == 0` and one +Inf and one −Inf when `j % 3 ==
    /// 1`. Each output element meets at most one NaN payload, so the
    /// order in which an add picks between two NaNs, which IEEE 754 leaves
    /// open, cannot show.
    fn features(rows: usize, dim: usize) -> DenseMatrix {
        let mut x = DenseMatrix::random_features(rows, dim, 17 + dim as u64);
        for (k, v) in x.data.iter_mut().enumerate() {
            if k % 5 == 0 {
                *v = -0.0;
            }
        }
        for j in 0..dim {
            let at = |salt: usize| ((j + 1) * 7919 + salt * 104_729) % rows * dim + j;
            match j % 3 {
                0 => x.data[at(0)] = f32::NAN,
                1 => {
                    x.data[at(1)] = f32::INFINITY;
                    x.data[at(2)] = f32::NEG_INFINITY;
                }
                _ => {}
            }
        }
        x
    }

    #[test]
    fn avx2_row_twin_matches_the_baseline_bits() {
        let a = graph();
        let (mut nan, mut inf) = (false, false);
        for dim in WIDTHS {
            let x = features(a.ncols, dim);
            for p in PRECISIONS {
                // All rows, and a run that starts mid-matrix.
                for rows in [0..a.nrows, 37..91] {
                    let mut base = vec![0.0; rows.len() * dim];
                    numeric_rows_body(p, &a, rows.clone(), &x, &mut base);
                    nan |= base.iter().any(|v| v.is_nan());
                    inf |= base.iter().any(|v| v.is_infinite());
                    if !avx2() {
                        continue;
                    }
                    let mut twin = vec![0.0; rows.len() * dim];
                    // SAFETY: `avx2()` found AVX2 on this CPU just above.
                    unsafe { numeric_rows_avx2(p, &a, rows.clone(), &x, &mut twin) };
                    let diff = (0..base.len()).find(|&k| base[k].to_bits() != twin[k].to_bits());
                    if let Some(k) = diff {
                        panic!(
                            "{p:?}, width {dim}, rows {rows:?}: z[{}][{}] baseline {:e} \
                             ({:#010x}), AVX2 twin {:e} ({:#010x})",
                            k / dim,
                            k % dim,
                            base[k],
                            base[k].to_bits(),
                            twin[k],
                            twin[k].to_bits()
                        );
                    }
                }
            }
        }
        assert!(
            nan && inf,
            "outputs must carry NaN ({nan}) and infinities ({inf})"
        );
        if !avx2() {
            note_baseline_only("avx2_row_twin_matches_the_baseline_bits");
        }
    }

    #[test]
    fn avx2_row_twin_runs_from_32_columns_only() {
        assert_eq!(AVX2_MIN_COLS, 32);
        for cols in 0..=130 {
            assert_eq!(avx2_rows(cols), cols >= 32 && avx2(), "width {cols}");
        }
        if !avx2() {
            note_baseline_only("avx2_row_twin_runs_from_32_columns_only");
        }
    }
}
