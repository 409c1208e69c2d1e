//! The HC row loop picks its precision once per window (hybrid, tensor)
//! or per row (CUDA) and runs one loop specialised to that quantizer.
//! This suite pins that the specialised loops compute exactly the
//! per-entry arithmetic they replaced: quantize the sparse value, then
//! `z[j] += a · quantize(x[j])` for each stored entry in CSR order — bit
//! for bit, at all four precisions, at widths 0 through 29, with X
//! holding NaN, ±Inf and −0.0.
//!
//! Non-finite values are laid out so every output element meets at most
//! one NaN source: a "NaN column" of X holds one NaN, an "Inf column"
//! one +Inf and one −Inf (whose sum is the platform's default NaN). Two
//! different NaNs meeting in one sum would make the result's payload
//! depend on operand order, which IEEE 754 leaves open; one source keeps
//! a strict bit comparison meaningful.

use gpu_sim::{DeviceSpec, Precision};
use graph_sparse::{gen, Csr, DenseMatrix};
use hc_core::{CoreChoice, HcSpmm};

const WIDTHS: [usize; 5] = [0, 1, 8, 16, 29];

/// The per-entry reference: `prec(row)` is the precision of the row's
/// window (hybrid) or of the whole kernel (tensor, CUDA).
fn reference(a: &Csr, x: &DenseMatrix, prec: impl Fn(usize) -> Precision) -> DenseMatrix {
    let mut z = DenseMatrix::zeros(a.nrows, x.cols);
    for r in 0..a.nrows {
        let p = prec(r);
        let (s, e) = a.row_range(r);
        for i in s..e {
            let v = p.quantize(a.vals[i]);
            let xrow = x.row(a.col_idx[i] as usize);
            for (o, &xv) in z.row_mut(r).iter_mut().zip(xrow) {
                *o += v * p.quantize(xv);
            }
        }
    }
    z
}

/// `g` with full-mantissa values in [-2, 2), so quantizing the sparse
/// operand is observable.
fn with_values(mut g: Csr, seed: u64) -> Csr {
    let v = DenseMatrix::random_features(1, g.nnz(), seed);
    for (slot, &val) in g.vals.iter_mut().zip(&v.data) {
        *slot = 2.0 * val;
    }
    g
}

/// Random features in [-1, 1) with every fifth value −0.0, and by column
/// `j`: `(j + shift) % 3 == 0` holds one NaN, `== 1` one +Inf and one
/// −Inf, `== 2` nothing else.
fn features(rows: usize, dim: usize, shift: usize, seed: u64) -> DenseMatrix {
    let mut x = DenseMatrix::random_features(rows, dim, seed);
    for (k, v) in x.data.iter_mut().enumerate() {
        if k % 5 == 0 {
            *v = -0.0;
        }
    }
    for j in 0..dim {
        let at = |salt: usize| ((j + 1) * 7919 + salt * 104_729) % rows * dim + j;
        match (j + shift) % 3 {
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

fn assert_bits(got: &DenseMatrix, want: &DenseMatrix, what: &str) {
    assert_eq!(
        (got.rows, got.cols),
        (want.rows, want.cols),
        "{what}: shape"
    );
    let diff = (0..want.data.len()).find(|&k| got.data[k].to_bits() != want.data[k].to_bits());
    if let Some(k) = diff {
        panic!(
            "{what}: z[{}][{}] = {:e} ({:#010x}), reference {:e} ({:#010x})",
            k / want.cols,
            k % want.cols,
            got.data[k],
            got.data[k].to_bits(),
            want.data[k],
            want.data[k].to_bits()
        );
    }
}

#[test]
fn hc_numerics_equal_the_per_entry_reference_bit_for_bit() {
    let dev = DeviceSpec::rtx3090();
    // Dense communities (Tensor windows) and a scattered random graph
    // (CUDA windows).
    let graphs = [
        ("community", gen::community(256, 2_000, 8, 0.9, 3)),
        ("scattered", gen::erdos_renyi(256, 1_200, 4)),
    ];
    let configs = [
        ("fp32", HcSpmm::with_precision(Precision::Fp32)),
        ("tf32", HcSpmm::with_precision(Precision::Tf32)),
        ("bf16", HcSpmm::with_precision(Precision::Bf16)),
        ("fp16", HcSpmm::with_precision(Precision::Fp16)),
        // TF32 Tensor windows beside FP32 CUDA windows.
        ("deployed", HcSpmm::default()),
    ];
    let (mut nan, mut inf, mut choices) = (false, false, [false; 2]);
    for ((graph, g), (name, hc)) in graphs
        .iter()
        .flat_map(|g| configs.iter().map(move |c| (g, c)))
    {
        let a = with_values(g.clone(), 31);
        let pre = hc.preprocess(&a, &dev);
        let wr = pre.partition.window_rows;
        for c in &pre.choices {
            choices[(*c == CoreChoice::Tensor) as usize] = true;
        }
        let window = |r: usize| match pre.choices[r / wr] {
            CoreChoice::Cuda => hc.cuda.precision,
            CoreChoice::Tensor => hc.tensor.precision,
        };
        for dim in WIDTHS {
            for shift in 0..3 {
                let x = features(a.ncols, dim, shift, 5 + dim as u64);
                let at = |kernel: &str| {
                    format!("{kernel} on {graph} at {name}, width {dim}, shift {shift}")
                };
                let hybrid = hc.numeric(&pre, &a, &x);
                assert_bits(&hybrid, &reference(&a, &x, window), &at("hybrid"));
                let tensor = hc.tensor.partition_numeric(&pre.partition, &a, &x);
                let p = hc.tensor.precision;
                assert_bits(&tensor, &reference(&a, &x, |_| p), &at("tensor"));
                let cuda = hc.cuda.numeric(&a, &x);
                let p = hc.cuda.precision;
                assert_bits(&cuda, &reference(&a, &x, |_| p), &at("CUDA"));
                nan |= hybrid.data.iter().any(|v| v.is_nan());
                inf |= hybrid.data.iter().any(|v| v.is_infinite());
            }
        }
    }
    assert!(
        nan && inf,
        "outputs must carry NaN ({nan}) and infinities ({inf})"
    );
    assert_eq!(choices, [true, true], "window choices seen (CUDA, Tensor)");
}
