//! Numeric differential suite: every host SpMM entry point must produce
//! the bit pattern of a naive scalar oracle — the per-element loop
//! `z[r][j] += q(a[r][c]) * q(x[c][j])` over each row's CSR entries in
//! order, with `q` the precision the kernel assigns to that entry.
//!
//! The kernels update whole output rows through the vectorized
//! `Precision::axpy`. A tolerance check against the exact reference
//! cannot see one rounding change or one reordered accumulation; a bit
//! comparison can. The oracle quantizes with its own scalar rounding, not
//! the library's, and the sparse values carry full mantissas while a third
//! of the features each are exact TF32 and BF16 rounding ties (odd and
//! even kept LSBs), so a drifting tie rule shows up too.
//!
//! The suite runs under `ParallelMode::Force`: on its 384-vertex graphs
//! the calibrated pool would run every region inline, so the 2- and
//! 8-thread comparisons would compare serial runs. Each of them must count
//! at least one parallel region.
//!
//! Single `#[test]` on purpose: the thread override, the parallel mode and
//! the pool counters are process-global, so concurrent tests in one binary
//! would trample each other's setting.

use gpu_sim::precision::{f16_to_f32, f32_to_f16};
use gpu_sim::{DeviceSpec, Precision};
use graph_sparse::{gen, Csr, DenseMatrix, RowWindowPartition};
use hc_core::{CoreChoice, HcSpmm, KernelFamily, Plan, PlanSpec, StraightforwardHybrid};
use hc_parallel::ParallelMode;

const DIMS: [usize; 6] = [1, 7, 16, 29, 74, 97];
const THREADS: [usize; 3] = [1, 2, 8];

/// The oracle's own scalar quantizer: TF32 and BF16 by the branchy
/// round-to-nearest-even the library used before its quantizer went
/// branch-free, FP16 through the library's binary16 conversions.
fn quantize(p: Precision, x: f32) -> f32 {
    let rne = |bits: u32| {
        if !x.is_finite() {
            return x;
        }
        let drop = 23 - bits;
        let half = 1u32 << (drop - 1);
        let rem = x.to_bits() & ((1u32 << drop) - 1);
        let mut v = x.to_bits() >> drop;
        if rem > half || (rem == half && v & 1 == 1) {
            v += 1;
        }
        f32::from_bits(v << drop)
    };
    match p {
        Precision::Fp32 => x,
        Precision::Tf32 => rne(10),
        Precision::Bf16 => rne(7),
        Precision::Fp16 => f16_to_f32(f32_to_f16(x)),
    }
}

/// The scalar per-element loop the kernels ran before their row update
/// was vectorized. `prec(row, entry)` is the precision of one CSR entry.
fn oracle(a: &Csr, x: &DenseMatrix, prec: impl Fn(usize, usize) -> Precision) -> DenseMatrix {
    let mut z = DenseMatrix::zeros(a.nrows, x.cols);
    for r in 0..a.nrows {
        let (s, e) = a.row_range(r);
        for i in s..e {
            let p = prec(r, i);
            let v = quantize(p, a.vals[i]);
            let xrow = x.row(a.col_idx[i] as usize);
            for (o, &xv) in z.row_mut(r).iter_mut().zip(xrow) {
                *o += v * quantize(p, xv);
            }
        }
    }
    z
}

/// Per-entry precision of the per-tile hybrid: within each window,
/// condensed columns are ranked by density and grouped into TF32-wide
/// tiles; entries in a tile at least `tile_density_threshold` full are
/// TF32, the rest FP32.
fn per_tile_precisions(
    sf: &StraightforwardHybrid,
    part: &RowWindowPartition,
    a: &Csr,
) -> Vec<Precision> {
    let tile_k = Precision::Tf32.tile_k();
    let mut out = vec![Precision::Fp32; a.nnz()];
    for w in part.windows.iter().filter(|w| !w.is_empty()) {
        let counts = w.meta.col_counts();
        let mut order: Vec<usize> = (0..counts.len()).collect();
        order.sort_unstable_by(|&i, &j| counts[j].cmp(&counts[i]));
        let mut tile_of = vec![0usize; counts.len()];
        let mut fill = vec![0u32; counts.len().div_ceil(tile_k)];
        for (rank, &col) in order.iter().enumerate() {
            tile_of[col] = rank / tile_k;
            fill[rank / tile_k] += counts[col];
        }
        for local in 0..w.rows {
            let (s, e) = a.row_range(w.start_row + local);
            for (i, cond) in (s..e).zip(w.meta.row_cond_indices(local)) {
                let t = tile_of[cond as usize];
                if fill[t] as f64 / (w.rows * tile_k) as f64 >= sf.tile_density_threshold {
                    out[i] = Precision::Tf32;
                }
            }
        }
    }
    out
}

/// `g` with every stored value replaced by a full-mantissa value in
/// [-2, 2), so quantizing the sparse operand is observable.
fn with_values(mut g: Csr, seed: u64) -> Csr {
    let v = DenseMatrix::random_features(1, g.nnz(), seed);
    for (slot, &val) in g.vals.iter_mut().zip(&v.data) {
        *slot = 2.0 * val;
    }
    g
}

/// Random features in [-1, 1) where every third value is an exact TF32
/// (13 dropped bits) rounding tie and every third an exact BF16 (16
/// dropped bits) tie; the random kept bits make both LSB parities occur.
fn features(rows: usize, dim: usize, seed: u64) -> DenseMatrix {
    let mut x = DenseMatrix::random_features(rows, dim, seed);
    for (k, v) in x.data.iter_mut().enumerate() {
        let drop = match k % 3 {
            0 => 13,
            1 => 16,
            _ => continue,
        };
        *v = f32::from_bits((v.to_bits() & !((1u32 << drop) - 1)) | (1u32 << (drop - 1)));
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
            "{what}: z[{}][{}] = {:e}, scalar oracle {:e}",
            k / want.cols,
            k % want.cols,
            got.data[k],
            want.data[k]
        );
    }
}

#[test]
fn every_numeric_entry_point_matches_the_scalar_oracle_bit_for_bit() {
    let dev = DeviceSpec::rtx3090();
    let graphs = [
        ("community", gen::community(384, 3_000, 12, 0.9, 1)),
        ("power-law", gen::barabasi_albert(384, 4, 2)),
        ("scattered", gen::erdos_renyi(384, 2_000, 3)),
    ];
    let configs = [
        ("deployed", HcSpmm::default()),
        ("fp32", HcSpmm::with_precision(Precision::Fp32)),
        ("tf32", HcSpmm::with_precision(Precision::Tf32)),
        ("fp16", HcSpmm::with_precision(Precision::Fp16)),
        ("bf16", HcSpmm::with_precision(Precision::Bf16)),
    ];
    // Both window choices and both per-tile precisions must occur, or the
    // per-window and per-entry precision logic goes untested.
    let (mut choices_seen, mut tiles_seen) = ([false; 2], [false; 2]);
    let saved = hc_parallel::thread_override();
    hc_parallel::set_parallel_mode(ParallelMode::Force);
    for (gi, (graph, g)) in graphs.into_iter().enumerate() {
        let a = with_values(g, 100 + gi as u64);
        for (config, hc) in &configs {
            let plan = Plan::prepare_with(*hc, &a, PlanSpec::hybrid(), &dev);
            let (pre, wr) = (&plan.pre, plan.pre.partition.window_rows);
            for c in &pre.choices {
                choices_seen[(*c == CoreChoice::Tensor) as usize] = true;
            }
            let window_precision = |r: usize| match pre.choices[r / wr] {
                CoreChoice::Cuda => hc.cuda.precision,
                CoreChoice::Tensor => hc.tensor.precision,
            };
            let per_tile = per_tile_precisions(&plan.sf, &pre.partition, &a);
            for p in &per_tile {
                tiles_seen[(*p == Precision::Tf32) as usize] = true;
            }
            for dim in DIMS {
                let x = features(a.ncols, dim, 7 + dim as u64);
                let want = |family: KernelFamily| match family {
                    KernelFamily::Straightforward => oracle(&a, &x, |_, i| per_tile[i]),
                    KernelFamily::Cuda => oracle(&a, &x, |_, _| hc.cuda.precision),
                    KernelFamily::Tensor => oracle(&a, &x, |_, _| hc.tensor.precision),
                    KernelFamily::Hybrid => oracle(&a, &x, |r, _| window_precision(r)),
                };
                let wants = KernelFamily::ALL.map(want);
                for threads in THREADS {
                    hc_parallel::set_threads(threads);
                    hc_parallel::reset_pool_stats();
                    let at = |entry: &str| {
                        format!("{entry} on {graph}, {config}, dim {dim}, {threads} threads")
                    };
                    // In `KernelFamily::ALL` order.
                    let direct = [
                        plan.sf.partition_numeric(&pre.partition, &a, &x),
                        plan.hc.cuda.numeric(&a, &x),
                        plan.hc.tensor.partition_numeric(&pre.partition, &a, &x),
                        plan.hc.numeric(pre, &a, &x),
                    ];
                    for ((family, got), want) in KernelFamily::ALL.iter().zip(&direct).zip(&wants) {
                        assert_bits(got, want, &at(&format!("{} numeric", family.name())));
                        let run = plan.execute_as(*family, &a, &x, &dev);
                        assert_bits(
                            &run.z,
                            want,
                            &at(&format!("Plan::execute_as({})", family.name())),
                        );
                    }
                    assert!(
                        threads == 1 || hc_parallel::pool_stats().parallel_regions > 0,
                        "{}: no region fanned out",
                        at("every entry point")
                    );
                }
            }
        }
    }
    hc_parallel::set_parallel_mode(ParallelMode::Auto);
    hc_parallel::set_threads(saved);
    assert_eq!(
        choices_seen,
        [true, true],
        "window choices seen (CUDA, Tensor)"
    );
    assert_eq!(
        tiles_seen,
        [true, true],
        "per-tile precisions seen (FP32, TF32)"
    );
}
