//! Every SpMM kernel in the workspace must compute the same product.
//!
//! CUDA-path kernels are bit-exact against the reference multiply; Tensor
//! paths match within TF32 tolerance; the half-precision baselines are
//! bit-exact against a scalar FP16 loop. Every kernel's timing-only
//! `spmm_run` bills exactly the run of its `spmm`. Property-based over
//! random graphs.

use baselines::{
    cpu_spmm, CusparseSpmm, DtcSpmm, GeSpmm, SputnikHalfSpmm, SputnikSpmm, TcGnnSpmm, TileCsrSpmm,
};
use gpu_sim::precision::{f16_to_f32, f32_to_f16};
use gpu_sim::{DeviceSpec, KernelRun, Precision};
use graph_sparse::{gen, Coo, Csr, DenseMatrix};
use hc_core::{CudaSpmm, HcSpmm, SpmmKernel, StraightforwardHybrid, TensorSpmm};
use proptest::prelude::*;

fn exact_kernels() -> Vec<Box<dyn SpmmKernel>> {
    vec![
        Box::new(CudaSpmm::optimized()),
        Box::new(CudaSpmm::unoptimized()),
        Box::new(CusparseSpmm),
        Box::new(SputnikSpmm),
        Box::new(GeSpmm),
    ]
}

fn quantized_kernels() -> Vec<Box<dyn SpmmKernel>> {
    vec![
        Box::new(TensorSpmm::optimized()),
        Box::new(TensorSpmm::unoptimized()),
        Box::new(TcGnnSpmm::default()),
        Box::new(DtcSpmm::default()),
        Box::new(HcSpmm::default()),
        Box::new(StraightforwardHybrid::default()),
    ]
}

/// Both clocks (as bits) and every counter of a run record.
fn run_bits(r: &KernelRun) -> (u64, u64, gpu_sim::KernelProfile) {
    (
        r.time_ms.to_bits(),
        r.makespan_cycles.to_bits(),
        r.profile.clone(),
    )
}

/// Random sparse matrix strategy: shape plus entry list.
fn arb_csr() -> impl Strategy<Value = Csr> {
    (2usize..60, 2usize..60).prop_flat_map(|(r, c)| {
        proptest::collection::vec((0..r as u32, 0..c as u32, -2.0f32..2.0), 0..200)
            .prop_map(move |entries| Coo::from_triples(r, c, entries).to_csr())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cuda_family_is_bit_exact(a in arb_csr(), dim in 1usize..70, seed in 0u64..100) {
        let x = DenseMatrix::random_features(a.ncols, dim, seed);
        let dev = DeviceSpec::rtx3090();
        let want = a.spmm_reference(&x);
        for k in exact_kernels() {
            let r = k.spmm(&a, &x, &dev);
            prop_assert_eq!(&r.z, &want, "{} diverged", k.name());
            prop_assert!(r.run.time_ms >= 0.0);
            prop_assert_eq!(run_bits(&k.spmm_run(&a, dim, &dev)), run_bits(&r.run), "{} spmm_run", k.name());
        }
        prop_assert_eq!(&cpu_spmm(&a, &x).z, &want);
    }

    #[test]
    fn tensor_family_matches_within_tf32(a in arb_csr(), dim in 1usize..70, seed in 0u64..100) {
        let x = DenseMatrix::random_features(a.ncols, dim, seed);
        let dev = DeviceSpec::rtx3090();
        let want = a.spmm_reference(&x);
        // Worst-case TF32 error ~ 2^-11 per product, summed over a row.
        let max_row_nnz = (0..a.nrows).map(|r| a.degree(r)).max().unwrap_or(0);
        let tol = 1e-3 * (max_row_nnz as f32 + 1.0) * 4.0;
        for k in quantized_kernels() {
            let r = k.spmm(&a, &x, &dev);
            let err = want.max_abs_diff(&r.z);
            prop_assert!(err <= tol, "{}: err {} > tol {}", k.name(), err, tol);
            prop_assert_eq!(run_bits(&k.spmm_run(&a, dim, &dev)), run_bits(&r.run), "{} spmm_run", k.name());
        }
    }

    #[test]
    fn half_baselines_match_the_scalar_fp16_loop(a in arb_csr(), dim in 1usize..70, seed in 0u64..100) {
        // FP16 operands, FP32 accumulation in CSR entry order, bit for bit.
        let x = DenseMatrix::random_features(a.ncols, dim, seed);
        let q = |v: f32| f16_to_f32(f32_to_f16(v));
        let mut want = DenseMatrix::zeros(a.nrows, dim);
        for r in 0..a.nrows {
            let (s, e) = a.row_range(r);
            for i in s..e {
                let v = q(a.vals[i]);
                let xrow = x.row(a.col_idx[i] as usize);
                for (o, &xv) in want.row_mut(r).iter_mut().zip(xrow) {
                    *o += v * q(xv);
                }
            }
        }
        let bits = |m: &DenseMatrix| m.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let dev = DeviceSpec::rtx3090();
        let half: [&dyn SpmmKernel; 2] = [&SputnikHalfSpmm, &TileCsrSpmm];
        for k in half {
            let r = k.spmm(&a, &x, &dev);
            prop_assert_eq!(bits(&r.z), bits(&want), "{} diverged", k.name());
            prop_assert_eq!(run_bits(&k.spmm_run(&a, dim, &dev)), run_bits(&r.run), "{} spmm_run", k.name());
        }
    }

    #[test]
    fn spmm_is_linear_in_x(a in arb_csr(), dim in 1usize..20, seed in 0u64..50) {
        // A·(x + y) == A·x + A·y for the exact paths.
        let x = DenseMatrix::random_features(a.ncols, dim, seed);
        let y = DenseMatrix::random_features(a.ncols, dim, seed ^ 0xbeef);
        let dev = DeviceSpec::rtx3090();
        let k = CudaSpmm::optimized();
        let lhs = k.spmm(&a, &x.add(&y), &dev).z;
        let rhs = k.spmm(&a, &x, &dev).z.add(&k.spmm(&a, &y, &dev).z);
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-4);
    }

    #[test]
    fn simulated_time_is_deterministic(a in arb_csr(), seed in 0u64..50) {
        let x = DenseMatrix::random_features(a.ncols, 16, seed);
        let dev = DeviceSpec::rtx3090();
        for k in exact_kernels().into_iter().chain(quantized_kernels()) {
            let t1 = k.spmm(&a, &x, &dev).run.time_ms;
            let t2 = k.spmm(&a, &x, &dev).run.time_ms;
            prop_assert_eq!(t1, t2, "{} nondeterministic", k.name());
        }
    }
}

#[test]
fn fp32_tensor_and_hybrid_are_bit_exact() {
    let a = gen::community(700, 5_000, 20, 0.9, 3);
    let x = DenseMatrix::random_features(700, 48, 4);
    let dev = DeviceSpec::rtx3090();
    let want = a.spmm_reference(&x);
    assert_eq!(
        TensorSpmm::with_precision(Precision::Fp32)
            .spmm(&a, &x, &dev)
            .z,
        want
    );
    assert_eq!(
        HcSpmm::with_precision(Precision::Fp32).spmm(&a, &x, &dev).z,
        want
    );
}

#[test]
fn empty_and_degenerate_inputs() {
    let dev = DeviceSpec::rtx3090();
    for k in exact_kernels().into_iter().chain(quantized_kernels()) {
        // Empty matrix.
        let a = Csr::empty(33, 17);
        let x = DenseMatrix::random_features(17, 5, 1);
        let r = k.spmm(&a, &x, &dev);
        assert_eq!(r.z, DenseMatrix::zeros(33, 5), "{} on empty", k.name());
        // Single entry.
        let a = Coo::from_triples(3, 3, [(1, 2, 4.0)]).to_csr();
        let x = DenseMatrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let r = k.spmm(&a, &x, &dev);
        assert!(
            (r.z[(1, 0)] - 12.0).abs() < 1e-2,
            "{} single entry",
            k.name()
        );
    }
}

#[test]
fn all_kernels_report_plausible_profiles() {
    let a = gen::barabasi_albert(2_000, 4, 9);
    let x = DenseMatrix::random_features(2_000, 64, 10);
    let dev = DeviceSpec::rtx3090();
    for k in baselines::all_kernels() {
        let r = k.spmm(&a, &x, &dev);
        let p = &r.run.profile;
        assert!(p.dram_bytes() > 0, "{}: no traffic", k.name());
        assert!(p.blocks > 0, "{}: no blocks", k.name());
        assert_eq!(p.launches, 1, "{}: wrong launch count", k.name());
        // Output bytes at least the Z matrix (stored once).
        assert!(
            p.dram_bytes_stored >= (a.nrows * x.cols * 4) as u64,
            "{}: Z not stored",
            k.name()
        );
    }
}
