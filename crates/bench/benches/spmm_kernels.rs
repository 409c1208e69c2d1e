//! Criterion microbenchmarks: wall-clock of the simulated kernels
//! themselves (numerics + cost accounting) on a mid-size graph.
//!
//! These measure *this implementation*, complementing the `src/bin`
//! harnesses that report *simulated device* time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpu_sim::{DeviceSpec, Precision};
use graph_sparse::{gen, DenseMatrix};
use hc_core::HcSpmm;

fn bench_kernels(c: &mut Criterion) {
    let a = gen::community(8_192, 49_152, 256, 0.9, 1);
    let x = DenseMatrix::random_features(a.nrows, 64, 2);
    let dev = DeviceSpec::rtx3090();
    let mut g = c.benchmark_group("spmm_kernels");
    for k in baselines::all_kernels() {
        g.bench_function(BenchmarkId::from_parameter(k.name()), |b| {
            b.iter(|| k.spmm(&a, &x, &dev))
        });
    }
    g.finish();
}

/// The host numeric layer alone: `HcSpmm::numeric` on a prepared
/// partition, without the preprocessing and cost model that `spmm` reruns.
fn bench_numeric(c: &mut Criterion) {
    let a = gen::community(8_192, 49_152, 256, 0.9, 1);
    let x = DenseMatrix::random_features(a.nrows, 64, 2);
    let dev = DeviceSpec::rtx3090();
    let mut g = c.benchmark_group("hc_numeric");
    for p in [
        Precision::Fp32,
        Precision::Tf32,
        Precision::Fp16,
        Precision::Bf16,
    ] {
        let hc = HcSpmm::with_precision(p);
        let pre = hc.preprocess(&a, &dev);
        g.bench_function(BenchmarkId::from_parameter(p.name()), |b| {
            b.iter(|| hc.numeric(&pre, &a, &x))
        });
    }
    g.finish();
}

fn bench_preprocessing(c: &mut Criterion) {
    let a = gen::community(16_384, 98_304, 512, 0.9, 3);
    let dev = DeviceSpec::rtx3090();
    let hc = HcSpmm::default();
    c.bench_function("hc_preprocess_16k", |b| b.iter(|| hc.preprocess(&a, &dev)));
}

criterion_group!(benches, bench_kernels, bench_numeric, bench_preprocessing);
criterion_main!(benches);
