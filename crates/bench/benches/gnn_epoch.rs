//! Wall-clock of one simulated GCN training epoch per aggregation backend,
//! and of the dense Update kernels at the GCN shapes of the `train`
//! workload (YS analogue at scale 128: 13,366 rows, 74 features, hidden
//! 16, 8 classes).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gnn::aggregator::{Aggregator, HcAggregator, KernelAggregator};
use gnn::train::{synthetic_labels, Trainer};
use gnn::Gcn;
use gpu_sim::DeviceSpec;
use graph_sparse::{gen, DenseMatrix};

fn bench_epoch(c: &mut Criterion) {
    let dev = DeviceSpec::rtx3090();
    let a = gen::community(4_096, 24_576, 128, 0.9, 1).gcn_normalize();
    let x = DenseMatrix::random_features(a.nrows, 64, 2);
    let labels = synthetic_labels(a.nrows, 8);
    let tr = Trainer {
        lr: 0.05,
        epochs: 1,
    };

    let mut g = c.benchmark_group("gcn_epoch");
    let hc = HcAggregator::new(&a, &dev);
    let ge = KernelAggregator::new(baselines::GeSpmm);
    let backends: Vec<(&str, &dyn Aggregator)> = vec![("hc_fused", &hc), ("ge_spmm", &ge)];
    for (name, agg) in backends {
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                let mut m = Gcn::new(64, 32, 8, 3);
                tr.train_gcn(&mut m, &a, &x, &labels, agg, &dev)
            })
        });
    }
    g.finish();
}

/// Rows of the YS analogue at scale 128.
const ROWS: usize = 13_366;

fn bench_dense(c: &mut Criterion) {
    let relu = |m: DenseMatrix| m.map(|v| v.max(0.0));
    let x = DenseMatrix::random_features(ROWS, 74, 1);
    let h1 = relu(DenseMatrix::random_features(ROWS, 16, 2));
    let dz1 = relu(DenseMatrix::random_features(ROWS, 16, 3));
    let dlogits = DenseMatrix::random_features(ROWS, 8, 6);
    let w1 = DenseMatrix::random_features(74, 16, 4);
    let w2 = DenseMatrix::random_features(16, 8, 5);
    let w2t = w2.transposed();
    let mut g = c.benchmark_group("hc_dense");
    // Forward `X·W1` and `H1·W2`, backward `(Ā·dLogits)·W2ᵀ`. The layer-1
    // dX product `(Ā·dZ1)·W1ᵀ` is billed but never computed, so it has no
    // row here.
    for (name, a, b) in [
        ("matmul_13366x74x16", &x, &w1),
        ("matmul_13366x16x8", &h1, &w2),
        ("matmul_13366x8x16", &dlogits, &w2t),
    ] {
        g.bench_function(BenchmarkId::from_parameter(name), |bch| {
            bch.iter(|| a.matmul(b))
        });
    }
    // Backward `dW1 = Xᵀ·(Ā·dZ1)`.
    g.bench_function(BenchmarkId::from_parameter("t_matmul_74x13366x16"), |bch| {
        bch.iter(|| x.t_matmul(&dz1))
    });
    g.finish();
}

criterion_group!(benches, bench_epoch, bench_dense);
criterion_main!(benches);
