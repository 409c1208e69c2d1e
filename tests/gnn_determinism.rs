//! Training is pinned bit for bit: GCN, GIN and `DeepGcn` trained with the
//! fused `HcAggregator` must produce the same per-epoch timings, losses
//! and final weights at every thread count, and the same bits as the
//! scalar dense loops the Update kernels replaced (the recorded digests).
//!
//! The dense Update gemms, the transposed weight-gradient gemms and the
//! softmax cross-entropy all split rows over the pool; each output element
//! must still be accumulated in the serial order, so any drift in the
//! arithmetic, the k order or the loss fold shows up as a digest change.
//!
//! Single `#[test]` on purpose: the thread override and the parallel mode
//! are process-global, so concurrent tests in one binary would trample
//! each other's setting.

use gnn::gin::gin_propagation;
use gnn::optim::Sgd;
use gnn::train::{synthetic_labels, EpochTiming, Trainer};
use gnn::{ops, DeepGcn, Gcn, Gin, HcAggregator};
use gpu_sim::DeviceSpec;
use graph_sparse::{gen, Csr, DenseMatrix};
use hc_parallel::ParallelMode;

const THREADS: [usize; 3] = [1, 2, 8];
const EPOCHS: usize = 3;
const LR: f32 = 0.1;

/// Digests of the three trainings below, recorded with the scalar dense
/// loops (one pool chunk per output row, `Xᵀ` materialized, two heap
/// vectors per softmax row) before the register-blocked kernels landed,
/// on x86-64 Linux: the loss goes through the platform's f64 `exp` and
/// `ln`.
const RECORDED: [(&str, u64); 3] = [
    ("gcn", 0xab7a_a64d_afcd_d968),
    ("gin", 0x607e_fcc5_875b_a45a),
    ("deep", 0x6399_0031_81c4_d6dc),
];

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn epochs(&mut self, epochs: &[EpochTiming]) {
        for e in epochs {
            self.word(e.forward_ms.to_bits());
            self.word(e.backward_ms.to_bits());
            self.word(e.loss.to_bits());
        }
    }

    fn weights(&mut self, w: &DenseMatrix) {
        self.word(w.rows as u64);
        self.word(w.cols as u64);
        for v in &w.data {
            self.word(v.to_bits() as u64);
        }
    }
}

struct Setup {
    dev: DeviceSpec,
    a: Csr,
    s: Csr,
    x: DenseMatrix,
    labels: Vec<usize>,
}

impl Setup {
    /// A community graph whose row count and widths are not multiples of
    /// any tile or block size.
    fn new() -> Self {
        let dev = DeviceSpec::rtx3090();
        let g = gen::community(603, 4_000, 9, 0.9, 21);
        let s = gin_propagation(&g, 0.1);
        let a = g.gcn_normalize();
        let x = DenseMatrix::random_features(a.nrows, 37, 22);
        let labels = synthetic_labels(a.nrows, 7);
        Setup {
            dev,
            a,
            s,
            x,
            labels,
        }
    }

    fn gcn(&self) -> u64 {
        let agg = HcAggregator::new(&self.a, &self.dev);
        let mut m = Gcn::new(self.x.cols, 19, 7, 23);
        let tr = Trainer {
            lr: LR,
            epochs: EPOCHS,
        };
        let epochs = tr.train_gcn(&mut m, &self.a, &self.x, &self.labels, &agg, &self.dev);
        let mut d = Digest::new();
        d.epochs(&epochs);
        d.weights(&m.w1);
        d.weights(&m.w2);
        d.0
    }

    fn gin(&self) -> u64 {
        let agg = HcAggregator::new(&self.s, &self.dev);
        let mut m = Gin::new(self.x.cols, 13, 7, 24);
        let tr = Trainer {
            lr: LR,
            epochs: EPOCHS,
        };
        let epochs = tr.train_gin(&mut m, &self.s, &self.x, &self.labels, &agg, &self.dev);
        let mut d = Digest::new();
        d.epochs(&epochs);
        d.weights(&m.w1);
        d.weights(&m.w2);
        d.0
    }

    fn deep(&self) -> u64 {
        let agg = HcAggregator::new(&self.a, &self.dev);
        let mut m = DeepGcn::new(&[self.x.cols, 21, 10, 7], 25);
        let mut opt = Sgd { lr: LR };
        let mut epochs = Vec::with_capacity(EPOCHS);
        for _ in 0..EPOCHS {
            let (cache, fwd) = m.forward(&self.a, &self.x, &agg, &self.dev);
            let logits = cache.h.last().expect("logits");
            let (loss, dlogits, lrun) = ops::softmax_cross_entropy(logits, &self.labels, &self.dev);
            let bwd = m.backward(&self.a, &cache, &dlogits, &agg, &mut opt, &self.dev);
            epochs.push(EpochTiming {
                forward_ms: fwd.time_ms + lrun.time_ms,
                backward_ms: bwd.time_ms,
                loss,
            });
        }
        let mut d = Digest::new();
        d.epochs(&epochs);
        for w in &m.weights {
            d.weights(w);
        }
        d.0
    }
}

#[test]
fn training_is_bit_identical_across_threads_and_to_the_recorded_digests() {
    let setup = Setup::new();
    let saved = hc_parallel::thread_override();
    hc_parallel::set_parallel_mode(ParallelMode::Force);
    let mut runs = Vec::new();
    for threads in THREADS {
        hc_parallel::set_threads(threads);
        runs.push((threads, [setup.gcn(), setup.gin(), setup.deep()]));
    }
    hc_parallel::set_parallel_mode(ParallelMode::Auto);
    hc_parallel::set_threads(saved);

    for (threads, digests) in &runs {
        for ((model, _), got) in RECORDED.iter().zip(digests) {
            println!("{model} at {threads} threads: {got:#018x}");
        }
    }
    let (_, first) = runs[0];
    for (threads, digests) in &runs {
        assert_eq!(
            *digests, first,
            "{threads} threads trained differently from 1 thread"
        );
    }
    for ((model, recorded), got) in RECORDED.iter().zip(first) {
        assert_eq!(
            got, *recorded,
            "{model}: digest {got:#018x} differs from the recorded {recorded:#018x}"
        );
    }
}
