//! Two-layer GCN (Kipf & Welling, ICLR'17) with manual backprop.
//!
//! Forward per layer: `H = ReLU(Ā (X W))` — the framework computes the
//! Update (`X·W`) first and then Aggregation, so forward is *not* fusable.
//! Backward per layer runs Aggregation first (`Ā·dH`) and then the Update
//! multiplies — exactly the pattern §V-A fuses.

use gpu_sim::{DeviceSpec, KernelRun};
use graph_sparse::{Csr, DenseMatrix};
use hc_core::fusion::gemm_run;

use crate::aggregator::Aggregator;
use crate::ops;

/// Two-layer GCN parameters.
#[derive(Debug, Clone)]
pub struct Gcn {
    /// Layer-1 weights (`in_dim × hidden`).
    pub w1: DenseMatrix,
    /// Layer-2 weights (`hidden × classes`).
    pub w2: DenseMatrix,
}

/// Forward activations cached for the backward pass.
#[derive(Debug, Clone)]
pub struct GcnCache {
    /// `X·W1`.
    pub xw1: DenseMatrix,
    /// `ReLU(Ā·X·W1)` — the layer-1 output.
    pub h1: DenseMatrix,
    /// `H1·W2`.
    pub h1w2: DenseMatrix,
    /// `Ā·(H1·W2)` — the layer-2 output, the logits that feed the loss.
    pub logits: DenseMatrix,
}

impl Gcn {
    /// Initialize with small deterministic weights.
    pub fn new(in_dim: usize, hidden: usize, classes: usize, seed: u64) -> Self {
        let scale1 = (1.0 / in_dim as f32).sqrt();
        let scale2 = (1.0 / hidden as f32).sqrt();
        Gcn {
            w1: DenseMatrix::random_features(in_dim, hidden, seed).scale(scale1),
            w2: DenseMatrix::random_features(hidden, classes, seed ^ 0xff).scale(scale2),
        }
    }

    /// Forward pass. Returns logits, the cache, and the simulated run.
    pub fn forward(
        &self,
        a: &Csr,
        x: &DenseMatrix,
        agg: &dyn Aggregator,
        dev: &DeviceSpec,
    ) -> (GcnCache, KernelRun) {
        // Layer 1: Update (gemm) then Aggregation then ReLU.
        let mut run = gemm_run(x.rows, self.w1.cols, self.w1.rows, dev);
        let xw1 = x.matmul(&self.w1);
        let (z1, r) = agg.aggregate(a, &xw1, dev);
        run = run.then(&r);
        let (h1, r) = ops::relu(&z1, dev);
        run = run.then(&r);
        // Layer 2: Update then Aggregation (no activation on logits).
        let r2 = gemm_run(h1.rows, self.w2.cols, self.w2.rows, dev);
        run = run.then(&r2);
        let h1w2 = h1.matmul(&self.w2);
        let (logits, r) = agg.aggregate(a, &h1w2, dev);
        run = run.then(&r);
        (
            GcnCache {
                xw1,
                h1,
                h1w2,
                logits,
            },
            run,
        )
    }

    /// Backward pass from `dlogits`; applies SGD with learning rate `lr` and
    /// returns the simulated run. Gradient flow per layer: Aggregation
    /// (`Ā·dH`, symmetric Ā) then the two Update gemms — the first of which
    /// (`(Ā·dH)·Wᵀ`) is fused with the aggregation by HC-SpMM. At layer 1
    /// that product is dX, which nothing reads: it is billed, not computed.
    #[allow(clippy::too_many_arguments)] // mirrors the training pipeline's data flow
    pub fn backward(
        &mut self,
        a: &Csr,
        x: &DenseMatrix,
        cache: &GcnCache,
        dlogits: &DenseMatrix,
        agg: &dyn Aggregator,
        lr: f32,
        dev: &DeviceSpec,
    ) -> KernelRun {
        // ---- Layer 2 ----
        // Fusable pair: dH1 = (Ā·dLogits)·W2ᵀ.
        let w2t = self.w2.transposed();
        let f2 = agg.agg_update(a, dlogits, &w2t, dev);
        let mut run = f2.run.clone();
        // dW2 = H1ᵀ·(Ā·dLogits).
        let r = gemm_run(self.w2.rows, self.w2.cols, cache.h1.rows, dev);
        run = run.then(&r);
        let dw2 = cache.h1.t_matmul(&f2.aggregated);
        let dh1 = f2.out;

        // ---- Layer 1 ----
        let (dz1, r) = ops::relu_backward(&dh1, &cache.h1, dev);
        run = run.then(&r);
        // Fusable pair: the dX-side product (Ā·dZ1)·W1ᵀ. The frameworks the
        // paper models launch it, so it is billed at its `in_dim` width;
        // nothing reads dX of the input features, so only the aggregation
        // Ā·dZ1, which feeds dW1, is computed.
        let (adz1, r) = agg.agg_update_run(a, &dz1, self.w1.rows, dev);
        run = run.then(&r);
        // dW1 = Xᵀ·(Ā·dZ1).
        let r = gemm_run(self.w1.rows, self.w1.cols, x.rows, dev);
        run = run.then(&r);
        let dw1 = x.t_matmul(&adz1);

        // ---- SGD ----
        let r = ops::sgd_step(&mut self.w2, &dw2, lr, dev);
        run = run.then(&r);
        let r = ops::sgd_step(&mut self.w1, &dw1, lr, dev);
        run.then(&r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregator::HcAggregator;
    use graph_sparse::gen;
    use hc_core::{HcSpmm, Selector};

    fn tiny_setup() -> (Csr, DenseMatrix, Vec<usize>) {
        let a = gen::erdos_renyi(24, 60, 1).gcn_normalize();
        let x = DenseMatrix::random_features(24, 6, 2);
        let labels: Vec<usize> = (0..24).map(|i| i % 3).collect();
        (a, x, labels)
    }

    /// Aggregator that forces every window onto CUDA cores, keeping the
    /// whole pipeline exact f32 — required for finite-difference checks.
    fn exact_aggregator(a: &Csr, dev: &DeviceSpec) -> HcAggregator {
        let hc = HcSpmm {
            selector: Selector {
                w1: 0.0,
                w2: 0.0,
                b: 1.0,
            },
            ..HcSpmm::default()
        };
        HcAggregator::with_kernel(hc, a, dev, true)
    }

    #[test]
    fn gradients_match_finite_differences() {
        let dev = DeviceSpec::rtx3090();
        let (a, x, labels) = tiny_setup();
        let agg = exact_aggregator(&a, &dev);
        let model = Gcn::new(6, 5, 3, 7);

        let loss_of = |m: &Gcn| -> f64 {
            let (c, _) = m.forward(&a, &x, &agg, &dev);
            let (l, _, _) = ops::softmax_cross_entropy(&c.logits, &labels, &dev);
            l
        };

        // Analytic gradients via one backward pass with lr folded out: run
        // backward with lr=1 on a clone and read off the weight delta.
        let mut probe = model.clone();
        let (cache, _) = probe.forward(&a, &x, &agg, &dev);
        let (_, dlogits, _) = ops::softmax_cross_entropy(&cache.logits, &labels, &dev);
        let before_w1 = probe.w1.clone();
        let before_w2 = probe.w2.clone();
        probe.backward(&a, &x, &cache, &dlogits, &agg, 1.0, &dev);
        let grad_w1 = DenseMatrix {
            rows: before_w1.rows,
            cols: before_w1.cols,
            data: before_w1
                .data
                .iter()
                .zip(&probe.w1.data)
                .map(|(b, a)| b - a)
                .collect(),
        };
        let grad_w2 = DenseMatrix {
            rows: before_w2.rows,
            cols: before_w2.cols,
            data: before_w2
                .data
                .iter()
                .zip(&probe.w2.data)
                .map(|(b, a)| b - a)
                .collect(),
        };

        let eps = 1e-2f32;
        let mut checked = 0;
        for (grad, pick) in [(&grad_w1, 1), (&grad_w2, 2)] {
            for idx in [0usize, grad.data.len() / 2, grad.data.len() - 1] {
                let mut mp = model.clone();
                let mut mm = model.clone();
                match pick {
                    1 => {
                        mp.w1.data[idx] += eps;
                        mm.w1.data[idx] -= eps;
                    }
                    _ => {
                        mp.w2.data[idx] += eps;
                        mm.w2.data[idx] -= eps;
                    }
                }
                let fd = ((loss_of(&mp) - loss_of(&mm)) / (2.0 * eps as f64)) as f32;
                let an = grad.data[idx];
                assert!(
                    (fd - an).abs() < 2e-2 * (1.0 + fd.abs().max(an.abs())),
                    "w{pick}[{idx}]: fd {fd} vs analytic {an}"
                );
                checked += 1;
            }
        }
        assert_eq!(checked, 6);
    }

    #[test]
    fn training_reduces_loss() {
        let dev = DeviceSpec::rtx3090();
        let (a, x, labels) = tiny_setup();
        let agg = exact_aggregator(&a, &dev);
        let mut model = Gcn::new(6, 8, 3, 11);
        let mut losses = Vec::new();
        for _ in 0..30 {
            let (cache, _) = model.forward(&a, &x, &agg, &dev);
            let (loss, dlogits, _) = ops::softmax_cross_entropy(&cache.logits, &labels, &dev);
            losses.push(loss);
            model.backward(&a, &x, &cache, &dlogits, &agg, 0.5, &dev);
        }
        // Modular labels on a random graph are nearly unlearnable through
        // two smoothing layers, so the drop is small — but it must be a
        // *drop*, strictly monotone (gradient direction is separately
        // verified against finite differences).
        for w in losses.windows(2) {
            assert!(w[1] < w[0], "loss increased: {losses:?}");
        }
    }

    #[test]
    fn forward_and_backward_report_time() {
        let dev = DeviceSpec::rtx3090();
        let (a, x, labels) = tiny_setup();
        let agg = exact_aggregator(&a, &dev);
        let mut model = Gcn::new(6, 8, 3, 11);
        let (cache, fwd) = model.forward(&a, &x, &agg, &dev);
        let (_, dlogits, _) = ops::softmax_cross_entropy(&cache.logits, &labels, &dev);
        let bwd = model.backward(&a, &x, &cache, &dlogits, &agg, 0.1, &dev);
        assert!(fwd.time_ms > 0.0);
        assert!(bwd.time_ms > 0.0);
        // Forward: 2 gemms + 2 aggs + 1 relu = 5 launches.
        assert_eq!(fwd.profile.launches, 5);
    }
}
