//! Two-layer GIN (Xu et al., ICLR'19) with manual backprop.
//!
//! Forward per layer: `H = ReLU(((1+ε)·I + A)·X·W)` computed as Aggregation
//! *first* (`S·X` with `S = A + (1+ε)I`), then the Update — the §V-A fusable
//! order, which is why the paper fuses GIN's forward pass. Backward runs
//! Update first, then Aggregation: not fusable.

use gpu_sim::{DeviceSpec, KernelRun};
use graph_sparse::{Coo, Csr, DenseMatrix};
use hc_core::fusion::gemm_run;

use crate::aggregator::Aggregator;
use crate::ops;

/// Two-layer GIN parameters.
#[derive(Debug, Clone)]
pub struct Gin {
    /// Layer-1 weights.
    pub w1: DenseMatrix,
    /// Layer-2 weights.
    pub w2: DenseMatrix,
    /// The ε of `(1+ε)·I + A` (fixed, not learned, as in the paper's
    /// benchmark setup).
    pub eps: f32,
}

/// Build GIN's propagation matrix `S = A + (1+ε)·I`.
pub fn gin_propagation(a: &Csr, eps: f32) -> Csr {
    assert_eq!(a.nrows, a.ncols);
    let mut coo = a.to_coo();
    for i in 0..a.nrows {
        coo.push(i as u32, i as u32, 1.0 + eps);
    }
    let mut c: Coo = coo;
    c.deduplicate();
    c.to_csr()
}

/// Forward cache for the backward pass.
#[derive(Debug, Clone)]
pub struct GinCache {
    /// `S·X` (layer-1 aggregation).
    pub sx: DenseMatrix,
    /// `ReLU((S·X)·W1)`.
    pub h1: DenseMatrix,
    /// `S·H1`.
    pub sh1: DenseMatrix,
    /// Logits `(S·H1)·W2`.
    pub logits: DenseMatrix,
}

impl Gin {
    /// Initialize with small deterministic weights.
    pub fn new(in_dim: usize, hidden: usize, classes: usize, seed: u64) -> Self {
        let s1 = (1.0 / in_dim as f32).sqrt();
        let s2 = (1.0 / hidden as f32).sqrt();
        Gin {
            w1: DenseMatrix::random_features(in_dim, hidden, seed).scale(s1),
            w2: DenseMatrix::random_features(hidden, classes, seed ^ 0xabc).scale(s2),
            eps: 0.1,
        }
    }

    /// Forward pass over the propagation matrix `s` (from
    /// [`gin_propagation`]). Aggregation→Update per layer: HC-SpMM fuses it.
    pub fn forward(
        &self,
        s: &Csr,
        x: &DenseMatrix,
        agg: &dyn Aggregator,
        dev: &DeviceSpec,
    ) -> (GinCache, KernelRun) {
        // Layer 1 (fused agg+update where supported) + ReLU.
        let f1 = agg.agg_update(s, x, &self.w1, dev);
        let mut run = f1.run.clone();
        let (h1, r) = ops::relu(&f1.out, dev);
        run = run.then(&r);
        // Layer 2.
        let f2 = agg.agg_update(s, &h1, &self.w2, dev);
        run = run.then(&f2.run);
        (
            GinCache {
                sx: f1.aggregated,
                h1,
                sh1: f2.aggregated,
                logits: f2.out,
            },
            run,
        )
    }

    /// Backward pass: per layer, Update gemms first, then Aggregation —
    /// unfusable, so every framework pays the same kernel count here.
    #[allow(clippy::too_many_arguments)] // mirrors the training pipeline's data flow
    pub fn backward(
        &mut self,
        s: &Csr,
        _x: &DenseMatrix,
        cache: &GinCache,
        dlogits: &DenseMatrix,
        agg: &dyn Aggregator,
        lr: f32,
        dev: &DeviceSpec,
    ) -> KernelRun {
        // ---- Layer 2 ----
        // dW2 = (S·H1)ᵀ·dLogits.
        let mut run = gemm_run(self.w2.rows, self.w2.cols, cache.sh1.rows, dev);
        let dw2 = cache.sh1.t_matmul(dlogits);
        // d(S·H1) = dLogits·W2ᵀ (Update), then dH1 = Sᵀ·… = S·… (Agg).
        let r = gemm_run(dlogits.rows, self.w2.rows, self.w2.cols, dev);
        run = run.then(&r);
        let dsh1 = dlogits.matmul(&self.w2.transposed());
        let (dh1, r) = agg.aggregate(s, &dsh1, dev);
        run = run.then(&r);

        // ---- Layer 1 ----
        let (dz1, r) = ops::relu_backward(&dh1, &cache.h1, dev);
        run = run.then(&r);
        // dW1 = (S·X)ᵀ·dZ1.
        let r = gemm_run(self.w1.rows, self.w1.cols, cache.sx.rows, dev);
        run = run.then(&r);
        let dw1 = cache.sx.t_matmul(&dz1);
        // dX path S·(dZ1·W1ᵀ): the frameworks the paper models launch its
        // gemm and its `in_dim`-wide aggregation, so both are billed; nothing
        // reads dX of the input features, so neither is computed.
        let r = gemm_run(dz1.rows, self.w1.rows, self.w1.cols, dev);
        run = run.then(&r);
        let r = agg.aggregate_run(s, self.w1.rows, dev);
        run = run.then(&r);

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

    fn exact_aggregator(s: &Csr, dev: &DeviceSpec) -> HcAggregator {
        let hc = HcSpmm {
            selector: Selector {
                w1: 0.0,
                w2: 0.0,
                b: 1.0,
            },
            ..HcSpmm::default()
        };
        HcAggregator::with_kernel(hc, s, dev, true)
    }

    #[test]
    fn propagation_matrix_adds_scaled_identity() {
        let a = gen::erdos_renyi(10, 20, 1);
        let s = gin_propagation(&a, 0.5);
        assert_eq!(s.nnz(), a.nnz() + 10);
        let d = s.to_dense();
        for i in 0..10 {
            assert!((d[(i, i)] - 1.5).abs() < 1e-6);
        }
    }

    #[test]
    fn gin_gradients_match_finite_differences() {
        let dev = DeviceSpec::rtx3090();
        let a = gen::erdos_renyi(20, 50, 2);
        let s = gin_propagation(&a, 0.1);
        let x = DenseMatrix::random_features(20, 5, 3);
        let labels: Vec<usize> = (0..20).map(|i| i % 3).collect();
        let agg = exact_aggregator(&s, &dev);
        let model = Gin::new(5, 4, 3, 9);

        let loss_of = |m: &Gin| {
            let (c, _) = m.forward(&s, &x, &agg, &dev);
            ops::softmax_cross_entropy(&c.logits, &labels, &dev).0
        };
        let mut probe = model.clone();
        let (cache, _) = probe.forward(&s, &x, &agg, &dev);
        let (_, dlogits, _) = ops::softmax_cross_entropy(&cache.logits, &labels, &dev);
        let w1_before = probe.w1.clone();
        probe.backward(&s, &x, &cache, &dlogits, &agg, 1.0, &dev);

        let eps = 1e-2f32;
        for idx in [0usize, 7, 19] {
            let an = w1_before.data[idx] - probe.w1.data[idx];
            let mut mp = model.clone();
            let mut mm = model.clone();
            mp.w1.data[idx] += eps;
            mm.w1.data[idx] -= eps;
            let fd = ((loss_of(&mp) - loss_of(&mm)) / (2.0 * eps as f64)) as f32;
            assert!(
                (fd - an).abs() < 2e-2 * (1.0 + fd.abs().max(an.abs())),
                "w1[{idx}]: fd {fd} vs analytic {an}"
            );
        }
    }

    #[test]
    fn gin_training_reduces_loss() {
        let dev = DeviceSpec::rtx3090();
        let a = gen::community(48, 150, 3, 0.9, 4);
        let s = gin_propagation(&a, 0.1);
        let x = DenseMatrix::random_features(48, 6, 5);
        let labels: Vec<usize> = (0..48).map(|i| i % 4).collect();
        let agg = exact_aggregator(&s, &dev);
        let mut model = Gin::new(6, 8, 4, 6);
        let mut first = 0.0;
        let mut last = 0.0;
        for e in 0..30 {
            let (cache, _) = model.forward(&s, &x, &agg, &dev);
            let (loss, dlogits, _) = ops::softmax_cross_entropy(&cache.logits, &labels, &dev);
            if e == 0 {
                first = loss;
            }
            last = loss;
            model.backward(&s, &x, &cache, &dlogits, &agg, 0.5, &dev);
        }
        assert!(last < first * 0.9, "GIN loss should fall: {first} → {last}");
    }

    #[test]
    fn gin_forward_fuses_fewer_launches_than_unfused() {
        let dev = DeviceSpec::rtx3090();
        let a = gen::community(256, 1500, 8, 0.9, 7);
        let s = gin_propagation(&a, 0.1);
        let x = DenseMatrix::random_features(256, 16, 8);
        let fused = exact_aggregator(&s, &dev);
        let mut unfused = exact_aggregator(&s, &dev);
        unfused.fuse = false;
        let m = Gin::new(16, 8, 4, 9);
        let (_, rf) = m.forward(&s, &x, &fused, &dev);
        let (_, ru) = m.forward(&s, &x, &unfused, &dev);
        assert!(rf.profile.launches < ru.profile.launches);
        assert!(rf.time_ms < ru.time_ms);
    }
}
