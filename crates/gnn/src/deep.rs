//! K-layer GCN — the "deeper models" the paper's Fig. 16 discussion points
//! at ("larger datasets and deeper models that require more epochs").
//!
//! Same algebra as [`crate::Gcn`], generalized to any depth, with a
//! pluggable [`Optimizer`]. ReLU between layers, raw logits at the end;
//! each backward layer runs Aggregation first, so HC-SpMM's kernel fusion
//! applies at every layer.

use gpu_sim::{DeviceSpec, KernelRun};
use graph_sparse::{Csr, DenseMatrix};
use hc_core::fusion::gemm_run;

use crate::aggregator::Aggregator;
use crate::ops;
use crate::optim::Optimizer;

/// Multi-layer GCN parameters.
#[derive(Debug, Clone)]
pub struct DeepGcn {
    /// Per-layer weights: `dims[i] × dims[i+1]`.
    pub weights: Vec<DenseMatrix>,
}

/// Forward activations cached per layer.
#[derive(Debug, Clone)]
pub struct DeepCache {
    /// Input to each layer (`h[0]` = X, `h[i]` = layer i's activated
    /// output; `h.len() == layers + 1`; the last is the logits).
    pub h: Vec<DenseMatrix>,
}

impl DeepGcn {
    /// Build with the layer widths `dims` (input, hidden…, classes).
    pub fn new(dims: &[usize], seed: u64) -> Self {
        assert!(dims.len() >= 2, "need at least one layer");
        let weights = dims
            .windows(2)
            .enumerate()
            .map(|(i, d)| {
                let scale = (1.0 / d[0] as f32).sqrt();
                DenseMatrix::random_features(d[0], d[1], seed.wrapping_add(i as u64 * 7919))
                    .scale(scale)
            })
            .collect();
        DeepGcn { weights }
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.weights.len()
    }

    /// Forward pass: per layer `H ← act(Ā·(H·W))`, ReLU on all but the last.
    pub fn forward(
        &self,
        a: &Csr,
        x: &DenseMatrix,
        agg: &dyn Aggregator,
        dev: &DeviceSpec,
    ) -> (DeepCache, KernelRun) {
        let mut run = KernelRun::default();
        let mut h = vec![x.clone()];
        for (i, w) in self.weights.iter().enumerate() {
            let cur = h.last().expect("non-empty");
            let r = gemm_run(cur.rows, w.cols, w.rows, dev);
            run = run.then(&r);
            let hw = cur.matmul(w);
            let (z, r) = agg.aggregate(a, &hw, dev);
            run = run.then(&r);
            let out = if i + 1 < self.weights.len() {
                let (act, r) = ops::relu(&z, dev);
                run = run.then(&r);
                act
            } else {
                z
            };
            h.push(out);
        }
        (DeepCache { h }, run)
    }

    /// Backward pass from `dlogits`, applying `opt` layer by layer.
    pub fn backward(
        &mut self,
        a: &Csr,
        cache: &DeepCache,
        dlogits: &DenseMatrix,
        agg: &dyn Aggregator,
        opt: &mut dyn Optimizer,
        dev: &DeviceSpec,
    ) -> KernelRun {
        let mut run = KernelRun::default();
        let mut grad = dlogits.clone();
        let mut grads: Vec<DenseMatrix> = Vec::with_capacity(self.depth());
        for i in (0..self.depth()).rev() {
            // ReLU mask (all layers except the last output).
            if i + 1 < self.depth() {
                let (g, r) = ops::relu_backward(&grad, &cache.h[i + 1], dev);
                run = run.then(&r);
                grad = g;
            }
            // Fusable pair: the input-side product (Ā·grad)·Wᵀ, billed at
            // every layer. Only a lower layer reads it; at the first layer
            // it is dX of the input features, so there only the aggregation
            // Ā·grad, which feeds dW_0, is computed.
            let w = &self.weights[i];
            let (agrad, r) = agg.agg_update_run(a, &grad, w.rows, dev);
            run = run.then(&r);
            // dW_i = (H_i)ᵀ·(Ā·grad) — H_i is the layer's input.
            let r = gemm_run(w.rows, w.cols, cache.h[i].rows, dev);
            run = run.then(&r);
            grads.push(cache.h[i].t_matmul(&agrad));
            if i > 0 {
                grad = agrad.matmul(&w.transposed());
            }
        }
        grads.reverse();
        for (i, dw) in grads.iter().enumerate() {
            let r = opt.step(i, &mut self.weights[i], dw, dev);
            run = run.then(&r);
        }
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregator::HcAggregator;
    use crate::optim::{Adam, Sgd};
    use graph_sparse::gen;
    use hc_core::{HcSpmm, Selector};

    fn exact_agg(a: &Csr, dev: &DeviceSpec) -> HcAggregator {
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
    fn two_layer_deep_matches_gcn() {
        // DeepGcn with 2 layers must produce the same forward as Gcn given
        // the same weights.
        let dev = DeviceSpec::rtx3090();
        let a = gen::erdos_renyi(64, 200, 1).gcn_normalize();
        let x = DenseMatrix::random_features(64, 8, 2);
        let agg = exact_agg(&a, &dev);
        let deep = DeepGcn::new(&[8, 6, 3], 5);
        let shallow = crate::Gcn {
            w1: deep.weights[0].clone(),
            w2: deep.weights[1].clone(),
        };
        let (dc, _) = deep.forward(&a, &x, &agg, &dev);
        let (sc, _) = shallow.forward(&a, &x, &agg, &dev);
        assert_eq!(dc.h.last().unwrap(), &sc.logits);
    }

    #[test]
    fn deep_gradients_match_finite_differences() {
        let dev = DeviceSpec::rtx3090();
        let a = gen::erdos_renyi(20, 60, 3).gcn_normalize();
        let x = DenseMatrix::random_features(20, 4, 4);
        let labels: Vec<usize> = (0..20).map(|i| i % 3).collect();
        let agg = exact_agg(&a, &dev);
        let model = DeepGcn::new(&[4, 5, 4, 3], 7); // three layers

        let loss_of = |m: &DeepGcn| {
            let (c, _) = m.forward(&a, &x, &agg, &dev);
            ops::softmax_cross_entropy(c.h.last().unwrap(), &labels, &dev).0
        };
        let mut probe = model.clone();
        let (cache, _) = probe.forward(&a, &x, &agg, &dev);
        let (_, dl, _) = ops::softmax_cross_entropy(cache.h.last().unwrap(), &labels, &dev);
        let before: Vec<DenseMatrix> = probe.weights.clone();
        let mut sgd = Sgd { lr: 1.0 };
        probe.backward(&a, &cache, &dl, &agg, &mut sgd, &dev);

        let eps = 1e-2f32;
        #[allow(clippy::needless_range_loop)] // probing two indices per layer
        for layer in 0..3 {
            for idx in [0usize, before[layer].data.len() - 1] {
                let analytic = before[layer].data[idx] - probe.weights[layer].data[idx];
                let mut mp = model.clone();
                let mut mm = model.clone();
                mp.weights[layer].data[idx] += eps;
                mm.weights[layer].data[idx] -= eps;
                let fd = ((loss_of(&mp) - loss_of(&mm)) / (2.0 * eps as f64)) as f32;
                assert!(
                    (fd - analytic).abs() < 2e-2 * (1.0 + fd.abs().max(analytic.abs())),
                    "layer {layer} idx {idx}: fd {fd} vs {analytic}"
                );
            }
        }
    }

    #[test]
    fn adam_trains_deep_model_monotonically_at_first() {
        let dev = DeviceSpec::rtx3090();
        let a = gen::community(96, 500, 6, 0.9, 6).gcn_normalize();
        let x = DenseMatrix::random_features(96, 8, 7);
        let labels: Vec<usize> = (0..96).map(|i| i / 16 % 4).collect();
        let agg = exact_agg(&a, &dev);
        let mut model = DeepGcn::new(&[8, 12, 8, 4], 9);
        let mut opt = Adam::new(0.01);
        let mut losses = Vec::new();
        for _ in 0..20 {
            let (cache, _) = model.forward(&a, &x, &agg, &dev);
            let (loss, dl, _) = ops::softmax_cross_entropy(cache.h.last().unwrap(), &labels, &dev);
            losses.push(loss);
            model.backward(&a, &cache, &dl, &agg, &mut opt, &dev);
        }
        assert!(
            losses.last().unwrap() < &losses[0],
            "Adam should reduce the loss: {losses:?}"
        );
    }

    #[test]
    fn deeper_models_cost_proportionally_more() {
        let dev = DeviceSpec::rtx3090();
        let a = gen::community(512, 3_000, 16, 0.9, 8).gcn_normalize();
        let x = DenseMatrix::random_features(512, 16, 9);
        let agg = exact_agg(&a, &dev);
        let d2 = DeepGcn::new(&[16, 16, 4], 1);
        let d4 = DeepGcn::new(&[16, 16, 16, 16, 4], 1);
        let (_, r2) = d2.forward(&a, &x, &agg, &dev);
        let (_, r4) = d4.forward(&a, &x, &agg, &dev);
        assert!(r4.time_ms > 1.5 * r2.time_ms);
    }
}
