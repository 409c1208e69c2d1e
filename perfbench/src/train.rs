//! `train`: GCN training with the fused `HcAggregator` on one mid-size
//! analogue. One op is one epoch. The plan is prepared in setup; the
//! dense ops, softmax cross-entropy and the fused forward/backward
//! aggregation run in the timed loop.

use std::time::Instant;

use gnn::{ops, Gcn, HcAggregator, Trainer};
use gpu_sim::DeviceSpec;
use graph_sparse::{Csr, DatasetId, DenseMatrix, StructureFingerprint};

use crate::bench::{metric, per_op, Metric, Pass, Totals, Workload};
use crate::host::Digest;
use crate::inputs::{analogue, mix, Rng};
use crate::trace::Tracer;

const ID: DatasetId = DatasetId::YS;
const SCALE: usize = 128;
const HIDDEN: usize = 16;
const CLASSES: usize = 8;
const EPOCHS: usize = 10;
const LR: f32 = 0.05;

pub struct Train {
    dev: DeviceSpec,
    a: Csr,
    x: DenseMatrix,
    labels: Vec<usize>,
    agg: HcAggregator,
    seed: u64,
}

pub fn setup(seed: u64) -> Train {
    let dev = DeviceSpec::rtx3090();
    let a = analogue(ID, SCALE, seed).gcn_normalize();
    let x = DenseMatrix::random_features(a.ncols, ID.spec().dim, mix(seed, 3000));
    let mut rng = Rng::new(mix(seed, 17));
    let labels = (0..a.nrows).map(|_| rng.below(CLASSES)).collect();
    let agg = HcAggregator::new(&a, &dev);
    let t = Train {
        dev,
        a,
        x,
        labels,
        agg,
        seed,
    };
    // One throwaway epoch finishes lazy setup (pool calibration, buffers).
    let mut model = t.model();
    Trainer { lr: LR, epochs: 1 }.train_gcn(&mut model, &t.a, &t.x, &t.labels, &t.agg, &t.dev);
    t
}

pub fn probe(seed: u64) -> u64 {
    StructureFingerprint::of(&analogue(ID, SCALE, seed)).lo
}

impl Train {
    fn model(&self) -> Gcn {
        Gcn::new(self.x.cols, HIDDEN, CLASSES, mix(self.seed, 3001))
    }
}

impl Workload for Train {
    fn input_digest(&self) -> u64 {
        let mut d = Digest::default();
        let fp = StructureFingerprint::of(&self.a);
        d.word(fp.lo);
        d.word(fp.hi);
        d.f32s(&self.a.vals);
        d.f32s(&self.x.data);
        for l in &self.labels {
            d.word(*l as u64);
        }
        d.finish()
    }

    /// Untraced, each epoch is one `Trainer::train_gcn` call; traced, the
    /// same three calls the trainer makes run inside spans.
    fn pass(&mut self, _workers: usize, tr: &mut Tracer) -> Pass {
        let mut model = self.model();
        let trainer = Trainer { lr: LR, epochs: 1 };
        let mut p = Pass::default();
        let (mut fwd_sim, mut bwd_sim) = (0.0, 0.0);
        let mut losses = Vec::with_capacity(EPOCHS);
        for _ in 0..EPOCHS {
            tr.next_op();
            let op = tr.begin("op");
            let t = Instant::now();
            let (fwd, bwd, loss) = if tr.enabled() {
                let (cache, f) = tr.span("gnn.forward", || {
                    model.forward(&self.a, &self.x, &self.agg, &self.dev)
                });
                let (loss, dlogits, l) = tr.span("gnn.loss", || {
                    ops::softmax_cross_entropy(&cache.logits, &self.labels, &self.dev)
                });
                let b = tr.span("gnn.backward", || {
                    model.backward(&self.a, &self.x, &cache, &dlogits, &self.agg, LR, &self.dev)
                });
                (f.time_ms + l.time_ms, b.time_ms, loss)
            } else {
                let e = trainer.train_gcn(
                    &mut model,
                    &self.a,
                    &self.x,
                    &self.labels,
                    &self.agg,
                    &self.dev,
                )[0];
                (e.forward_ms, e.backward_ms, e.loss)
            };
            p.calls_ms.push(t.elapsed().as_secs_f64() * 1e3);
            tr.end(op);
            p.submitted += 1;
            p.completed += 1;
            p.sim_lat.push(fwd + bwd);
            p.sim.exec += fwd + bwd;
            fwd_sim += fwd;
            bwd_sim += bwd;
            losses.push(loss);
        }
        // Checks: finite, non-rising loss; constant simulated epoch time.
        let rising = losses.windows(2).filter(|w| w[1] > w[0]).count();
        let non_finite = losses.iter().filter(|l| !l.is_finite()).count();
        let uneven = p
            .sim_lat
            .iter()
            .filter(|t| t.to_bits() != p.sim_lat[0].to_bits())
            .count();
        if rising + non_finite + uneven > 0 {
            eprintln!("train: {rising} rising, {non_finite} non-finite losses, {uneven} epochs with a different sim time");
            p.wrong = (rising + non_finite + uneven) as u64;
        }
        let n = EPOCHS as f64;
        p.counts = vec![
            metric("gnn.forward_sim_ms", fwd_sim / n, "ms/op"),
            metric("gnn.backward_sim_ms", bwd_sim / n, "ms/op"),
        ];
        p.out_sums = losses.iter().map(|l| l.to_bits()).collect();
        p
    }

    fn restart(&mut self) -> Result<f64, String> {
        let t = Instant::now();
        let agg = HcAggregator::new(&self.a, &self.dev);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if agg.plan.pre.choices != self.agg.plan.pre.choices {
            return Err("train: re-prepared plan differs".into());
        }
        Ok(ms)
    }

    fn layers(&mut self, first: &Pass, spans: &Totals, _est: &Totals) -> Vec<Metric> {
        let ops = spans.get("gnn.forward").map_or(1, |s| s.calls);
        let mut m = vec![
            metric("gnn.forward_ms", per_op(spans, "gnn.forward", ops), "ms/op"),
            metric(
                "gnn.backward_ms",
                per_op(spans, "gnn.backward", ops),
                "ms/op",
            ),
            metric("gnn.loss_ms", per_op(spans, "gnn.loss", ops), "ms/op"),
        ];
        m.extend(first.counts.iter().cloned());
        m
    }
}
