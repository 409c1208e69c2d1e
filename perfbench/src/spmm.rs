//! `spmm`: the kernel path with nothing around it. One op is one
//! `Plan::execute` on a prepared hybrid plan; plans, features and the
//! block-cost caches are built in setup, so the cache, the front and
//! prepare do no work in the timed loop.

use std::time::Instant;

use gpu_sim::{BlockCost, DeviceSpec};
use graph_sparse::datasets::DEFAULT_SCALE;
use graph_sparse::{Csr, DatasetId, DenseMatrix, StructureFingerprint};
use hc_core::{CoreChoice, Plan, PlanSpec};

use crate::bench::{metric, per_op, Metric, Pass, Totals, Workload};
use crate::host::{checksum, Digest};
use crate::inputs::{analogue, mix};
use crate::trace::Tracer;

/// Analogues spanning the selector's regimes: tensor-dominated (DD, GH),
/// CUDA-dominated (AZ) and mixed (PT, YS). Their feature matrices stay
/// under 8 MB, so the loop measures the kernels more than the memory
/// traffic of neighbouring machines.
const IDS: [DatasetId; 5] = [
    DatasetId::PT,
    DatasetId::DD,
    DatasetId::AZ,
    DatasetId::YS,
    DatasetId::GH,
];
/// Feature matrices per analogue; consecutive rounds alternate them.
const FEATS: usize = 2;
/// Ops whose output is checksummed every pass (and checked after timing).
const SAMPLED: [usize; 4] = [0, 3, 6, 9];
/// Maximum absolute deviation from `Csr::spmm_reference` (TF32 windows).
const TOL: f32 = 0.05;

struct Item {
    graph: Csr,
    feats: Vec<DenseMatrix>,
    plan: Plan,
}

pub struct Spmm {
    dev: DeviceSpec,
    items: Vec<Item>,
}

/// Setup: generate the analogues and features, prepare one hybrid plan
/// each, and execute once so each plan's block-cost cache is warm.
pub fn setup(seed: u64) -> Spmm {
    let dev = DeviceSpec::rtx3090();
    let items = IDS
        .iter()
        .map(|&id| {
            let graph = analogue(id, DEFAULT_SCALE, seed);
            let dim = id.spec().dim;
            let feats: Vec<DenseMatrix> = (0..FEATS)
                .map(|k| {
                    DenseMatrix::random_features(
                        graph.ncols,
                        dim,
                        mix(seed, 100 + 10 * id as u64 + k as u64),
                    )
                })
                .collect();
            let plan = Plan::prepare(&graph, PlanSpec::hybrid(), &dev);
            plan.execute(&graph, &feats[0], &dev);
            Item { graph, feats, plan }
        })
        .collect();
    Spmm { dev, items }
}

/// Digest of the first input alone, for the different-seed check.
pub fn probe(seed: u64) -> u64 {
    StructureFingerprint::of(&analogue(IDS[0], DEFAULT_SCALE, seed)).lo
}

impl Spmm {
    /// The op sequence of one pass: (item, feature) round-robin.
    fn ops(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..FEATS).flat_map(move |round| (0..self.items.len()).map(move |i| (i, round)))
    }

    fn tensor_window_share(&self) -> f64 {
        let (mut tensor, mut all) = (0usize, 0usize);
        for it in &self.items {
            let pre = &it.plan.pre;
            for (w, c) in pre.partition.windows.iter().zip(&pre.choices) {
                if !w.is_empty() {
                    all += 1;
                    tensor += usize::from(*c == CoreChoice::Tensor);
                }
            }
        }
        tensor as f64 / all as f64
    }
}

impl Workload for Spmm {
    fn input_digest(&self) -> u64 {
        let mut d = Digest::default();
        for it in &self.items {
            let fp = StructureFingerprint::of(&it.graph);
            d.word(fp.lo);
            d.word(fp.hi);
            d.f32s(&it.graph.vals);
            for x in &it.feats {
                d.f32s(&x.data);
            }
        }
        d.finish()
    }

    fn pass(&mut self, _workers: usize, tr: &mut Tracer) -> Pass {
        let mut p = Pass::default();
        let (mut dram, mut wmma, mut fma, mut cycles) = (0u64, 0u64, 0u64, 0.0f64);
        let ops: Vec<(usize, usize)> = self.ops().collect();
        for (k, (i, f)) in ops.into_iter().enumerate() {
            tr.next_op();
            let it = &self.items[i];
            let op = tr.begin("op");
            let t = Instant::now();
            let r = tr.span("core.execute", || {
                it.plan.execute(&it.graph, &it.feats[f], &self.dev)
            });
            p.calls_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if SAMPLED.contains(&k) {
                p.out_sums.push(checksum(&r.z));
            }
            tr.end(op);
            p.submitted += 1;
            p.completed += 1;
            p.sim_lat.push(r.run.time_ms);
            p.sim.exec += r.run.time_ms;
            dram += r.run.profile.dram_bytes();
            wmma += r.run.profile.wmma_issues;
            fma += r.run.profile.cuda_fma_issues;
            cycles += r.run.makespan_cycles;
        }
        let n = p.completed as f64;
        p.counts = vec![
            metric("gpu_sim.dram_bytes_per_op", dram as f64 / n, "bytes/op"),
            metric("gpu_sim.wmma_issues_per_op", wmma as f64 / n, "issues/op"),
            metric(
                "gpu_sim.cuda_fma_issues_per_op",
                fma as f64 / n,
                "issues/op",
            ),
            metric("gpu_sim.makespan_cycles_per_op", cycles / n, "cycles/op"),
            metric(
                "core.tensor_window_share",
                self.tensor_window_share(),
                "ratio",
            ),
        ];
        p
    }

    fn verify(&mut self, first: &Pass) -> u64 {
        let ops: Vec<(usize, usize)> = self.ops().collect();
        let mut wrong = 0;
        for (s, &k) in SAMPLED.iter().enumerate() {
            let (i, f) = ops[k];
            let it = &self.items[i];
            let x = &it.feats[f];
            let cold = Plan::prepare(&it.graph, PlanSpec::hybrid(), &self.dev)
                .execute(&it.graph, x, &self.dev);
            let exact = checksum(&cold.z) == first.out_sums[s];
            let close = it.graph.spmm_reference(x).max_abs_diff(&cold.z) <= TOL;
            if !(exact && close) {
                eprintln!("spmm: op {k} output check failed (bit-exact {exact}, within {TOL} of reference {close})");
                wrong += 1;
            }
        }
        wrong
    }

    fn restart(&mut self) -> Result<f64, String> {
        let t = Instant::now();
        let plans: Vec<Plan> = self
            .items
            .iter()
            .map(|it| Plan::prepare(&it.graph, PlanSpec::hybrid(), &self.dev))
            .collect();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        for (p, it) in plans.iter().zip(&self.items) {
            if p.fingerprint != it.plan.fingerprint || p.pre.choices != it.plan.pre.choices {
                return Err("re-prepared plan differs from the one served".into());
            }
        }
        Ok(ms)
    }

    fn guard(&self, first: &Pass) -> Result<(), String> {
        let share = first.count("core.tensor_window_share");
        if share > 0.0 && share < 1.0 {
            Ok(())
        } else {
            Err(format!(
                "spmm: tensor window share {share} is not strictly between 0 and 1"
            ))
        }
    }

    fn decompose(&mut self, _first: &Pass, tr: &mut Tracer) {
        let blocks: Vec<Vec<BlockCost>> = self
            .items
            .iter()
            .map(|it| {
                it.plan
                    .hc
                    .block_costs(&it.plan.pre, it.feats[0].cols, &self.dev)
            })
            .collect();
        let ops: Vec<(usize, usize)> = self.ops().collect();
        for (i, f) in ops {
            let it = &self.items[i];
            let x = &it.feats[f];
            tr.span("est.sparse.fingerprint", || {
                StructureFingerprint::of(&it.graph)
            });
            tr.span("est.gpu_sim.cost", || self.dev.execute(&blocks[i]));
            tr.span("est.core.numeric", || {
                it.plan.hc.numeric(&it.plan.pre, &it.graph, x)
            });
        }
    }

    fn layers(&mut self, first: &Pass, spans: &Totals, est: &Totals) -> Vec<Metric> {
        let ops = spans.get("core.execute").map_or(1, |s| s.calls);
        let est_ops = first.completed;
        let mut m = vec![
            metric(
                "core.execute_ms",
                per_op(spans, "core.execute", ops),
                "ms/op",
            ),
            metric(
                "core.numeric_ms",
                per_op(est, "est.core.numeric", est_ops),
                "ms/op",
            ),
            metric(
                "gpu_sim.cost_ms",
                per_op(est, "est.gpu_sim.cost", est_ops),
                "ms/op",
            ),
        ];
        m.extend(first.counts.iter().cloned());
        m
    }
}
