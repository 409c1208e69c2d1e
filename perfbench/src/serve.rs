//! `serve`: the preparation-heavy serving path. Four tenants send skewed
//! traffic over eight structures through a `Front` whose cache budget is
//! below the working set; each `Front::run_trace` call submits one epoch
//! batch. Tenant quotas shed a few requests and a fixed-seed fault
//! schedule engages retry, fallback and validation.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use gpu_sim::{DeviceSpec, FaultConfig};
use graph_sparse::{Csr, DatasetId, DenseMatrix, RowWindowPartition, StructureFingerprint};
use hc_core::{FallbackStep, KernelFamily, Plan, PlanSpec, ResiliencePolicy};
use hc_serve::{
    Front, FrontConfig, FrontRequest, FrontResponse, Outcome, Request, SharedPlanCache, TenantId,
};

use crate::bench::{metric, per_op, Metric, Pass, Totals, Workload};
use crate::host::{checksum, Digest};
use crate::inputs::{mix, shaped, Rng};
use crate::trace::Tracer;

/// Structures: one graph per structure class of these analogues, all of
/// one size, so which plans fit the byte budget does not hinge on the
/// draw.
const IDS: [DatasetId; 8] = [
    DatasetId::CS,
    DatasetId::CR,
    DatasetId::PM,
    DatasetId::PT,
    DatasetId::DD,
    DatasetId::AZ,
    DatasetId::YS,
    DatasetId::GH,
];
const VERTICES: usize = 1024;
const EDGES: usize = 3072;
const DIM: usize = 16;
/// Feature matrices per structure.
const FEATS: usize = 4;
const EPOCHS: usize = 32;
const EPOCH_LEN: usize = 32;
/// Share of tenant traffic: tenant 0 overruns its quota now and then.
const TENANT_WEIGHT: [f64; 4] = [0.4, 0.3, 0.2, 0.1];
const TENANT_QUOTA: usize = 14;
/// Cache budget as a share of the working set's plan bytes.
const BUDGET_SHARE: f64 = 0.6;
const SHARDS: usize = 1;
const FAULT_RATE: f64 = 0.01;
/// The arrival schedule and the fault schedule are fixed; the seed draws
/// the graphs and the feature values.
const SCHEDULE_SEED: u64 = 0x5e7e;
const FAULT_SEED: u64 = 0xfa17;
/// Every `SAMPLE`-th completed response is checked after timing.
const SAMPLE: usize = 16;

pub struct Serve {
    dev: DeviceSpec,
    graphs: Vec<Arc<Csr>>,
    by_fp: HashMap<StructureFingerprint, usize>,
    epochs: Vec<Vec<FrontRequest>>,
    cfg: FrontConfig,
    budget: u64,
    plan_bytes: u64,
    meta_bytes: u64,
    /// Responses of the first pass, for the output checks and the
    /// decomposition.
    first: Option<Vec<Vec<FrontResponse>>>,
    last_cache: Option<Arc<SharedPlanCache>>,
}

pub fn setup(seed: u64) -> Serve {
    let dev = DeviceSpec::rtx3090();
    let graphs: Vec<Arc<Csr>> = IDS
        .iter()
        .map(|&id| Arc::new(shaped(id, VERTICES, EDGES, seed)))
        .collect();
    let by_fp = graphs
        .iter()
        .enumerate()
        .map(|(i, g)| (StructureFingerprint::of(g), i))
        .collect();
    let feats: Vec<Vec<_>> = graphs
        .iter()
        .enumerate()
        .map(|(i, g)| {
            (0..FEATS)
                .map(|k| {
                    DenseMatrix::random_features(
                        g.ncols,
                        DIM,
                        mix(seed, 1000 + 10 * i as u64 + k as u64),
                    )
                })
                .collect()
        })
        .collect();
    // Zipf-skewed structure popularity.
    let popularity: Vec<f64> = (0..graphs.len()).map(|k| 1.0 / (k + 1) as f64).collect();
    let mut rng = Rng::new(SCHEDULE_SEED);
    let epochs = (0..EPOCHS)
        .map(|_| {
            (0..EPOCH_LEN)
                .map(|_| {
                    let s = rng.weighted(&popularity);
                    FrontRequest {
                        tenant: TenantId(rng.weighted(&TENANT_WEIGHT) as u32),
                        request: Request {
                            graph: Arc::clone(&graphs[s]),
                            features: feats[s][rng.below(FEATS)].clone(),
                        },
                    }
                })
                .collect()
        })
        .collect();
    let plans: Vec<Plan> = graphs
        .iter()
        .map(|g| Plan::prepare(g, PlanSpec::hybrid(), &dev))
        .collect();
    let plan_bytes: u64 = plans.iter().map(Plan::approx_bytes).sum();
    let meta_bytes: u64 = plans
        .iter()
        .flat_map(|p| &p.pre.partition.windows)
        .map(|w| w.meta_bytes() as u64)
        .sum();
    let cfg = FrontConfig {
        workers: 1,
        queue_depth: EPOCH_LEN,
        tenant_quota: TENANT_QUOTA,
        arrivals_per_epoch: EPOCH_LEN,
        max_cohort: 8,
        ..FrontConfig::default()
    };
    Serve {
        dev,
        graphs,
        by_fp,
        epochs,
        cfg,
        budget: (plan_bytes as f64 * BUDGET_SHARE) as u64,
        plan_bytes,
        meta_bytes,
        first: None,
        last_cache: None,
    }
}

pub fn probe(seed: u64) -> u64 {
    StructureFingerprint::of(&shaped(IDS[0], VERTICES, EDGES, seed)).lo
}

/// Fold one call's responses into `p`; returns the retries and the
/// requests served by a fallback step.
pub fn account(p: &mut Pass, responses: &[FrontResponse], primary: KernelFamily) -> (u64, u64) {
    let (mut retries, mut fallbacks) = (0u64, 0u64);
    for r in responses {
        p.submitted += 1;
        p.sim.prepare += r.prepare_sim_ms;
        p.sim.exec += r.exec_sim_ms;
        p.sim.wasted += r.wasted_sim_ms;
        if r.is_rejected() {
            p.shed += 1;
            continue;
        }
        match &r.outcome {
            Outcome::Failed(_) => p.failed += 1,
            Outcome::Ok(_) => {}
            Outcome::Degraded {
                fallback,
                retries: n,
                ..
            } => {
                retries += u64::from(*n);
                fallbacks += u64::from(*fallback != FallbackStep::Family(primary));
            }
        }
        if r.outcome.z().is_some() {
            p.completed += 1;
            p.sim_lat.push(r.latency_sim_ms);
        }
    }
    (retries, fallbacks)
}

/// The bit-exact expectation for a served response: a cold plan executed
/// with the family that produced it, or the host reference.
pub fn expected(r: &FrontResponse, req: &Request, dev: &DeviceSpec) -> Option<DenseMatrix> {
    let g = &req.graph;
    let x = &req.features;
    match &r.outcome {
        Outcome::Ok(_) => Some(
            Plan::prepare(g, PlanSpec::hybrid(), dev)
                .execute(g, x, dev)
                .z,
        ),
        Outcome::Degraded {
            fallback: FallbackStep::Family(f),
            ..
        } => Some(
            Plan::prepare(g, PlanSpec::hybrid(), dev)
                .execute_as(*f, g, x, dev)
                .z,
        ),
        Outcome::Degraded {
            fallback: FallbackStep::CpuReference,
            ..
        } => Some(g.spmm_reference(x)),
        Outcome::Failed(_) => None,
    }
}

impl Workload for Serve {
    fn input_digest(&self) -> u64 {
        let mut d = Digest::default();
        for g in &self.graphs {
            let fp = StructureFingerprint::of(g);
            d.word(fp.lo);
            d.word(fp.hi);
        }
        for r in self.epochs.iter().flatten() {
            d.word(u64::from(r.tenant.0));
            d.word(StructureFingerprint::of(&r.request.graph).lo);
            d.f32s(&r.request.features.data[..DIM]);
        }
        d.finish()
    }

    fn pass(&mut self, workers: usize, tr: &mut Tracer) -> Pass {
        let cache = Arc::new(SharedPlanCache::new(
            self.budget,
            PlanSpec::hybrid(),
            SHARDS,
        ));
        let keep = self.first.is_none();
        let mut kept = Vec::new();
        let mut p = Pass::default();
        let (mut retries, mut fallbacks) = (0u64, 0u64);
        let (mut shed_queue, mut shed_quota, mut cohorts, mut cohorted) = (0u64, 0u64, 0u64, 0u64);
        let mut sampled = 0usize;
        let mut library_sim = 0.0;
        for (e, epoch) in self.epochs.iter().enumerate() {
            // Fault streams are indexed by position in the call's trace, so
            // each epoch batch gets its own schedule seed.
            let policy = ResiliencePolicy {
                faults: FaultConfig::uniform(mix(FAULT_SEED, e as u64), FAULT_RATE),
                ..ResiliencePolicy::default()
            };
            let front = Front::with_cache(
                Arc::clone(&cache),
                FrontConfig {
                    workers,
                    policy,
                    ..self.cfg
                },
            );
            tr.next_op();
            let op = tr.begin("op");
            let t = Instant::now();
            let rep = tr.span("serve.run_trace", || front.run_trace(epoch, &self.dev));
            p.calls_ms.push(t.elapsed().as_secs_f64() * 1e3);
            tr.end(op);
            let (r, f) = account(&mut p, &rep.responses, KernelFamily::Hybrid);
            library_sim += rep.amortized_sim_ms() * rep.counters.admitted as f64;
            retries += r;
            fallbacks += f;
            shed_queue += rep.counters.rejected_queue;
            shed_quota += rep.counters.rejected_quota;
            cohorts += rep.counters.cohorts;
            cohorted += rep.counters.cohorted_requests;
            for r in &rep.responses {
                if let Some(z) = r.outcome.z() {
                    if sampled.is_multiple_of(SAMPLE) {
                        p.out_sums.push(checksum(z));
                    }
                    sampled += 1;
                }
            }
            if keep {
                kept.push(rep.responses);
            }
        }
        p.sim_library = Some(library_sim);
        let stats = cache.stats();
        let admitted = p.submitted - p.shed;
        p.counts = vec![
            metric("serve.cache_hit_rate", stats.hit_rate(), "ratio"),
            metric("serve.cache_misses", stats.misses as f64, "count"),
            metric("serve.cache_evictions", stats.evictions as f64, "count"),
            metric(
                "serve.cohort_rate",
                cohorted as f64 / admitted.max(1) as f64,
                "ratio",
            ),
            metric(
                "serve.mean_cohort_size",
                admitted as f64 / cohorts.max(1) as f64,
                "requests",
            ),
            metric("serve.shed_queue", shed_queue as f64, "count"),
            metric("serve.shed_quota", shed_quota as f64, "count"),
            metric("core.retries", retries as f64, "count"),
            metric("core.fallbacks", fallbacks as f64, "count"),
            metric(
                "core.wasted_sim_ms",
                p.sim.wasted / p.completed.max(1) as f64,
                "ms/op",
            ),
            metric(
                "core.prepare_sim_ms",
                p.sim.prepare / p.completed.max(1) as f64,
                "ms/op",
            ),
            metric("core.plan_bytes", self.plan_bytes as f64, "bytes"),
            metric("sparse.meta_bytes", self.meta_bytes as f64, "bytes"),
        ];
        if keep {
            self.first = Some(kept);
        }
        self.last_cache = Some(cache);
        p
    }

    fn verify(&mut self, first: &Pass) -> u64 {
        let kept = self.first.as_ref().expect("a pass ran");
        let mut wrong = 0;
        let mut sampled = 0usize;
        for (epoch, responses) in self.epochs.iter().zip(kept) {
            for r in responses {
                let Some(z) = r.outcome.z() else { continue };
                if sampled.is_multiple_of(SAMPLE) {
                    let req = &epoch[r.trace_index].request;
                    let want = expected(r, req, &self.dev);
                    let exact =
                        want.as_ref() == Some(z) && first.out_sums[sampled / SAMPLE] == checksum(z);
                    if !exact {
                        eprintln!(
                            "serve: response {} of an epoch is not bit-exact",
                            r.trace_index
                        );
                        wrong += 1;
                    }
                }
                sampled += 1;
            }
        }
        wrong
    }

    fn restart(&mut self) -> Result<f64, String> {
        let cache = self.last_cache.as_ref().expect("a pass ran");
        let (residency, _) = cache.collect_recoverable();
        let t = Instant::now();
        let fresh = SharedPlanCache::new(self.budget, PlanSpec::hybrid(), SHARDS);
        for fp in residency.iter().flatten() {
            let g = &self.graphs[self.by_fp[fp]];
            fresh.restore_resident(Arc::new(Plan::prepare(g, PlanSpec::hybrid(), &self.dev)));
        }
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if fresh.collect_recoverable().0 != residency {
            return Err("serve: rebuilt resident set differs".into());
        }
        Ok(ms)
    }

    fn guard(&self, first: &Pass) -> Result<(), String> {
        for name in [
            "serve.cache_misses",
            "serve.cache_evictions",
            "serve.cohort_rate",
            "core.retries",
        ] {
            if first.count(name) <= 0.0 {
                return Err(format!("serve: {name} is 0, the path is not exercised"));
            }
        }
        Ok(())
    }

    fn decompose(&mut self, _first: &Pass, tr: &mut Tracer) {
        let plans: Vec<Plan> = self
            .graphs
            .iter()
            .map(|g| Plan::prepare(g, PlanSpec::hybrid(), &self.dev))
            .collect();
        let kept = self.first.as_ref().expect("a pass ran");
        for (epoch, responses) in self.epochs.iter().zip(kept) {
            for r in responses.iter().filter(|r| !r.is_rejected()) {
                let req = &epoch[r.trace_index].request;
                let g = &req.graph;
                tr.span("est.sparse.fingerprint", || StructureFingerprint::of(g));
                if r.prepare_sim_ms > 0.0 {
                    tr.span("est.core.prepare", || {
                        Plan::prepare(g, PlanSpec::hybrid(), &self.dev)
                    });
                    tr.span("est.sparse.partition", || RowWindowPartition::build(g));
                }
                if r.outcome.z().is_some() {
                    let plan = &plans[self.by_fp[&StructureFingerprint::of(g)]];
                    tr.span("est.core.execute", || {
                        plan.execute(g, &req.features, &self.dev)
                    });
                }
            }
        }
    }

    fn layers(&mut self, first: &Pass, spans: &Totals, est: &Totals) -> Vec<Metric> {
        let traced_ops = spans.get("serve.run_trace").map_or(1, |s| s.calls) * EPOCH_LEN as u64;
        let ops = first.submitted;
        let fp = per_op(est, "est.sparse.fingerprint", ops);
        let prepare = per_op(est, "est.core.prepare", ops);
        let exec = per_op(est, "est.core.execute", ops);
        // The front runs cohorts on several workers; CPU time, not wall
        // time, is what the single-threaded estimates can be taken from.
        let front = spans.get("serve.run_trace").map_or(0.0, |s| s.self_cpu_ms) / traced_ops as f64;
        let ws = self
            .last_cache
            .as_ref()
            .expect("a pass ran")
            .workspace_stats();
        let mut m = vec![
            metric("sparse.fingerprint_ms", fp, "ms/op"),
            metric(
                "sparse.partition_ms",
                per_op(est, "est.sparse.partition", ops),
                "ms/op",
            ),
            metric("core.prepare_ms", prepare, "ms/op"),
            metric("core.cost_hit_rate", ws.cost_hit_rate(), "ratio"),
            metric("serve.front_self_ms", front - fp - prepare - exec, "ms/op"),
        ];
        m.extend(first.counts.iter().cloned());
        m
    }
}
