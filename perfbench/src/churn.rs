//! `churn`: serving under writes. Requests interleave with seeded
//! edge-delta mutations through a `DurableFront` whose WAL and snapshots
//! live in a per-run scratch directory. The budget keeps every plan
//! resident, so mutations take the patch path; the snapshot cadence
//! leaves deltas after the last snapshot, so recovery replays patches.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use gpu_sim::DeviceSpec;
use graph_sparse::{Csr, DatasetId, DenseMatrix, StructureFingerprint};
use hc_core::{KernelFamily, Plan, PlanSpec};
use hc_serve::{
    DurabilityConfig, DurableFront, Front, FrontConfig, FrontCounters, FrontEvent, FrontRequest,
    Mutation, RecoveryStats, Request, TenantId, Wal,
};

use crate::bench::{metric, per_op, Metric, Pass, Totals, Workload};
use crate::host::{checksum, Digest, ScratchDir};
use crate::inputs::{analogue, churn_delta, mix, Rng};
use crate::serve::{account, expected};
use crate::trace::Tracer;

const IDS: [DatasetId; 4] = [DatasetId::PT, DatasetId::DD, DatasetId::AZ, DatasetId::YS];
const VERTICES: usize = 2048;
const DIM: usize = 16;
const FEATS: usize = 2;
const EPOCHS: usize = 10;
const EPOCH_LEN: usize = 16;
/// Snapshots after epochs 3 and 7: the mutations of epochs 8 and 9
/// follow the last one. Every epoch from 1 on carries one mutation, on
/// structure `epoch % 4`.
const SNAPSHOT_EVERY: u64 = 4;
/// The arrival schedule is fixed; the seed draws graphs, features and
/// deltas.
const SCHEDULE_SEED: u64 = 0xc4a2;
const EDITS: usize = 8;
const SHARDS: usize = 2;
/// Plain `Front::run_events` runs on the same trace, for the durability
/// overhead estimate.
const PLAIN_RUNS: u64 = 3;
/// Every `SAMPLE`-th completed response is checked after timing.
const SAMPLE: usize = 16;

pub struct Churn {
    dev: DeviceSpec,
    events: Vec<FrontEvent>,
    cfg: FrontConfig,
    budget: u64,
    dir: ScratchDir,
    first: Option<Vec<hc_serve::FrontResponse>>,
    /// State the last pass ended with, compared against each restart.
    last: Option<(FrontCounters, Vec<Vec<StructureFingerprint>>)>,
    recovery: RecoveryStats,
}

pub fn setup(seed: u64) -> Churn {
    let dev = DeviceSpec::rtx3090();
    let roots: Vec<Arc<Csr>> = IDS
        .iter()
        .map(|&id| {
            let scale = (id.spec().vertices / VERTICES).max(1);
            Arc::new(analogue(id, scale, seed))
        })
        .collect();
    let feats: Vec<Vec<_>> = roots
        .iter()
        .enumerate()
        .map(|(i, g)| {
            (0..FEATS)
                .map(|k| {
                    DenseMatrix::random_features(
                        g.ncols,
                        DIM,
                        mix(seed, 2000 + 10 * i as u64 + k as u64),
                    )
                })
                .collect()
        })
        .collect();
    let mut schedule = Rng::new(SCHEDULE_SEED);
    let mut rng = Rng::new(mix(seed, 13));
    let mut current = roots.clone();
    let mut events = Vec::with_capacity(EPOCHS * EPOCH_LEN);
    for epoch in 0..EPOCHS {
        let mut next = None;
        for slot in 0..EPOCH_LEN {
            if slot == EPOCH_LEN / 4 && epoch > 0 {
                let s = epoch % IDS.len();
                let base = Arc::clone(&current[s]);
                let delta = churn_delta(&base, EDITS, &mut rng);
                next = Some((s, Arc::new(delta.apply(&base).expect("delta applies"))));
                events.push(FrontEvent::Mutate(Mutation { base, delta }));
                continue;
            }
            let s = schedule.below(IDS.len());
            events.push(FrontEvent::Serve(FrontRequest {
                tenant: TenantId((slot % 4) as u32),
                request: Request {
                    graph: Arc::clone(&current[s]),
                    features: feats[s][schedule.below(FEATS)].clone(),
                },
            }));
        }
        // Clients see the mutated structure from the next epoch on.
        if let Some((s, g)) = next {
            current[s] = g;
        }
    }
    // Room for every root, every mutated structure and its patched plan.
    let bytes: u64 = roots
        .iter()
        .map(|g| Plan::prepare(g, PlanSpec::hybrid(), &dev).approx_bytes())
        .sum();
    let cfg = FrontConfig {
        workers: 1,
        queue_depth: EPOCH_LEN,
        tenant_quota: EPOCH_LEN,
        arrivals_per_epoch: EPOCH_LEN,
        max_cohort: 8,
        ..FrontConfig::default()
    };
    Churn {
        dev,
        events,
        cfg,
        budget: 4 * bytes,
        dir: ScratchDir::new(&format!("churn-{seed}")),
        first: None,
        last: None,
        recovery: RecoveryStats::default(),
    }
}

pub fn probe(seed: u64) -> u64 {
    let scale = (IDS[0].spec().vertices / VERTICES).max(1);
    StructureFingerprint::of(&analogue(IDS[0], scale, seed)).lo
}

impl Churn {
    fn durability(&self) -> DurabilityConfig {
        DurabilityConfig {
            wal_path: self.dir.path().join("wal.log"),
            snapshot_path: self.dir.path().join("snapshot.bin"),
            snapshot_every: SNAPSHOT_EVERY,
        }
    }

    /// A fresh front with the worker count of the latest pass.
    fn front(&self) -> Front {
        Front::new(self.budget, PlanSpec::hybrid(), SHARDS, self.cfg)
    }

    fn requests(&self) -> impl Iterator<Item = &Request> {
        self.events.iter().filter_map(|e| match e {
            FrontEvent::Serve(fr) => Some(&fr.request),
            FrontEvent::Mutate(_) => None,
        })
    }
}

impl Workload for Churn {
    fn input_digest(&self) -> u64 {
        let mut d = Digest::default();
        for e in &self.events {
            let g = match e {
                FrontEvent::Serve(fr) => &fr.request.graph,
                FrontEvent::Mutate(m) => {
                    d.word(m.delta.len() as u64);
                    &m.base
                }
            };
            let fp = StructureFingerprint::of(g);
            d.word(fp.lo);
            d.word(fp.hi);
        }
        d.finish()
    }

    fn pass(&mut self, workers: usize, tr: &mut Tracer) -> Pass {
        self.cfg.workers = workers;
        let cfg = self.durability();
        let _ = std::fs::remove_file(&cfg.snapshot_path);
        let mut df = DurableFront::create(self.front(), cfg).expect("create the WAL");
        tr.next_op();
        let op = tr.begin("op");
        let t = Instant::now();
        let attempt = tr.span("serve.durable_run", || df.run(&self.events, &self.dev));
        let call_ms = t.elapsed().as_secs_f64() * 1e3;
        tr.end(op);
        let attempt = attempt.expect("durable run");
        let rep = attempt.report.expect("no crash is injected");
        let mut p = Pass {
            calls_ms: vec![call_ms],
            ..Pass::default()
        };
        account(&mut p, &rep.responses, KernelFamily::Hybrid);
        p.sim.patch = rep.mutations.iter().map(|m| m.patch_sim_ms).sum();
        p.sim_library = Some(rep.amortized_sim_ms() * rep.counters.admitted as f64 + p.sim.patch);
        for (k, r) in rep
            .responses
            .iter()
            .filter(|r| r.outcome.z().is_some())
            .enumerate()
        {
            if k.is_multiple_of(SAMPLE) {
                p.out_sums.push(checksum(r.outcome.z().expect("filtered")));
            }
        }
        let wal_bytes = std::fs::metadata(self.dir.path().join("wal.log")).map_or(0, |m| m.len());
        p.counts = vec![
            metric(
                "serve.stale_served",
                rep.counters.stale_served as f64,
                "count",
            ),
            metric(
                "serve.patched_plans",
                rep.counters.patched_plans as f64,
                "count",
            ),
            metric("serve.swaps", rep.cache.swaps as f64, "count"),
            metric("serve.wal_bytes", wal_bytes as f64, "bytes"),
            metric(
                "core.patch_sim_ms",
                p.sim.patch / p.completed.max(1) as f64,
                "ms/op",
            ),
        ];
        let (residency, _) = df.front().cache().collect_recoverable();
        self.last = Some((attempt.last_counters, residency));
        if self.first.is_none() {
            self.first = Some(rep.responses);
        }
        p
    }

    fn verify(&mut self, first: &Pass) -> u64 {
        let kept = self.first.as_ref().expect("a pass ran");
        let mut wrong = 0;
        let mut k = 0usize;
        for (r, req) in kept.iter().zip(self.requests()) {
            let Some(z) = r.outcome.z() else { continue };
            if k.is_multiple_of(SAMPLE) {
                let exact = expected(r, req, &self.dev).as_ref() == Some(z)
                    && first.out_sums[k / SAMPLE] == checksum(z);
                if !exact {
                    eprintln!("churn: response {} is not bit-exact", r.trace_index);
                    wrong += 1;
                }
            }
            k += 1;
        }
        wrong
    }

    fn restart(&mut self) -> Result<f64, String> {
        let (counters, residency) = self.last.clone().expect("a pass ran");
        let t = Instant::now();
        let (mut df, stats) =
            DurableFront::recover(self.front(), self.durability(), &self.events, &self.dev)
                .map_err(|e| format!("churn: recovery failed: {e}"))?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if stats.double_applied != 0 {
            return Err(format!(
                "churn: {} deltas applied twice",
                stats.double_applied
            ));
        }
        if df.front().cache().collect_recoverable().0 != residency {
            return Err("churn: recovered resident fingerprints differ".into());
        }
        let resumed = df
            .run(&self.events, &self.dev)
            .map_err(|e| format!("churn: resumed run failed: {e}"))?
            .report
            .expect("no crash is injected");
        if resumed.counters != counters {
            return Err("churn: recovered counters differ".into());
        }
        self.recovery = stats;
        Ok(ms)
    }

    fn guard(&self, first: &Pass) -> Result<(), String> {
        for name in ["serve.patched_plans", "serve.stale_served"] {
            if first.count(name) <= 0.0 {
                return Err(format!("churn: {name} is 0, the path is not exercised"));
            }
        }
        if self.recovery.patch_replays == 0 {
            return Err("churn: recovery replayed no patch".into());
        }
        Ok(())
    }

    fn decompose(&mut self, _first: &Pass, tr: &mut Tracer) {
        let plans: HashMap<StructureFingerprint, Plan> = self
            .events
            .iter()
            .filter_map(|e| match e {
                FrontEvent::Mutate(m) => Some(&m.base),
                FrontEvent::Serve(_) => None,
            })
            .map(|g| {
                (
                    StructureFingerprint::of(g),
                    Plan::prepare(g, PlanSpec::hybrid(), &self.dev),
                )
            })
            .collect();
        for e in &self.events {
            if let FrontEvent::Mutate(m) = e {
                tr.span("est.sparse.delta_apply", || {
                    m.delta.apply(&m.base).expect("applies")
                });
                let plan = &plans[&StructureFingerprint::of(&m.base)];
                tr.span("est.core.patch", || {
                    plan.patch(&m.base, &m.delta, &self.dev).expect("patches")
                });
            }
        }
        for _ in 0..PLAIN_RUNS {
            let front = self.front();
            tr.span("est.serve.front_run_events", || {
                front.run_events(&self.events, &self.dev)
            });
        }
        let wal = self.durability().wal_path;
        tr.span("est.serve.wal_replay", || {
            Wal::replay(&wal).expect("replay the WAL")
        });
    }

    fn layers(&mut self, first: &Pass, spans: &Totals, est: &Totals) -> Vec<Metric> {
        let ops = first.submitted;
        let passes = spans.get("serve.durable_run").map_or(1, |s| s.calls);
        let durable = per_op(spans, "serve.durable_run", passes * ops);
        let plain = per_op(est, "est.serve.front_run_events", PLAIN_RUNS * ops);
        let replay = Wal::replay(&self.durability().wal_path).expect("replay the WAL");
        let mut m = vec![
            metric(
                "sparse.delta_apply_ms",
                per_op(est, "est.sparse.delta_apply", ops),
                "ms/op",
            ),
            metric("core.patch_ms", per_op(est, "est.core.patch", ops), "ms/op"),
            metric("serve.durable_overhead_ms", durable - plain, "ms/op"),
            metric("serve.wal_records", replay.records.len() as f64, "count"),
            metric(
                "serve.wal_replay_ms",
                per_op(est, "est.serve.wal_replay", 1),
                "ms",
            ),
            metric(
                "serve.recovery_patch_replays",
                self.recovery.patch_replays as f64,
                "count",
            ),
            metric(
                "serve.recovery_full_prepares",
                self.recovery.full_prepares as f64,
                "count",
            ),
            metric("serve.recovery_sim_ms", self.recovery.recovery_sim_ms, "ms"),
        ];
        m.extend(first.counts.iter().cloned());
        m
    }
}
