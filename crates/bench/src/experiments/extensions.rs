//! Extension experiments beyond the paper's numbered tables, each grounded
//! in a specific in-paper claim.
//!
//! * **Dynamic graphs** — Appendix F: "For scenarios where sparse matrices
//!   are constantly changing, SpMM methods optimized for CUDA cores such as
//!   Sputnik are more suitable." We quantify the break-even: how many SpMM
//!   executions per graph mutation amortize HC-SpMM's preprocessing?
//! * **VW sensitivity** — §V-B introduces the vertices window `VW` without
//!   reporting a value; we sweep it and report the quality/overhead trade.

use std::sync::Arc;

use baselines::SputnikSpmm;
use gpu_sim::{DeviceSpec, FaultConfig};
use graph_sparse::{DatasetId, DenseMatrix, RowWindowPartition};
use hc_core::{FallbackStep, HcSpmm, KernelFamily, Loa, PlanSpec, ResiliencePolicy, SpmmKernel};
use hc_serve::{Front, FrontRequest, Outcome, Request, TenantId};

use crate::harness::{f3, DatasetCache, Table};

/// Dynamic-graph break-even: executions per mutation at which HC-SpMM
/// (preprocess once, run fast) overtakes Sputnik (no preprocessing). The
/// patched column re-plans the same structure after a one-edge churn
/// delta through [`hc_core::Plan::patch`] (dirty windows only) — the
/// incremental path that replaces "preprocess from scratch on every
/// mutation" and moves the break-even accordingly.
pub fn dynamic_graphs(cache: &mut DatasetCache, dev: &DeviceSpec) -> String {
    use hc_core::Plan;
    let mut t = Table::new(&[
        "Dataset",
        "HC pre (ms)",
        "HC patch (ms)",
        "HC SpMM (ms)",
        "Sputnik SpMM (ms)",
        "break-even execs",
    ]);
    for id in DatasetId::ABLATION_SET {
        let ds = cache.get(id);
        let dim = ds.spec.dim.min(512);
        let a = ds.adj.clone();
        let hc = HcSpmm::default();
        let pre = hc.preprocess(&a, dev);
        let t_hc = hc.spmm_preprocessed_run(&pre, dim, dev).time_ms;
        let t_sp = SputnikSpmm.spmm_run(&a, dim, dev).time_ms;
        let plan = Plan::prepare(&a, PlanSpec::hybrid(), dev);
        let t_patch = one_edge_churn(&a)
            .and_then(|delta| plan.patch(&a, &delta, dev).ok())
            .map_or_else(|| "-".to_string(), |p| f3(p.sim_prepare_ms()));
        let breakeven = if t_sp > t_hc {
            format!("{:.1}", pre.run.time_ms / (t_sp - t_hc))
        } else {
            "never".to_string()
        };
        t.row(vec![
            id.code().into(),
            f3(pre.run.time_ms),
            t_patch,
            f3(t_hc),
            f3(t_sp),
            breakeven,
        ]);
    }
    format!(
        "Dynamic-graph break-even (Appendix F): executions per mutation needed to amortize preprocessing\n\
         (HC patch = incremental re-plan after a one-edge delta, dirty windows only)\n{}",
        t.render()
    )
}

/// A minimal valid churn delta against `a`: its first edge deleted and
/// one absent cell inserted. `None` for graphs with no edges or no free
/// cell in the probed rows.
fn one_edge_churn(a: &graph_sparse::Csr) -> Option<graph_sparse::DeltaCsr> {
    let (dr, dc) = (0..a.nrows).find_map(|r| a.row_cols(r).first().map(|&c| (r as u32, c)))?;
    let insert = (0..a.nrows as u32)
        .flat_map(|r| (0..a.ncols.min(64) as u32).map(move |c| (r, c)))
        .find(|&(r, c)| (r, c) != (dr, dc) && !a.row_cols(r as usize).contains(&c))?;
    graph_sparse::DeltaCsr::new(
        a.nrows,
        a.ncols,
        vec![(insert.0, insert.1, 1.0)],
        vec![(dr, dc)],
    )
    .ok()
}

/// Plan-cache serving counters from [`plan_cache_amortization`]: how much
/// of a repeated-graph request mix the structure-keyed cache absorbed, and
/// what that did to the per-request cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanCacheMetrics {
    /// Requests served.
    pub requests: u64,
    /// Requests that reused a cached plan.
    pub hits: u64,
    /// Requests that prepared a plan.
    pub misses: u64,
    /// `hits / requests`.
    pub hit_rate: f64,
    /// Mean simulated per-request cost if every request re-prepared, ms.
    pub cold_ms: f64,
    /// Mean simulated per-request cost through the cache, ms.
    pub amortized_ms: f64,
}

/// Plan-cache amortization: serve a repeated-graph request mix through the
/// structure-keyed cache and compare the amortized per-request cost
/// against re-preparing on every request. Appendix F puts preprocessing
/// near 13x one SpMM — a serving workload only wins it back by reusing the
/// plan, and the tests below assert the hit rate and the amortization.
pub fn plan_cache_amortization(
    cache: &mut DatasetCache,
    dev: &DeviceSpec,
) -> (String, PlanCacheMetrics) {
    const ROUNDS: usize = 12;
    let ids = [DatasetId::CR, DatasetId::PM, DatasetId::PT, DatasetId::AZ];
    let graphs: Vec<Arc<graph_sparse::Csr>> = ids
        .iter()
        .map(|&id| Arc::new(cache.get(id).adj.clone()))
        .collect();

    // Round-robin mix: every graph repeats ROUNDS times, so with a budget
    // that holds all plans the expected hit rate is (ROUNDS-1)/ROUNDS per
    // graph — 44/48 ≈ 0.917 here.
    let requests = round_robin(&graphs, ROUNDS);
    let front = Front::in_order(1 << 30, PlanSpec::hybrid(), ResiliencePolicy::default());
    let rep = front.run_trace(&requests, dev);
    let responses = &rep.responses;

    // Per-graph preparation cost, read off each graph's miss response.
    let mut prepare_ms = vec![0.0f64; ids.len()];
    let mut exec_ms = vec![0.0f64; ids.len()];
    for (i, r) in responses.iter().enumerate() {
        let g = i % ids.len();
        exec_ms[g] += r.exec_sim_ms;
        if !r.hit {
            prepare_ms[g] = r.prepare_sim_ms;
        }
    }

    let mut t = Table::new(&[
        "Dataset",
        "requests",
        "prepare (ms)",
        "mean SpMM (ms)",
        "cold (ms/req)",
        "amortized (ms/req)",
    ]);
    let n = responses.len() as f64;
    let mut cold_total = 0.0;
    let mut amortized_total = 0.0;
    for (g, &id) in ids.iter().enumerate() {
        let reqs = ROUNDS as f64;
        let mean_exec = exec_ms[g] / reqs;
        let cold = mean_exec + prepare_ms[g];
        let amortized = mean_exec + prepare_ms[g] / reqs;
        cold_total += cold * reqs;
        amortized_total += amortized * reqs;
        t.row(vec![
            id.code().into(),
            ROUNDS.to_string(),
            f3(prepare_ms[g]),
            f3(mean_exec),
            f3(cold),
            f3(amortized),
        ]);
    }
    let s = rep.cache;
    let m = PlanCacheMetrics {
        requests: s.requests,
        hits: s.hits,
        misses: s.misses,
        hit_rate: s.hit_rate(),
        cold_ms: cold_total / n,
        amortized_ms: amortized_total / n,
    };
    let text = format!(
        "Plan-cache amortization: {} requests over {} graphs — {} hits / {} misses \
         (hit rate {:.1}%), amortized {:.4} vs cold {:.4} ms/request (sim)\n{}",
        m.requests,
        ids.len(),
        m.hits,
        m.misses,
        m.hit_rate * 100.0,
        m.amortized_ms,
        m.cold_ms,
        t.render()
    );
    (text, m)
}

/// `rounds` round-robin passes over `graphs`, one tenant, each request
/// with its own 32-wide features.
fn round_robin(graphs: &[Arc<graph_sparse::Csr>], rounds: usize) -> Vec<FrontRequest> {
    (0..rounds)
        .flat_map(|round| {
            graphs.iter().enumerate().map(move |(i, g)| FrontRequest {
                tenant: TenantId(0),
                request: Request {
                    graph: Arc::clone(g),
                    features: DenseMatrix::random_features(
                        g.ncols,
                        32,
                        (round * graphs.len() + i) as u64,
                    ),
                },
            })
        })
        .collect()
}

/// Chaos-serving counters from [`fault_recovery`]: how a deterministic
/// fault schedule degraded a batched request mix, and what the recovery
/// (retries + fallbacks) cost in discarded simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRecoveryMetrics {
    /// Requests served under the fault schedule.
    pub requests: u64,
    /// Clean primary-family successes.
    pub ok: u64,
    /// Requests served after retry and/or fallback.
    pub degraded: u64,
    /// Requests that could not be served (typed errors).
    pub failed: u64,
    /// Total retries across all requests.
    pub retries: u64,
    /// Requests whose surviving result came from a non-primary step.
    pub fallbacks: u64,
    /// Plan structures quarantined by fault implication.
    pub quarantined: u64,
    /// `degraded / requests`.
    pub degraded_rate: f64,
    /// Total simulated milliseconds of discarded (faulted) attempts.
    pub wasted_sim_ms: f64,
}

/// Fault recovery: the plan-cache request mix served twice — once
/// fault-free, once under a deterministic injected-fault schedule — to
/// price the resilience layer. Every `Ok` outcome under faults must be
/// bit-exact to the fault-free run (results only ever come from zero-fault
/// attempts); degraded requests record the retry/fallback overhead as
/// discarded simulated time. The tests below bound the degraded rate and
/// require zero failed requests.
pub fn fault_recovery(
    cache: &mut DatasetCache,
    dev: &DeviceSpec,
) -> (String, FaultRecoveryMetrics) {
    const ROUNDS: usize = 8;
    const FAULT_SEED: u64 = 42;
    const FAULT_RATE: f64 = 0.25;
    let ids = [DatasetId::CR, DatasetId::PM, DatasetId::PT, DatasetId::AZ];
    let graphs: Vec<Arc<graph_sparse::Csr>> = ids
        .iter()
        .map(|&id| Arc::new(cache.get(id).adj.clone()))
        .collect();
    let requests = round_robin(&graphs, ROUNDS);

    // Fault-free reference pass, then the same mix under the schedule.
    let clean = Front::in_order(1 << 30, PlanSpec::hybrid(), ResiliencePolicy::default())
        .run_trace(&requests, dev)
        .responses;
    let policy = ResiliencePolicy {
        faults: FaultConfig::uniform(FAULT_SEED, FAULT_RATE),
        ..Default::default()
    };
    let rep = Front::in_order(1 << 30, PlanSpec::hybrid(), policy).run_trace(&requests, dev);
    let responses = &rep.responses;

    // Ok means "primary family, zero retries, zero faults" — such a result
    // must match the fault-free pass bit for bit.
    let ok_exact = responses
        .iter()
        .zip(&clean)
        .filter(|(r, _)| matches!(r.outcome, Outcome::Ok(_)))
        .all(|(r, c)| r.z() == c.z());

    let mut t = Table::new(&[
        "Dataset",
        "requests",
        "ok",
        "degraded",
        "failed",
        "retries",
        "wasted (ms)",
    ]);
    for (g, &id) in ids.iter().enumerate() {
        let (mut ok, mut degraded, mut failed, mut retries, mut wasted) =
            (0u64, 0u64, 0u64, 0u64, 0.0f64);
        for (i, r) in responses.iter().enumerate() {
            if i % ids.len() != g {
                continue;
            }
            wasted += r.wasted_sim_ms;
            match &r.outcome {
                Outcome::Ok(_) => ok += 1,
                Outcome::Degraded { retries: n, .. } => {
                    degraded += 1;
                    retries += u64::from(*n);
                }
                Outcome::Failed(_) => failed += 1,
            }
        }
        t.row(vec![
            id.code().into(),
            ROUNDS.to_string(),
            ok.to_string(),
            degraded.to_string(),
            failed.to_string(),
            retries.to_string(),
            f3(wasted),
        ]);
    }
    // The run's totals, summed in trace order.
    let (mut retries, mut fallbacks, mut wasted_sim_ms) = (0u64, 0u64, 0.0f64);
    for r in responses {
        wasted_sim_ms += r.wasted_sim_ms;
        if let Outcome::Degraded {
            fallback,
            retries: n,
            ..
        } = &r.outcome
        {
            retries += u64::from(*n);
            if *fallback != FallbackStep::Family(KernelFamily::Hybrid) {
                fallbacks += 1;
            }
        }
    }
    let c = rep.counters;
    let m = FaultRecoveryMetrics {
        requests: responses.len() as u64,
        ok: c.ok,
        degraded: c.degraded,
        failed: c.failed,
        retries,
        fallbacks,
        quarantined: rep.cache.quarantined,
        degraded_rate: c.degraded as f64 / responses.len() as f64,
        wasted_sim_ms,
    };
    let text = format!(
        "Fault recovery (extension): {} requests under a seeded fault schedule \
         (seed {FAULT_SEED}, rate {FAULT_RATE}) — {} ok / {} degraded / {} failed \
         (degraded rate {:.1}%), {} retries, {} fallbacks, {} structures quarantined, \
         {:.4} ms wasted (sim); ok outputs bit-exact to fault-free run: {}\n{}",
        m.requests,
        m.ok,
        m.degraded,
        m.failed,
        m.degraded_rate * 100.0,
        m.retries,
        m.fallbacks,
        m.quarantined,
        m.wasted_sim_ms,
        ok_exact,
        t.render()
    );
    (text, m)
}

/// Workspace counters from [`hot_path`]: how much per-request work the
/// plan workspace amortized away on a repeated serving mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotPathMetrics {
    /// Requests served through the warm plan.
    pub requests: u64,
    /// Block-cost vectors built (workspace cost-cache misses).
    pub cost_builds: u64,
    /// Requests served from the cached block-cost vector.
    pub cost_reuses: u64,
    /// LOA scratch checkouts that allocated fresh buffers.
    pub scratch_allocs: u64,
    /// LOA scratch checkouts served by recycled buffers.
    pub scratch_reuses: u64,
    /// `(cost_builds + scratch_allocs) / requests` — the per-request
    /// allocation rate the workspace is driving toward zero.
    pub allocs_per_request: f64,
}

/// Hot-path workspace study: the serving loop with each plan's workspace
/// warm (block-cost vectors and LOA scratch recycled across requests)
/// versus cold (a fresh plan per request, every launch re-deriving costs
/// and re-allocating staging buffers). The two passes must produce
/// bit-equal outputs, and the warm plan's workspace counters show how much
/// per-request work it amortized away.
pub fn hot_path(cache: &mut DatasetCache, dev: &DeviceSpec) -> (String, HotPathMetrics) {
    use hc_core::Plan;
    const ROUNDS: usize = 8;
    let ids = [DatasetId::CR, DatasetId::PM, DatasetId::PT, DatasetId::AZ];
    let spec = PlanSpec {
        family: KernelFamily::Hybrid,
        use_loa: true,
    };

    let mut t = Table::new(&[
        "Dataset",
        "requests",
        "cost builds",
        "cost reuses",
        "scratch allocs",
        "scratch reuses",
    ]);
    let mut stats = hc_core::WorkspaceStats::default();
    let mut bit_exact = true;
    for &id in &ids {
        let a = cache.get(id).adj.clone();
        let xs: Vec<DenseMatrix> = (0..ROUNDS)
            .map(|r| DenseMatrix::random_features(a.nrows, 32, (id as usize * ROUNDS + r) as u64))
            .collect();
        // One warm plan serves every request; the cold pass gets a fresh
        // clone per request (cloning resets the workspace).
        let warm_plan = Plan::prepare(&a, spec, dev);
        let warm_z: Vec<DenseMatrix> = xs.iter().map(|x| warm_plan.execute(&a, x, dev).z).collect();
        let cold_z: Vec<DenseMatrix> = xs
            .iter()
            .map(|x| warm_plan.clone().execute(&a, x, dev).z)
            .collect();

        bit_exact &= warm_z == cold_z;
        let ps = warm_plan.workspace_stats();
        stats.add(&ps);
        t.row(vec![
            id.code().into(),
            ROUNDS.to_string(),
            ps.cost_builds.to_string(),
            ps.cost_reuses.to_string(),
            ps.scratch_allocs.to_string(),
            ps.scratch_reuses.to_string(),
        ]);
    }
    let requests = (ids.len() * ROUNDS) as u64;
    let m = HotPathMetrics {
        requests,
        cost_builds: stats.cost_builds,
        cost_reuses: stats.cost_reuses,
        scratch_allocs: stats.scratch_allocs,
        scratch_reuses: stats.scratch_reuses,
        allocs_per_request: (stats.cost_builds + stats.scratch_allocs) as f64 / requests as f64,
    };
    let text = format!(
        "Hot-path workspace reuse (extension): {} requests over {} LOA plans — \
         {} cost builds / {} reuses, {} scratch allocs / {} reuses \
         ({:.3} allocs/request); outputs bit-exact across warm/cold passes: {}\n{}",
        m.requests,
        ids.len(),
        m.cost_builds,
        m.cost_reuses,
        m.scratch_allocs,
        m.scratch_reuses,
        m.allocs_per_request,
        bit_exact,
        t.render()
    );
    (text, m)
}

/// Serving-load counters from [`serving_load`]: what the cohorting
/// front-end did to a multi-tenant request mix — admission shedding,
/// cohort formation, latency percentiles, and the amortized per-request
/// simulated cost vs. the uncohorted in-order front.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingLoadMetrics {
    /// Trace entries ingested.
    pub submitted: u64,
    /// Entries that passed admission.
    pub admitted: u64,
    /// Shed: ingestion queue full.
    pub rejected_queue: u64,
    /// Shed: tenant epoch quota exhausted.
    pub rejected_quota: u64,
    /// Entries served (ok or degraded).
    pub served: u64,
    /// Cohorts dispatched.
    pub cohorts: u64,
    /// Fraction of admitted entries that executed in a cohort of ≥ 2.
    pub cohort_rate: f64,
    /// Median simulated latency over served entries, ms.
    pub p50_sim_ms: f64,
    /// 99th-percentile simulated latency over served entries, ms.
    pub p99_sim_ms: f64,
    /// Mean simulated cost (prepare + exec + wasted) per admitted entry
    /// through the cohorting front, ms.
    pub amortized_sim_ms: f64,
    /// The same admitted mix through the in-order front (no cohorts), ms
    /// per request — the control the cohorting front must beat.
    pub uncohorted_sim_ms: f64,
    /// Per-tenant admission and SLO accounting, ordered by tenant id.
    pub tenants: Vec<hc_serve::TenantStats>,
}

/// Serving-load: a multi-tenant request mix through the cohorting
/// [`Front`] vs. the same admitted mix through the uncohorted
/// [`Front::in_order`], both under a cache budget one byte short of the
/// structure working set, so one plan is always out. The structures
/// arrive in a cycle, recency eviction's worst case; the cost-aware
/// cache keeps the plans costliest to rebuild per byte, so each side
/// re-prepares the cheaper structures on their return. The uncohorted
/// control pays that preparation on every miss, while the front pays at
/// most one per cohort and amortizes it across every member (the
/// fleet-level version of Appendix F's ≈13× amortization argument). The
/// printed body carries only deterministic counters and simulated times.
pub fn serving_load(cache: &mut DatasetCache, dev: &DeviceSpec) -> (String, ServingLoadMetrics) {
    use hc_core::Plan;
    use hc_serve::FrontConfig;
    const EPOCHS: usize = 6;
    const EPOCH_LEN: usize = 16;
    let ids = [DatasetId::CR, DatasetId::PM, DatasetId::PT, DatasetId::AZ];
    let graphs: Vec<Arc<graph_sparse::Csr>> = ids
        .iter()
        .map(|&id| Arc::new(cache.get(id).adj.clone()))
        .collect();

    // One cold preparation per structure pins the budget and the SLO
    // deterministically: budget = working set − 1 byte (one plan is
    // always out), SLO = 130 % of the costliest preparation (members
    // queued deep behind a cold prepare blow it).
    let plans: Vec<Plan> = graphs
        .iter()
        .map(|g| Plan::prepare(g, PlanSpec::hybrid(), dev))
        .collect();
    let budget: u64 = plans.iter().map(Plan::approx_bytes).sum::<u64>() - 1;
    let slo_sim_ms = 1.3
        * plans
            .iter()
            .map(Plan::sim_prepare_ms)
            .fold(0.0f64, f64::max);

    // 96 arrivals: 4 tenants over 4 structures, tenant 0 submitting at
    // double rate so it overruns its quota; the queue bound clips each
    // epoch's tail. Structure cycles per arrival, so every epoch carries
    // all 4 structures ≈4× each — prime cohorting material.
    let trace: Vec<FrontRequest> = (0..EPOCHS * EPOCH_LEN)
        .map(|i| {
            let g = &graphs[i % ids.len()];
            FrontRequest {
                tenant: TenantId([0, 1, 2, 3, 0][i % 5]),
                request: Request {
                    graph: Arc::clone(g),
                    features: DenseMatrix::random_features(g.ncols, 32, i as u64),
                },
            }
        })
        .collect();

    let front = Front::new(
        budget,
        PlanSpec::hybrid(),
        1, // one lane: the budget math must match the control's single cache
        FrontConfig {
            workers: 4, // fixed: the printed body must not depend on --threads
            queue_depth: 14,
            tenant_quota: 5,
            arrivals_per_epoch: EPOCH_LEN,
            max_cohort: 8,
            slo_sim_ms,
            ..Default::default()
        },
    );
    let rep = front.run_trace(&trace, dev);

    // Uncohorted control: the *admitted* mix, in trace order, through the
    // in-order front under the identical budget.
    let admitted: Vec<&hc_serve::FrontResponse> =
        rep.responses.iter().filter(|r| !r.is_rejected()).collect();
    let control_trace: Vec<FrontRequest> = admitted
        .iter()
        .map(|r| trace[r.trace_index].clone())
        .collect();
    let control = Front::in_order(budget, PlanSpec::hybrid(), ResiliencePolicy::default())
        .run_trace(&control_trace, dev);
    let uncohorted_sim_ms = control.amortized_sim_ms();
    let bit_exact = admitted
        .iter()
        .zip(&control.responses)
        .all(|(f, c)| f.z() == c.z());

    let mut t = Table::new(&[
        "tenant",
        "submitted",
        "admitted",
        "rejected",
        "served",
        "SLO viol",
        "p99 sim (ms)",
    ]);
    for ts in &rep.tenants {
        t.row(vec![
            ts.tenant.to_string(),
            ts.submitted.to_string(),
            ts.admitted.to_string(),
            ts.rejected.to_string(),
            ts.served.to_string(),
            ts.slo_violations.to_string(),
            f3(ts.p99_sim_ms),
        ]);
    }

    let c = rep.counters;
    let front_cache = rep.cache;
    let m = ServingLoadMetrics {
        submitted: c.submitted,
        admitted: c.admitted,
        rejected_queue: c.rejected_queue,
        rejected_quota: c.rejected_quota,
        served: c.ok + c.degraded,
        cohorts: c.cohorts,
        cohort_rate: c.cohort_rate(),
        p50_sim_ms: rep.latency.p50_sim_ms,
        p99_sim_ms: rep.latency.p99_sim_ms,
        amortized_sim_ms: rep.amortized_sim_ms(),
        uncohorted_sim_ms,
        tenants: rep.tenants,
    };
    let text = format!(
        "Serving load (extension): {} arrivals / {} admitted ({} quota-shed, \
         {} queue-shed) over {} structures under a cache one plan short of \
         the working set — {} cohorts, cohort rate {:.3}; front cache {} \
         hits / {} misses / {} evictions; amortized {} ms/req cohorted vs \
         {} ms/req uncohorted; latency p50 {} / p99 {} ms (sim, SLO {} ms); \
         outputs bit-exact to uncohorted control: {}\n{}",
        m.submitted,
        m.admitted,
        m.rejected_quota,
        m.rejected_queue,
        ids.len(),
        m.cohorts,
        m.cohort_rate,
        front_cache.hits,
        front_cache.misses,
        front_cache.evictions,
        f3(m.amortized_sim_ms),
        f3(m.uncohorted_sim_ms),
        f3(m.p50_sim_ms),
        f3(m.p99_sim_ms),
        f3(slo_sim_ms),
        bit_exact,
        t.render()
    );
    (text, m)
}

/// One graph size in [`churn`]'s patch-cost scaling sweep. All times are
/// simulated (deterministic).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnScalePoint {
    /// Graph rows.
    pub nrows: u64,
    /// Graph non-zeros.
    pub nnz: u64,
    /// 16-row windows (what full preprocessing scales with).
    pub windows: u64,
    /// Simulated cost of preparing a plan from scratch, ms.
    pub full_prepare_sim_ms: f64,
    /// Simulated cost of patching the plan for a small delta (dirty
    /// windows only), ms.
    pub patch_sim_ms: f64,
    /// `patch_sim_ms / full_prepare_sim_ms`.
    pub patch_ratio: f64,
}

/// Dynamic-graph churn counters from [`churn`]: the patch-cost scaling
/// sweep (incremental re-planning must stay sublinear in graph size for
/// small deltas) and the serving-under-churn comparison (amortized
/// per-request cost must stay flat when mutations interleave with
/// requests). All times are simulated, so every field is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicGraphsMetrics {
    /// Patch-vs-full cost at increasing graph sizes, smallest first.
    pub scale_points: Vec<ChurnScalePoint>,
    /// Largest `patch_ratio` across the sweep.
    pub max_patch_ratio: f64,
    /// Whether the patch ratio *shrinks* as the graph grows — the
    /// sublinearity evidence (a fixed small delta dirties a fixed number
    /// of windows while full preprocessing scales with all of them).
    pub sublinear: bool,
    /// Mutations ingested by the churn serving trace.
    pub mutations: u64,
    /// Mutations resolved by incremental patching (vs. re-prepare).
    pub patched_plans: u64,
    /// Requests served by the stale plan while its patch was in flight.
    pub stale_served: u64,
    /// Patched plans swapped into the cache.
    pub swaps: u64,
    /// Mean simulated cost per admitted request, churn trace, ms.
    pub amortized_churn_sim_ms: f64,
    /// Mean simulated cost per admitted request, identical trace with the
    /// mutations removed, ms.
    pub amortized_steady_sim_ms: f64,
    /// The steady trace again with cohorts of one, so every request is
    /// its own launch: mean simulated cost per admitted request, ms.
    pub amortized_steady_solo_sim_ms: f64,
    /// `(amortized_churn_sim_ms − amortized_steady_sim_ms) /
    /// amortized_steady_solo_sim_ms` — the cost churn adds per request, as
    /// a share of the per-launch steady cost (flat ⇒ close to 0). The
    /// divisor does not shrink when a clean cohort is billed as one
    /// launch, so a cheaper launch cannot inflate the share.
    pub churn_overhead: f64,
}

/// Dynamic-graph churn: the incremental re-planning numbers the serving
/// story rests on.
///
/// Part 1 (scaling sweep): a fixed two-edge delta against community
/// graphs of growing size. Full preprocessing scales with the window
/// count (the simulated makespan grows once windows outnumber the
/// device's SMs), while [`hc_core::Plan::patch`] re-condenses only the
/// dirtied windows — so the patch/full cost ratio must *shrink* as the
/// graph grows. The tests below bound the largest ratio in the sweep.
///
/// Part 2 (serving under churn): the churn trace from the front-end
/// hammer — serves interleaved with mutations, stale-plan tolerance on —
/// against the identical trace with the mutations removed. The amortized
/// per-request simulated cost (patch cost charged to the stream) must
/// stay flat: what churn adds is measured against the steady trace served
/// at one launch per request, a cost that cohort billing leaves alone.
/// Everything reported is simulated time and deterministic counters, so
/// every number is exactly comparable across runs.
pub fn churn(_cache: &mut DatasetCache, dev: &DeviceSpec) -> (String, DynamicGraphsMetrics) {
    use graph_sparse::{gen, DeltaCsr};
    use hc_core::Plan;
    use hc_serve::{Front, FrontConfig, FrontEvent, FrontRequest, Mutation, TenantId};

    // Part 1: patch cost vs. full prepare as the graph grows. Sizes are
    // absolute (not HC_SCALE-scaled): sublinearity only shows once the
    // window count clears the simulated device's SM count.
    let mut sweep = Table::new(&[
        "rows",
        "nnz",
        "windows",
        "full pre (ms)",
        "patch (ms)",
        "ratio",
    ]);
    let mut scale_points = Vec::new();
    for (i, n) in [4096usize, 8192, 16384].into_iter().enumerate() {
        let a = gen::community(n, n * 8, 64, 0.9, 40 + i as u64);
        let plan = Plan::prepare(&a, PlanSpec::hybrid(), dev);
        let delta = one_edge_churn(&a).expect("community graphs have edges and free cells");
        let patched = plan
            .patch(&a, &delta, dev)
            .expect("valid delta patches its own base");
        let p = ChurnScalePoint {
            nrows: n as u64,
            nnz: a.nnz() as u64,
            windows: a.nrows.div_ceil(16) as u64,
            full_prepare_sim_ms: plan.sim_prepare_ms(),
            patch_sim_ms: patched.sim_prepare_ms(),
            patch_ratio: patched.sim_prepare_ms() / plan.sim_prepare_ms(),
        };
        sweep.row(vec![
            p.nrows.to_string(),
            p.nnz.to_string(),
            p.windows.to_string(),
            f3(p.full_prepare_sim_ms),
            f3(p.patch_sim_ms),
            format!("{:.4}", p.patch_ratio),
        ]);
        scale_points.push(p);
    }
    let max_patch_ratio = scale_points
        .iter()
        .map(|p| p.patch_ratio)
        .fold(0.0f64, f64::max);
    let sublinear = scale_points
        .windows(2)
        .all(|w| w[1].patch_ratio < w[0].patch_ratio);

    // Part 2: serving under churn. Two structures, two mutations, four
    // epochs — the front keeps serving the stale plan while each patch
    // is built and swaps it in at the epoch barrier.
    let g0 = Arc::new(gen::erdos_renyi(1024, 6_000, 50));
    let g1 = Arc::new(gen::erdos_renyi(1024, 6_000, 51));
    let d0 = one_edge_churn(&g0).expect("generated graph churns");
    let d1 = one_edge_churn(&g1).expect("generated graph churns");
    let g0p = Arc::new(d0.apply(&g0).expect("valid delta"));
    let g1p = Arc::new(d1.apply(&g1).expect("valid delta"));

    let serve = |g: &Arc<graph_sparse::Csr>, i: usize| {
        FrontEvent::Serve(FrontRequest {
            tenant: TenantId([0, 1, 2, 3][i % 4]),
            request: Request {
                graph: Arc::clone(g),
                features: DenseMatrix::random_features(g.ncols, 32, i as u64),
            },
        })
    };
    let mutate = |base: &Arc<graph_sparse::Csr>, delta: &DeltaCsr| {
        FrontEvent::Mutate(Mutation {
            base: Arc::clone(base),
            delta: delta.clone(),
        })
    };
    // Same epoch layout as the front-hammer churn mix: warm, mutate g0,
    // mutate g1, then serve only the mutated structures.
    let churn_graphs: [&Arc<graph_sparse::Csr>; 22] = [
        &g0, &g1, &g0, &g1, &g0, &g1, // epoch 0
        &g0, &g0, &g1, &g0, &g1, // epoch 1 (mutation after first serve)
        &g0p, &g0p, &g1, &g1, &g0p, // epoch 2 (mutation mid-epoch)
        &g0p, &g1p, &g0p, &g1p, &g0p, &g1p, // epoch 3
    ];
    let mut events = Vec::new();
    let mut steady_events = Vec::new();
    for (i, &g) in churn_graphs.iter().enumerate() {
        if i == 7 {
            events.push(mutate(&g0, &d0));
        }
        if i == 14 {
            events.push(mutate(&g1, &d1));
        }
        events.push(serve(g, i));
        // The steady control serves the *base* structures throughout:
        // same arrivals, same features, no churn.
        let base = if Arc::ptr_eq(g, &g0p) || Arc::ptr_eq(g, &g0) {
            &g0
        } else {
            &g1
        };
        steady_events.push(serve(base, i));
    }

    let run = |events: &[FrontEvent], max_cohort: usize| {
        let front = Front::new(
            1 << 30,
            PlanSpec::hybrid(),
            1,
            FrontConfig {
                workers: 4, // fixed: the printed body must not depend on --threads
                queue_depth: 8,
                tenant_quota: 6,
                arrivals_per_epoch: 6,
                max_cohort,
                ..Default::default()
            },
        );
        front.run_events(events, dev)
    };
    let churn_rep = run(&events, 3);
    let steady_rep = run(&steady_events, 3);
    // Cohorts of one: every request pays its own launch, which is what
    // churn's extra cost is measured against.
    let steady_solo_rep = run(&steady_events, 1);
    let patch_total: f64 = churn_rep.mutations.iter().map(|m| m.patch_sim_ms).sum();
    // Patch cost is control-plane work; charge it to the request stream
    // anyway — the flat-cost claim must survive the honest accounting.
    let amortized_churn =
        churn_rep.amortized_sim_ms() + patch_total / churn_rep.counters.admitted as f64;
    let amortized_steady = steady_rep.amortized_sim_ms();
    let amortized_steady_solo = steady_solo_rep.amortized_sim_ms();

    let c = churn_rep.counters;
    let m = DynamicGraphsMetrics {
        scale_points,
        max_patch_ratio,
        sublinear,
        mutations: c.mutations,
        patched_plans: c.patched_plans,
        stale_served: c.stale_served,
        swaps: churn_rep.cache.swaps,
        amortized_churn_sim_ms: amortized_churn,
        amortized_steady_sim_ms: amortized_steady,
        amortized_steady_solo_sim_ms: amortized_steady_solo,
        churn_overhead: (amortized_churn - amortized_steady) / amortized_steady_solo,
    };
    let text = format!(
        "Dynamic-graph churn (extension): incremental re-planning vs full preprocessing\n{}\
         serving under churn: {} requests, {} mutations ({} patched, {} swapped in), \
         {} served stale while patches were in flight;\n\
         amortized {} ms/req with churn (patch cost charged) vs {} ms/req steady \
         ({} ms/req at one launch per request) — churn adds {:.4} of the per-launch \
         steady cost\n",
        sweep.render(),
        c.submitted,
        m.mutations,
        m.patched_plans,
        m.swaps,
        m.stale_served,
        f3(m.amortized_churn_sim_ms),
        f3(m.amortized_steady_sim_ms),
        f3(m.amortized_steady_solo_sim_ms),
        m.churn_overhead
    );
    (text, m)
}

/// VW sweep: layout quality (mean computing intensity, SpMM time) and LOA
/// cost as the candidate window grows.
pub fn vw_sensitivity(cache: &mut DatasetCache, dev: &DeviceSpec) -> String {
    let ds = cache.get(DatasetId::AZ);
    let dim = ds.spec.dim.min(512);
    let a = ds.adj.clone();
    let hc = HcSpmm::default();
    let base = hc.spmm_run(&a, dim, dev).time_ms;

    let mut t = Table::new(&[
        "VW",
        "LOA ops",
        "mean intensity",
        "SpMM (us)",
        "improvement",
    ]);
    for vw in [8usize, 16, 32, 64, 128, 256] {
        let (opt, rep) = Loa { vw }.optimize(&a);
        let ms = hc.spmm_run(&opt, dim, dev).time_ms;
        t.row(vec![
            vw.to_string(),
            rep.ops.to_string(),
            f3(RowWindowPartition::build(&opt).mean_computing_intensity()),
            f3(ms * 1e3),
            format!("{:+.2}%", (base - ms) / base * 100.0),
        ]);
    }
    format!(
        "LOA vertices-window sweep on AZ (§V-B leaves VW unspecified; default {})\n{}",
        Loa::default().vw,
        t.render()
    )
}

/// Concurrent-core execution (Appendix H future work): what overlapping
/// the CUDA and Tensor streams on an SM partition would buy over the
/// paper's serialized single-stream design.
pub fn concurrent_cores(cache: &mut DatasetCache, dev: &DeviceSpec) -> String {
    let mut t = Table::new(&[
        "Dataset",
        "serialized (us)",
        "concurrent (us)",
        "potential gain",
    ]);
    for id in [DatasetId::PT, DatasetId::DD, DatasetId::GH, DatasetId::AZ] {
        let ds = cache.get(id);
        let dim = ds.spec.dim.min(512);
        // Post-LOA layouts: mixed CUDA/Tensor window populations are where
        // concurrency can help.
        let a = Loa::default().optimize(&ds.adj).0;
        let x = DenseMatrix::random_features(a.nrows, dim, id as u64);
        let hc = HcSpmm::default();
        let pre = hc.preprocess(&a, dev);
        let serial = hc.spmm_preprocessed(&pre, &a, &x, dev).run.time_ms;
        let conc = hc.spmm_concurrent(&pre, &a, &x, dev).run.time_ms;
        t.row(vec![
            id.code().into(),
            f3(serial * 1e3),
            f3(conc * 1e3),
            format!("{:+.2}%", (serial - conc) / serial * 100.0),
        ]);
    }
    format!(
        "Concurrent hybrid execution (Appendix H future work): SM-partitioned streams\n{}",
        t.render()
    )
}

/// Memory-budgeted chunked SpMM (the §VI-C1 DP out-of-memory scenario):
/// overhead of running DP's SpMM under shrinking device-memory budgets.
pub fn oom_chunking(cache: &mut DatasetCache, dev: &DeviceSpec) -> String {
    use hc_core::chunked::{resident_bytes, spmm_auto};
    let ds = cache.get(DatasetId::DP);
    let dim = ds.spec.dim.min(512);
    let a = ds.adj.clone();
    let x = DenseMatrix::random_features(a.nrows, dim, 7);
    let hc = HcSpmm::default();
    let pre = hc.preprocess(&a, dev);
    let full_bytes = resident_bytes(&a, dim);
    let base = hc.spmm_preprocessed(&pre, &a, &x, dev).run.time_ms;
    let mut t = Table::new(&["budget", "panels", "time (ms)", "overhead"]);
    for frac in [1.0f64, 0.5, 0.25, 0.125] {
        let budget = (full_bytes as f64 * frac) as u64;
        match hc.spmm_chunked(&pre, &a, &x, dev, budget) {
            Some(c) => t.row(vec![
                format!("{:.0}%", frac * 100.0),
                c.panels.to_string(),
                f3(c.run.time_ms),
                format!("{:+.2}%", (c.run.time_ms - base) / base * 100.0),
            ]),
            None => t.row(vec![
                format!("{:.0}%", frac * 100.0),
                "-".into(),
                "OOM".into(),
                "-".into(),
            ]),
        }
    }
    let _ = spmm_auto(&hc, &pre, &a, &x, dev, full_bytes);
    format!(
        "Memory-budgeted SpMM on DP (§VI-C1's OOM case): column-panel chunking\n{}",
        t.render()
    )
}

/// Selector-quality study: the trained LR model against the per-window
/// cost oracle and the fixed all-CUDA/all-Tensor policies — how much of the
/// selection headroom the §IV-C model captures.
pub fn selector_vs_oracle(cache: &mut DatasetCache, dev: &DeviceSpec) -> String {
    use hc_core::preprocess_oracle;
    let mut t = Table::new(&[
        "Dataset",
        "all-CUDA",
        "all-Tensor",
        "LR model",
        "oracle",
        "model/oracle",
    ]);
    for id in [
        DatasetId::PT,
        DatasetId::DD,
        DatasetId::AZ,
        DatasetId::GH,
        DatasetId::YS,
    ] {
        let ds = cache.get(id);
        let dim = ds.spec.dim.min(512);
        let a = Loa::default().optimize(&ds.adj).0; // deployed layout
        let hc = HcSpmm::default();
        let model_pre = hc.preprocess(&a, dev);
        let oracle_pre = preprocess_oracle(&a, dim, dev);
        let run =
            |pre: &hc_core::Preprocessed| hc.spmm_preprocessed_run(pre, dim, dev).time_ms * 1e3;
        let t_model = run(&model_pre);
        let t_oracle = run(&oracle_pre);
        let t_cuda = hc_core::CudaSpmm::optimized()
            .spmm_run(&a, dim, dev)
            .time_ms
            * 1e3;
        let t_tensor = hc_core::TensorSpmm::optimized()
            .spmm_run(&a, dim, dev)
            .time_ms
            * 1e3;
        t.row(vec![
            id.code().into(),
            f3(t_cuda),
            f3(t_tensor),
            f3(t_model),
            f3(t_oracle),
            format!("{:.3}x", t_model / t_oracle),
        ]);
    }
    format!(
        "Selector quality (extension): trained LR vs per-window cost oracle (us, post-LOA layouts)\n{}",
        t.render()
    )
}

/// §IV-B feature ablation (footnote 7): the paper picks sparsity and
/// #non-zero columns and dismisses other factors as insignificant. We train
/// logistic-regression selectors on feature subsets — plus a third feature
/// (per-row nnz imbalance) — and compare selection accuracy.
pub fn feature_ablation(dev: &DeviceSpec) -> String {
    use graph_sparse::gen;
    use hc_core::{CudaSpmm, TensorSpmm};

    // Labeled windows with three candidate features.
    let rows = 16usize;
    let dim = 32usize;
    let cuda = CudaSpmm::optimized();
    let tensor = TensorSpmm::optimized();
    let mut samples: Vec<(Vec<f64>, f64)> = Vec::new();
    for cols in (16..=130).step_by(2) {
        for lvl in 0..8 {
            let nnz = cols + (cols * (rows - 1) - cols) * lvl / 7;
            let w = gen::training_window(rows, cols, nnz, (cols * 977 + lvl) as u64);
            let win = &graph_sparse::RowWindowPartition::build(&w).windows[0];
            // Feature 3: row-imbalance = stddev(row nnz) / mean(row nnz).
            let row_nnz: Vec<f64> = (0..rows).map(|r| w.degree(r) as f64).collect();
            let mean = row_nnz.iter().sum::<f64>() / rows as f64;
            let var = row_nnz.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / rows as f64;
            let imbalance = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };

            let bc = cuda
                .window_block_cost(win.nnz, win.nnz_cols(), rows, dim, dev)
                .warm();
            let bt = tensor
                .window_block_cost(win.nnz, win.nnz_cols(), rows, dim, dev)
                .warm();
            let label = if dev.execute(&[bc]).makespan_cycles < dev.execute(&[bt]).makespan_cycles {
                1.0
            } else {
                0.0
            };
            samples.push((
                vec![win.nnz_cols() as f64, win.sparsity(), imbalance],
                label,
            ));
        }
    }

    // Tiny generic logistic regression (standardized features, GD).
    let train_on = |keep: &[usize]| -> f64 {
        let k = keep.len();
        let n = samples.len() as f64;
        let mut means = vec![0.0; k];
        let mut stds = vec![0.0; k];
        for (f, _) in &samples {
            for (j, &i) in keep.iter().enumerate() {
                means[j] += f[i];
            }
        }
        means.iter_mut().for_each(|m| *m /= n);
        for (f, _) in &samples {
            for (j, &i) in keep.iter().enumerate() {
                stds[j] += (f[i] - means[j]).powi(2);
            }
        }
        stds.iter_mut().for_each(|s| *s = (*s / n).sqrt().max(1e-9));

        let mut w = vec![0.0f64; k];
        let mut b = 0.0f64;
        for _ in 0..40_000 {
            let mut gw = vec![0.0; k];
            let mut gb = 0.0;
            for (f, y) in &samples {
                let z: f64 = keep
                    .iter()
                    .enumerate()
                    .map(|(j, &i)| w[j] * (f[i] - means[j]) / stds[j])
                    .sum::<f64>()
                    + b;
                let p = 1.0 / (1.0 + (-z).exp());
                let d = p - y;
                for (j, &i) in keep.iter().enumerate() {
                    gw[j] += d * (f[i] - means[j]) / stds[j];
                }
                gb += d;
            }
            for j in 0..k {
                w[j] -= 2.0 * gw[j] / n;
            }
            b -= 2.0 * gb / n;
        }
        // Accuracy.
        let hits = samples
            .iter()
            .filter(|(f, y)| {
                let z: f64 = keep
                    .iter()
                    .enumerate()
                    .map(|(j, &i)| w[j] * (f[i] - means[j]) / stds[j])
                    .sum::<f64>()
                    + b;
                (z > 0.0) == (*y > 0.5)
            })
            .count();
        hits as f64 / n
    };

    let mut t = Table::new(&["features", "accuracy"]);
    for (name, keep) in [
        ("cols only", vec![0usize]),
        ("sparsity only", vec![1]),
        ("cols + sparsity (paper)", vec![0, 1]),
        ("+ row imbalance", vec![0, 1, 2]),
    ] {
        t.row(vec![
            name.into(),
            format!("{:.2}%", train_on(&keep) * 100.0),
        ]);
    }
    format!(
        "Feature ablation (§IV-B, footnote 7): selection accuracy by feature subset\n{}",
        t.render()
    )
}

/// §I claim check: "SpMM … accounting for more than 80 % of the GNN
/// training time". We decompose an unfused GCN epoch into Aggregation
/// (SpMM), Update (GEMM) and elementwise time, at the harness scale and at
/// a larger scale (the share grows with graph size because the GEMMs scale
/// with |V| while aggregation scales with |E|·locality costs).
pub fn aggregation_share(cache: &mut DatasetCache, dev: &DeviceSpec) -> String {
    use gnn::aggregator::{Aggregator, HcAggregator};
    let mut t = Table::new(&["Dataset", "agg (ms)", "gemm+elem (ms)", "agg share"]);
    for id in [DatasetId::DD, DatasetId::YS, DatasetId::RD, DatasetId::TT] {
        let ds = cache.get(id);
        let dim = ds.spec.dim.min(512);
        let a = ds.adj.gcn_normalize();
        let x = DenseMatrix::random_features(a.nrows, dim, id as u64);
        let agg = HcAggregator::new_unfused(&a, dev);

        // The epoch's dense side, measured by running a full epoch and
        // subtracting the aggregation time.
        let labels = gnn::train::synthetic_labels(a.nrows, 22);
        let mut model = gnn::Gcn::new(dim, 32, 22, 3);
        let e = &gnn::train::Trainer {
            lr: 0.01,
            epochs: 1,
        }
        .train_gcn(&mut model, &a, &x, &labels, &agg, dev)[0];
        let total = e.forward_ms + e.backward_ms;
        // The epoch's aggregations run at mixed dims (dim, hidden, classes);
        // approximate the true aggregation share by timing them directly.
        let dims = [dim, 22, 22, 32];
        let mut true_agg = 0.0;
        for d in dims {
            true_agg += agg.aggregate_run(&a, d, dev).time_ms;
        }
        let dense = (total - true_agg).max(0.0);
        t.row(vec![
            id.code().into(),
            f3(true_agg),
            f3(dense),
            format!("{:.1}%", true_agg / total * 100.0),
        ]);
    }
    format!(
        "Aggregation share of a GCN epoch (§I claims >80 % at production scale; \
the share shrinks at 1/{} scale because fixed kernel costs loom)\n{}",
        cache.scale(),
        t.render()
    )
}

/// Deeper models (the Fig. 16 discussion: "deeper models that require more
/// epochs to converge" make LOA's fixed cost more negligible): epoch time
/// vs depth for a K-layer GCN, with the LOA overhead share.
pub fn deep_models(cache: &mut DatasetCache, dev: &DeviceSpec) -> String {
    use gnn::aggregator::HcAggregator;
    use gnn::optim::Adam;
    use gnn::DeepGcn;
    let ds = cache.get(DatasetId::YS);
    let dim = ds.spec.dim.min(512);
    let a = ds.adj.gcn_normalize();
    let x = DenseMatrix::random_features(a.nrows, dim, 3);
    let labels = gnn::train::synthetic_labels(a.nrows, 8);
    let loa_s = Loa::default().run(&ds.adj).seconds;
    let agg = HcAggregator::new(&a, dev);

    let mut t = Table::new(&["layers", "epoch (ms)", "LOA share of 200 epochs"]);
    for depth in [2usize, 4, 8] {
        let mut dims = vec![dim];
        dims.extend(std::iter::repeat_n(32, depth - 1));
        dims.push(8);
        let mut model = DeepGcn::new(&dims, 5);
        let mut opt = Adam::new(0.01);
        let (cache_fwd, fwd) = model.forward(&a, &x, &agg, dev);
        let (_, dl, lrun) =
            gnn::ops::softmax_cross_entropy(cache_fwd.h.last().unwrap(), &labels, dev);
        let bwd = model.backward(&a, &cache_fwd, &dl, &agg, &mut opt, dev);
        let epoch_ms = fwd.time_ms + lrun.time_ms + bwd.time_ms;
        t.row(vec![
            depth.to_string(),
            f3(epoch_ms),
            format!("{:.2}%", loa_s / (epoch_ms * 200.0 / 1e3) * 100.0),
        ]);
    }
    format!(
        "Deeper models (Fig. 16 discussion): LOA's fixed cost amortizes faster as depth grows\n{}",
        t.render()
    )
}

/// Crash-recovery counters from [`recovery`]: a churn serving trace is
/// crashed mid-flight, recovered from (snapshot, WAL) and resumed. All
/// times are simulated, so every field is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryMetrics {
    /// Crash points the uncrashed schedule exposes (the sweep horizon).
    pub crash_points: u64,
    /// First epoch the resumed run executed (`last marker + 1`).
    pub resume_epoch: u64,
    /// Scheduling epochs in the full trace.
    pub total_epochs: u64,
    /// Durable WAL delta records re-applied at recovery.
    pub replayed_deltas: u64,
    /// Durable records skipped because their post-apply graph was
    /// already materialized (idempotent replay).
    pub skipped_duplicates: u64,
    /// Deltas applied more than once — must be zero.
    pub double_applied: u64,
    /// Intact-but-unmarked records rolled back past the last fsync
    /// marker.
    pub rolled_back_records: u64,
    /// Plans restored into the cache by recovery, total.
    pub restored_plans: u64,
    /// Rebuild steps served by a full `Plan::prepare`.
    pub full_prepares: u64,
    /// Rebuild steps served by `Plan::patch` replay.
    pub patch_replays: u64,
    /// Simulated cost of the warm rebuild (prepares + patch replays).
    pub warm_recovery_sim_ms: f64,
    /// Simulated cost of re-running the completed prefix cold (prepare +
    /// exec + wasted time of every delivered pre-crash request, plus the
    /// pre-crash patch work) — what a restart without durability pays.
    pub cold_replay_sim_ms: f64,
    /// `warm_recovery_sim_ms / cold_replay_sim_ms`.
    pub recovery_ratio: f64,
    /// Whether the recovered, merged report was bit-identical to the
    /// uncrashed control (responses, counters, mutation outcomes,
    /// latency, tenants, cache statistics).
    pub equivalent: bool,
}

/// Crash-recovery cost: the churn serving trace is crashed at the last
/// point of its schedule, recovered from (snapshot, WAL) and resumed.
/// Warm recovery rebuilds the resident plans deterministically (full
/// `prepare` at a materialized root plus `patch` replay along the logged
/// lineage) instead of re-running the completed prefix — so its simulated
/// cost is compared against the cold baseline: the prepare + execution +
/// wasted time of every request the prefix had already served, plus its
/// patch work. The tests below bound the ratio and require the recovered
/// report to be bit-identical to the uncrashed control with zero
/// double-applied deltas.
pub fn recovery(_cache: &mut DatasetCache, dev: &DeviceSpec) -> (String, RecoveryMetrics) {
    use gpu_sim::CrashConfig;
    use graph_sparse::gen;
    use hc_serve::{
        run_to_completion, DurabilityConfig, Front, FrontConfig, FrontEvent, FrontRequest,
        Mutation, TenantId,
    };

    const EPOCH: usize = 6;

    let g0 = Arc::new(gen::erdos_renyi(1024, 6_000, 50));
    let g1 = Arc::new(gen::erdos_renyi(1024, 6_000, 51));
    let d0 = one_edge_churn(&g0).expect("generated graph churns");
    let d1 = one_edge_churn(&g1).expect("generated graph churns");
    let g0p = Arc::new(d0.apply(&g0).expect("valid delta"));
    let g1p = Arc::new(d1.apply(&g1).expect("valid delta"));
    let d2 = one_edge_churn(&g0p).expect("generated graph churns");

    let serve = |g: &Arc<graph_sparse::Csr>, i: usize| {
        FrontEvent::Serve(FrontRequest {
            tenant: TenantId([0, 1, 2, 3][i % 4]),
            request: Request {
                graph: Arc::clone(g),
                features: DenseMatrix::random_features(g.ncols, 64, i as u64),
            },
        })
    };
    // Ten epochs of six events (57 serves, 3 mutations): warm, two
    // mutation epochs, then tip-of-chain traffic — a long completed
    // prefix for the cold baseline to price. The third mutation, in
    // epoch 8, moves `g0p` to a graph no request serves and the trace
    // does not carry: after the last snapshot (epoch 7) only the WAL
    // knows it, so recovery must replay its delta and patch its plan.
    let mut events = Vec::new();
    for i in 0..EPOCH * 10 - 3 {
        if i == 7 {
            events.push(FrontEvent::Mutate(Mutation {
                base: Arc::clone(&g0),
                delta: d0.clone(),
            }));
        }
        if i == 14 {
            events.push(FrontEvent::Mutate(Mutation {
                base: Arc::clone(&g1),
                delta: d1.clone(),
            }));
        }
        if i == 47 {
            events.push(FrontEvent::Mutate(Mutation {
                base: Arc::clone(&g0p),
                delta: d2.clone(),
            }));
        }
        let g = match i {
            0..=6 => [&g0, &g1][i % 2],
            7..=13 => [&g0, &g1][i % 2],
            14..=20 => [&g0p, &g1][i % 2],
            _ => [&g0p, &g1p][i % 2],
        };
        events.push(serve(g, i));
    }
    let total_epochs = events.len().div_ceil(EPOCH);

    let mk_front = || {
        Front::new(
            1 << 30,
            PlanSpec::hybrid(),
            2,
            FrontConfig {
                workers: 4, // fixed: the printed body must not depend on --threads
                queue_depth: 8,
                tenant_quota: 6,
                arrivals_per_epoch: EPOCH,
                max_cohort: 3,
                ..Default::default()
            },
        )
    };
    let scratch = |name: &str| {
        let dir = std::env::temp_dir();
        let mut wal_path = dir.clone();
        wal_path.push(format!("hc-bench-rec-{}-{}.wal", std::process::id(), name));
        let mut snapshot_path = dir;
        snapshot_path.push(format!("hc-bench-rec-{}-{}.snap", std::process::id(), name));
        let _ = std::fs::remove_file(&wal_path);
        let _ = std::fs::remove_file(&snapshot_path);
        DurabilityConfig {
            wal_path,
            snapshot_path,
            snapshot_every: 2,
        }
    };
    // A crash mid-snapshot leaves `<snapshot>.tmp` beside the snapshot.
    let cleanup = |cfg: &DurabilityConfig| {
        let mut tmp = cfg.snapshot_path.clone().into_os_string();
        tmp.push(".tmp");
        let _ = std::fs::remove_file(&cfg.wal_path);
        let _ = std::fs::remove_file(&cfg.snapshot_path);
        let _ = std::fs::remove_file(tmp);
    };

    let control = mk_front().run_events(&events, dev);

    // Uncrashed probe for the schedule horizon, then crash at its last
    // point — the longest completed prefix the recovery can be asked to
    // stand in for.
    let cfg = scratch("probe");
    let probe = run_to_completion(&mk_front, &cfg, &events, dev, CrashConfig::off())
        .expect("uncrashed durable run");
    cleanup(&cfg);
    let crash_points = probe.crash_points;

    let cfg = scratch("crash");
    let out = run_to_completion(
        &mk_front,
        &cfg,
        &events,
        dev,
        CrashConfig::at(crash_points - 1),
    )
    .expect("crashed run recovers");
    cleanup(&cfg);
    let rec = out
        .recoveries
        .first()
        .expect("the injected crash forces one recovery");

    let equivalent = out.report.responses == control.responses
        && out.report.counters == control.counters
        && out.report.mutations == control.mutations
        && out.report.latency == control.latency
        && out.report.tenants == control.tenants
        && out.report.cache == control.cache;

    // Cold baseline: what a restart with no durability layer pays — every
    // request the completed prefix had served, re-prepared and re-executed,
    // plus the prefix's patch work.
    let resume_epoch = rec.resume_epoch as usize;
    let cold_replay_sim_ms: f64 = control
        .responses
        .iter()
        .filter(|r| r.epoch < resume_epoch)
        .map(|r| r.prepare_sim_ms + r.exec_sim_ms + r.wasted_sim_ms)
        .sum::<f64>()
        + control
            .mutations
            .iter()
            .filter(|m| m.epoch < resume_epoch)
            .map(|m| m.patch_sim_ms)
            .sum::<f64>();
    let warm_recovery_sim_ms = rec.recovery_sim_ms;

    let m = RecoveryMetrics {
        crash_points,
        resume_epoch: rec.resume_epoch,
        total_epochs: total_epochs as u64,
        replayed_deltas: rec.reapplied_deltas,
        skipped_duplicates: rec.skipped_duplicates,
        double_applied: rec.double_applied,
        rolled_back_records: rec.rolled_back_records,
        restored_plans: rec.restored_plans,
        full_prepares: rec.full_prepares,
        patch_replays: rec.patch_replays,
        warm_recovery_sim_ms,
        cold_replay_sim_ms,
        recovery_ratio: warm_recovery_sim_ms / cold_replay_sim_ms,
        equivalent,
    };
    let text = format!(
        "Crash recovery (extension): warm restart from (snapshot, WAL) vs cold prefix replay\n\
         schedule: {} crash points over {} epochs; crashed at the last point \
         ({:?}), resumed at epoch {}\n\
         recovery: {} plans restored ({} full prepares, {} patch replays), \
         {} deltas replayed ({} duplicates skipped, {} double-applied), \
         {} records rolled back\n\
         warm {} ms vs cold {} ms (sim) — ratio {:.4}; recovered report \
         bit-identical to the uncrashed control: {}\n",
        m.crash_points,
        m.total_epochs,
        out.crashes[0],
        m.resume_epoch,
        m.restored_plans,
        m.full_prepares,
        m.patch_replays,
        m.replayed_deltas,
        m.skipped_duplicates,
        m.double_applied,
        m.rolled_back_records,
        f3(m.warm_recovery_sim_ms),
        f3(m.cold_replay_sim_ms),
        m.recovery_ratio,
        m.equivalent
    );
    (text, m)
}

/// Tile-metadata compression counters from [`tile_compress`]: what the
/// occupancy-bitmap + delta-varint window metadata (the condense step's
/// canonical output) and the double-buffered tensor schedule buy on
/// dense-community graphs, against the pre-compression dense form and the
/// synchronous schedule. Bytes are exact and cycles simulated, so every
/// field is deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileCompressMetrics {
    /// Non-empty row windows across the sweep.
    pub windows: u64,
    /// Total encoded tile-metadata heap bytes (column streams + bitmaps).
    pub meta_bytes_compressed: u64,
    /// The same windows under the legacy dense form: a u32 condensed
    /// index per entry plus a u32 per unique column.
    pub meta_bytes_uncompressed: u64,
    /// `meta_bytes_compressed / meta_bytes_uncompressed`.
    pub bytes_ratio: f64,
    /// `Plan::approx_bytes` of the prepared plans (compressed metadata).
    pub plan_bytes_compressed: u64,
    /// The same plans with every window billed at the legacy dense
    /// metadata size.
    pub plan_bytes_uncompressed: u64,
    /// `plan_bytes_compressed / plan_bytes_uncompressed`.
    pub plan_bytes_ratio: f64,
    /// Simulated preprocessing cost with the compressed write-back, ms.
    pub prepare_sim_ms_compressed: f64,
    /// Simulated preprocessing cost of the pre-compression kernel that
    /// wrote per-entry condensed indices, ms.
    pub prepare_sim_ms_uncompressed: f64,
    /// `prepare_sim_ms_compressed / prepare_sim_ms_uncompressed`.
    pub prepare_cost_ratio: f64,
    /// Summed per-window cycles of the pipelined + compressed tensor
    /// kernel over the sweep's windows.
    pub tensor_cycles_pipelined: f64,
    /// The same windows under the synchronous uncompressed schedule.
    pub tensor_cycles_unpipelined: f64,
    /// `tensor_cycles_pipelined / tensor_cycles_unpipelined` — must stay
    /// below 1 for the pipelining to be worth shipping.
    pub tensor_cycle_ratio: f64,
}

/// Tile-metadata compression and tensor pipelining on dense-community
/// graphs: the condense step's occupancy-bitmap + delta-varint window
/// metadata against the pre-compression dense form (a u32 condensed index
/// per entry plus a u32 per unique column), and the double-buffered
/// tensor schedule against the synchronous one. Everything here is exact
/// bytes or simulated cycles — deterministic, so the tests below assert
/// the ratios with no noise margin.
pub fn tile_compress(_cache: &mut DatasetCache, dev: &DeviceSpec) -> (String, TileCompressMetrics) {
    use graph_sparse::gen;
    use hc_core::{window_preprocess_cost_with, Plan, TensorSpmm};

    let pipelined = TensorSpmm::optimized();
    let synchronous = TensorSpmm::uncompressed_unpipelined();
    let dim = 32usize;

    let mut t = Table::new(&[
        "rows",
        "windows",
        "meta KB (cmp)",
        "meta KB (dense)",
        "plan KB (cmp)",
        "plan KB (dense)",
        "prep ms (cmp)",
        "prep ms (dense)",
        "tensor Mcyc (pipe)",
        "tensor Mcyc (sync)",
    ]);
    let mut m = TileCompressMetrics {
        windows: 0,
        meta_bytes_compressed: 0,
        meta_bytes_uncompressed: 0,
        bytes_ratio: 0.0,
        plan_bytes_compressed: 0,
        plan_bytes_uncompressed: 0,
        plan_bytes_ratio: 0.0,
        prepare_sim_ms_compressed: 0.0,
        prepare_sim_ms_uncompressed: 0.0,
        prepare_cost_ratio: 0.0,
        tensor_cycles_pipelined: 0.0,
        tensor_cycles_unpipelined: 0.0,
        tensor_cycle_ratio: 0.0,
    };
    // Same absolute-size community sweep as the churn experiment: dense
    // 64-vertex communities are exactly the windows the bitmap form and
    // the Tensor-core path are built for.
    for (i, n) in [2048usize, 4096, 8192].into_iter().enumerate() {
        let a = gen::community(n, n * 8, 64, 0.9, 70 + i as u64);
        let plan = Plan::prepare(&a, PlanSpec::hybrid(), dev);
        let windows: Vec<_> = plan
            .pre
            .partition
            .windows
            .iter()
            .filter(|w| !w.is_empty())
            .collect();

        let (mut meta_cmp, mut meta_dense) = (0u64, 0u64);
        let (mut blocks_cmp, mut blocks_dense) = (Vec::new(), Vec::new());
        let (mut cyc_pipe, mut cyc_sync) = (0.0f64, 0.0f64);
        for w in &windows {
            meta_cmp += w.meta.heap_bytes() as u64;
            meta_dense += 4 * (w.nnz + w.nnz_cols()) as u64;
            if let Some(b) = window_preprocess_cost_with(w, dev, true) {
                blocks_cmp.push(b);
            }
            if let Some(b) = window_preprocess_cost_with(w, dev, false) {
                blocks_dense.push(b);
            }
            let (nnz, cols, rows) = (w.nnz, w.nnz_cols(), w.rows);
            cyc_pipe += pipelined
                .window_block_cost(nnz, cols, rows, dim, dev)
                .cycles(dev);
            cyc_sync += synchronous
                .window_block_cost(nnz, cols, rows, dim, dev)
                .cycles(dev);
        }
        // The dense-form plan differs from the compressed one only in the
        // per-window metadata heap, so its footprint is the measured
        // `approx_bytes` with that heap swapped out.
        let plan_cmp = plan.approx_bytes();
        let plan_dense = plan_cmp - meta_cmp + meta_dense;
        let prep_cmp = dev.execute(&blocks_cmp).time_ms;
        let prep_dense = dev.execute(&blocks_dense).time_ms;

        t.row(vec![
            n.to_string(),
            windows.len().to_string(),
            f3(meta_cmp as f64 / 1024.0),
            f3(meta_dense as f64 / 1024.0),
            f3(plan_cmp as f64 / 1024.0),
            f3(plan_dense as f64 / 1024.0),
            f3(prep_cmp),
            f3(prep_dense),
            f3(cyc_pipe / 1e6),
            f3(cyc_sync / 1e6),
        ]);
        m.windows += windows.len() as u64;
        m.meta_bytes_compressed += meta_cmp;
        m.meta_bytes_uncompressed += meta_dense;
        m.plan_bytes_compressed += plan_cmp;
        m.plan_bytes_uncompressed += plan_dense;
        m.prepare_sim_ms_compressed += prep_cmp;
        m.prepare_sim_ms_uncompressed += prep_dense;
        m.tensor_cycles_pipelined += cyc_pipe;
        m.tensor_cycles_unpipelined += cyc_sync;
    }
    m.bytes_ratio = m.meta_bytes_compressed as f64 / m.meta_bytes_uncompressed.max(1) as f64;
    m.plan_bytes_ratio = m.plan_bytes_compressed as f64 / m.plan_bytes_uncompressed.max(1) as f64;
    m.prepare_cost_ratio = m.prepare_sim_ms_compressed / m.prepare_sim_ms_uncompressed.max(1e-12);
    m.tensor_cycle_ratio = m.tensor_cycles_pipelined / m.tensor_cycles_unpipelined.max(1e-12);

    let text = format!(
        "Extension: compressed tile metadata + pipelined tensor path \
         (community sweep, dim {dim})\n{}\
         totals over {} windows: metadata {:.1} KB vs {:.1} KB dense \
         (ratio {:.4}); plan {:.1} KB vs {:.1} KB (ratio {:.4});\n\
         preprocessing {:.4} ms vs {:.4} ms (ratio {:.4}); tensor \
         {:.3} Mcycles pipelined vs {:.3} Mcycles synchronous (ratio {:.4})\n",
        t.render(),
        m.windows,
        m.meta_bytes_compressed as f64 / 1024.0,
        m.meta_bytes_uncompressed as f64 / 1024.0,
        m.bytes_ratio,
        m.plan_bytes_compressed as f64 / 1024.0,
        m.plan_bytes_uncompressed as f64 / 1024.0,
        m.plan_bytes_ratio,
        m.prepare_sim_ms_compressed,
        m.prepare_sim_ms_uncompressed,
        m.prepare_cost_ratio,
        m.tensor_cycles_pipelined / 1e6,
        m.tensor_cycles_unpipelined / 1e6,
        m.tensor_cycle_ratio
    );
    (text, m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakeven_is_finite_where_hc_wins() {
        let mut cache = DatasetCache::with_scale(512);
        let dev = DeviceSpec::rtx3090();
        let out = dynamic_graphs(&mut cache, &dev);
        let rows: Vec<Vec<&str>> = out
            .lines()
            .map(|l| l.split_whitespace().collect::<Vec<_>>())
            .filter(|w| w.len() == 6 && DatasetId::ABLATION_SET.iter().any(|id| id.code() == w[0]))
            .collect();
        assert_eq!(rows.len(), DatasetId::ABLATION_SET.len(), "{out}");
        // Every dataset row carries the incremental-patch column, and the
        // patch must be cheaper than preprocessing from scratch.
        for w in &rows {
            let pre: f64 = w[1].parse().unwrap();
            let patch: f64 = w[2]
                .parse()
                .unwrap_or_else(|_| panic!("{} has no patch cost:\n{out}", w[0]));
            assert!(patch < pre, "{}: patch {patch} !< pre {pre}:\n{out}", w[0]);
        }
        // At least one dataset must show a finite break-even (HC faster per
        // execution), supporting the amortization argument.
        assert!(
            rows.iter().any(|w| w[5] != "never"),
            "no finite break-even found:\n{out}"
        );
    }

    #[test]
    fn plan_cache_absorbs_the_repeated_mix() {
        let mut cache = DatasetCache::with_scale(512);
        let dev = DeviceSpec::rtx3090();
        let (text, m) = plan_cache_amortization(&mut cache, &dev);
        assert!(m.hit_rate >= 0.9, "hit rate {}:\n{text}", m.hit_rate);
        assert!(
            m.amortized_ms < m.cold_ms,
            "amortized {} !< cold {}: the cache is not paying for itself\n{text}",
            m.amortized_ms,
            m.cold_ms
        );
    }

    #[test]
    fn churn_patch_is_sublinear_and_serving_stays_flat() {
        let mut cache = DatasetCache::with_scale(512);
        let dev = DeviceSpec::rtx3090();
        let (text, m) = churn(&mut cache, &dev);
        // Sublinearity: a fixed small delta gets relatively cheaper as
        // the graph (and its window count) grows.
        assert_eq!(m.scale_points.len(), 3, "{text}");
        assert!(m.sublinear, "patch ratio must shrink with size:\n{text}");
        assert!(
            m.max_patch_ratio <= 0.35,
            "patching must beat full preprocessing everywhere:\n{text}"
        );
        for p in &m.scale_points {
            assert!(p.patch_sim_ms > 0.0 && p.patch_sim_ms < p.full_prepare_sim_ms);
        }
        // Churn serving: both mutations patched and swapped, stale-plan
        // tolerance kept requests flowing, and the amortized cost stays
        // flat even with the patch cost charged to the stream: churn adds
        // less than a quarter of the per-launch steady cost per request.
        assert_eq!((m.mutations, m.patched_plans, m.swaps), (2, 2, 2), "{text}");
        assert!(m.stale_served > 0, "{text}");
        assert!(
            m.churn_overhead < 0.25,
            "churn must not add >25% of the per-launch steady cost:\n{text}"
        );
    }

    #[test]
    fn fault_recovery_serves_every_request() {
        let mut cache = DatasetCache::with_scale(512);
        let dev = DeviceSpec::rtx3090();
        let (text, m) = fault_recovery(&mut cache, &dev);
        // The CPU-reference safety net means no request is ever dropped.
        assert_eq!(m.failed, 0, "{text}");
        assert_eq!(m.ok + m.degraded, m.requests);
        // The chosen rate must actually exercise the recovery machinery,
        // without degrading most of the mix.
        assert!(m.degraded > 0, "fault schedule degraded nothing:\n{text}");
        assert!(
            m.degraded_rate <= 0.6,
            "degraded rate {}:\n{text}",
            m.degraded_rate
        );
        assert!(m.wasted_sim_ms > 0.0);
        assert!(text.contains("bit-exact to fault-free run: true"), "{text}");
    }

    #[test]
    fn hot_path_reuse_is_counted_and_bit_exact() {
        let mut cache = DatasetCache::with_scale(512);
        let dev = DeviceSpec::rtx3090();
        let (text, m) = hot_path(&mut cache, &dev);
        assert!(
            text.contains("bit-exact across warm/cold passes: true"),
            "{text}"
        );
        // 4 plans x 8 requests at one (family, dim, device) key each:
        // exactly one build + one scratch allocation per plan.
        assert_eq!(m.requests, 32);
        assert_eq!((m.cost_builds, m.cost_reuses), (4, 28), "{text}");
        assert_eq!((m.scratch_allocs, m.scratch_reuses), (4, 28), "{text}");
        assert!(m.allocs_per_request <= 0.25 + 1e-12, "{text}");
    }

    #[test]
    fn serving_load_cohorting_beats_the_uncohorted_control() {
        let mut cache = DatasetCache::with_scale(512);
        let dev = DeviceSpec::rtx3090();
        let (text, m) = serving_load(&mut cache, &dev);
        // Admission arithmetic is scale-independent: it depends only on
        // the trace shape and the front config.
        assert_eq!(m.submitted, 96, "{text}");
        assert_eq!(
            m.submitted,
            m.admitted + m.rejected_queue + m.rejected_quota
        );
        assert!(
            m.rejected_quota > 0,
            "tenant 0 must overrun its quota:\n{text}"
        );
        assert_eq!(
            m.served, m.admitted,
            "clean mix: everything admitted serves"
        );
        assert_eq!(m.tenants.len(), 4);
        let t0 = &m.tenants[0];
        assert!(t0.rejected > 0 && t0.tenant.0 == 0);
        // The gate pair: structure-heavy mixes must cohort, and cohorting
        // must strictly beat re-preparing per request on a thrashed cache.
        assert!(
            m.cohort_rate >= 0.5,
            "cohort rate {}:\n{text}",
            m.cohort_rate
        );
        assert!(
            m.amortized_sim_ms < m.uncohorted_sim_ms,
            "amortized {} !< uncohorted {}:\n{text}",
            m.amortized_sim_ms,
            m.uncohorted_sim_ms
        );
        assert!(
            m.p99_sim_ms <= 0.04,
            "p99 {} ms (sim):\n{text}",
            m.p99_sim_ms
        );
        assert!(m.p99_sim_ms >= m.p50_sim_ms && m.p50_sim_ms > 0.0);
        assert!(
            text.contains("bit-exact to uncohorted control: true"),
            "{text}"
        );
    }

    #[test]
    fn recovery_is_warm_equivalent_and_idempotent() {
        let mut cache = DatasetCache::with_scale(512);
        let dev = DeviceSpec::rtx3090();
        let (text, m) = recovery(&mut cache, &dev);
        // Every WAL, snapshot and torn snapshot temp file is cleaned up.
        let prefix = format!("hc-bench-rec-{}-", std::process::id());
        let left: Vec<_> = std::fs::read_dir(std::env::temp_dir())
            .expect("temp dir is readable")
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|name| name.starts_with(&prefix))
            .collect();
        assert!(left.is_empty(), "recovery left temp files: {left:?}");
        assert!(
            m.equivalent,
            "recovered report diverged from the uncrashed control:\n{text}"
        );
        assert_eq!(m.double_applied, 0, "{text}");
        // The headline crash point must exercise the WAL: a delta the
        // snapshot does not cover is replayed, and its plan is rebuilt
        // by patch replay rather than a full prepare.
        assert!(m.replayed_deltas > 0, "no delta replayed:\n{text}");
        assert!(m.patch_replays > 0, "no patch replayed:\n{text}");
        assert!(
            m.recovery_ratio <= 0.5,
            "recovery ratio {}: warm recovery is not meaningfully cheaper \
             than replaying the prefix cold\n{text}",
            m.recovery_ratio
        );
    }

    #[test]
    fn tile_compression_pays_for_itself() {
        let mut cache = DatasetCache::with_scale(512);
        let dev = DeviceSpec::rtx3090();
        let (text, m) = tile_compress(&mut cache, &dev);
        assert!(text.contains("ratio"), "summary must render the ratios");
        assert!(m.windows > 100, "sweep too small: {} windows", m.windows);
        // The headline claims the gate enforces in CI: ≥30 % smaller
        // metadata and plan footprint, cheaper preprocessing, fewer
        // tensor cycles.
        assert!(m.bytes_ratio < 0.7, "metadata ratio {}", m.bytes_ratio);
        assert!(
            m.plan_bytes_ratio < 0.7,
            "plan bytes ratio {}",
            m.plan_bytes_ratio
        );
        assert!(
            m.prepare_cost_ratio < 1.0,
            "prepare ratio {}",
            m.prepare_cost_ratio
        );
        assert!(
            m.tensor_cycle_ratio < 1.0,
            "tensor cycle ratio {}",
            m.tensor_cycle_ratio
        );
    }

    #[test]
    fn wider_vw_costs_more_ops() {
        let mut cache = DatasetCache::with_scale(512);
        let dev = DeviceSpec::rtx3090();
        let out = vw_sensitivity(&mut cache, &dev);
        let ops: Vec<u64> = out
            .lines()
            .filter_map(|l| {
                let w: Vec<&str> = l.split_whitespace().collect();
                if w.len() == 5 && w[0].parse::<usize>().is_ok() {
                    w[1].parse().ok()
                } else {
                    None
                }
            })
            .collect();
        assert!(ops.len() >= 4);
        assert!(ops.last().unwrap() > ops.first().unwrap());
    }
}
