//! Concurrent multi-tenant serving front-end with structure-aware
//! dynamic batching.
//!
//! [`Front`] is the fleet-facing door in front of [`SharedPlanCache`]:
//! it ingests a multi-tenant request trace in fixed-size scheduling
//! epochs, sheds load at admission (typed [`HcError::Overloaded`], never
//! a panic or an unbounded buffer), groups the admitted requests of an
//! epoch into *cohorts* by [`StructureFingerprint`] so one
//! `Plan::prepare` + one workspace serves a whole cohort, and executes
//! cohorts across worker threads fed by the facade's bounded channel
//! ([`hc_parallel::sync::channel::Bounded`]).
//!
//! HC-SpMM's premise is that plan preparation (condense + classify +
//! LOA, ≈13× one SpMM) amortizes across executions. The cache already
//! amortizes it across *time* (repeat clients); cohorting amortizes it
//! across *tenants in flight*: ten concurrent requests on one structure
//! pay for one preparation even on a cold cache.
//!
//! ## Pipeline (per epoch)
//!
//! 1. **Admission** — arrival order, pure function of the trace: a full
//!    ingestion queue rejects with [`OverloadReason::QueueFull`], an
//!    exhausted per-tenant epoch quota with
//!    [`OverloadReason::TenantQuota`]. Hostile inputs (malformed graph,
//!    shape mismatch) are admitted but complete immediately as
//!    [`Outcome::Failed`] with no cache traffic. The graph is validated
//!    and fingerprinted through the cache's structure screen, once per
//!    allocation for the cache's lifetime: every front on one cache
//!    recalls the verdicts the others computed. While the cache lives,
//!    `Arc::get_mut` on a screened graph returns `None` and
//!    `Arc::make_mut` copies it to a new allocation, screened afresh.
//! 2. **Cohort formation** — admitted requests grouped by structure
//!    fingerprint in first-arrival order, chunked at
//!    [`FrontConfig::max_cohort`]; cohort ids are global and sequential.
//! 3. **Plan resolution** — one `get_or_prepare` per cohort, issued
//!    sequentially on the scheduler thread so cache counters and
//!    eviction state are identical at any worker count.
//! 4. **Execution** — cohorts stream through a bounded channel to
//!    `workers` threads (an epoch that needs only one worker runs its
//!    cohorts on the scheduler thread instead); each cohort runs on one
//!    worker, members in arrival order through the shared plan, every
//!    member under its own trace-indexed fault stream. A fault mid-cohort
//!    degrades only the implicated member; a cohort whose members all
//!    came back clean is billed as one launch (latency model below).
//!    Poisoned plans are quarantined after the epoch barrier (scheduler
//!    thread, cohort order — deterministic counters).
//!
//! ## Determinism
//!
//! Same trace + same seed ⇒ identical outcomes, cohort assignments,
//! cache counters and simulated latencies at 1, 2 or 8 workers: the
//! only concurrent phase is cohort execution, and each member's result
//! is a pure function of (plan, graph, features, per-index fault
//! stream, device). The simulated latency model is worker-independent
//! by construction (below), so the whole [`FrontReport`] minus
//! `wall_ms` is bit-identical across worker counts.
//!
//! ## Latency model (simulated)
//!
//! Every member of a cohort waits for the cohort's plan (full
//! preparation on a miss — the price of structure-level batching). What
//! it waits for after that depends on how the cohort came back:
//!
//! - **Clean cohort** (≥ 2 members, every one [`Outcome::Ok`]): the
//!   cohort is billed as one SpMM `A·[X1|…|Xk]` of width `Σd`, one
//!   launch instead of k. With `T` that launch's simulated time
//!   ([`Plan::execute_run`] at `Σd`), member *j* is billed
//!   `exec_j = T·d_j/Σd` and `latency_j = prepare + T`. The numerics are
//!   unchanged: each member is still computed on its own, and a row's
//!   accumulation order does not depend on the width, so every output is
//!   bit-identical to a solo execute.
//! - **Any other cohort** (one member, or some member degraded or
//!   failed): members run one after another on the shared workspace,
//!   `latency_j = prepare + Σ_{i≤j} (exec_i + wasted_i)`.
//!
//! The choice is made after the members ran, from their outcomes, so
//! every fault draw, retry, fallback, quarantine and output is what
//! per-member execution produces; only the simulated bill differs.
//! Cross-cohort queueing is *not* modeled as latency; queue pressure is
//! modeled as admission rejection instead, which keeps the metric
//! independent of the worker count. Preparation cost is *charged* once
//! per cohort (to its first member) for amortized-cost accounting; a
//! cohort of one is charged exactly what its miss cost.
//!
//! ## In-order serving
//!
//! [`Front::in_order`] is the same engine with one cache shard, epochs
//! of one arrival and cohorts of one member: every request resolves,
//! executes and quarantines before the next is admitted, which is what a
//! sequential plan-cache loop does. `max_cohort = 1` alone would not do
//! it: a larger epoch groups its arrivals by structure before chunking,
//! and defers quarantine to its barrier.
//!
//! ## Lock order
//!
//! `front-queue` / `front-results` → `plan-shard` → `quarantine-registry`;
//! the cache's `screen-memo` lock is a leaf outside that chain.
//! In practice the front never holds its own locks across a cache call:
//! resolution and quarantine run lock-free on the scheduler thread, and
//! workers take `front-results` only *after* device execution returns
//! (the hazard-guard discipline). The model suite in
//! `crates/check/tests/front_model.rs` checks the combined lock graph
//! stays acyclic.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use gpu_sim::DeviceSpec;
use graph_sparse::{Csr, DeltaCsr, DenseMatrix, StructureFingerprint};
use hc_core::{
    execute_resilient_keyed, FallbackStep, HcError, KernelFamily, OverloadReason, Plan, PlanSpec,
    ResiliencePolicy,
};
use hc_parallel::sync::channel::Bounded;
use hc_parallel::sync::{thread, Mutex};

use crate::cache::CacheStats;
use crate::shared::{SharedPlanCache, SwapOutcome};

/// Opaque tenant identifier. Quotas and SLO accounting key on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// One serving request: a graph and the dense feature matrix to multiply.
#[derive(Clone)]
pub struct Request {
    /// Adjacency (or propagation) matrix. `Arc` so request mixes can
    /// repeat a graph without cloning its arrays.
    pub graph: Arc<Csr>,
    /// Dense right-hand side (`graph.ncols` rows).
    pub features: DenseMatrix,
}

/// How one request ended: the serving layer's graceful-degradation
/// contract. `Ok` and `Degraded` both carry a result that is bit-identical
/// to a fault-free execution of the family that produced it; `Failed`
/// carries a typed error. Nothing panics.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Served by the primary kernel family, first try.
    Ok(DenseMatrix),
    /// Served, but not cleanly: retries were needed and/or a fallback
    /// step produced the result.
    Degraded {
        /// The SpMM result (from the `fallback` step).
        z: DenseMatrix,
        /// The chain step that produced the surviving result.
        fallback: FallbackStep,
        /// Attempts beyond the first, across all steps.
        retries: u32,
    },
    /// The request could not be served.
    Failed(HcError),
}

impl Outcome {
    /// The result matrix, when one was produced.
    pub fn z(&self) -> Option<&DenseMatrix> {
        match self {
            Outcome::Ok(z) | Outcome::Degraded { z, .. } => Some(z),
            Outcome::Failed(_) => None,
        }
    }

    /// True for [`Outcome::Degraded`].
    pub fn is_degraded(&self) -> bool {
        matches!(self, Outcome::Degraded { .. })
    }

    /// True for [`Outcome::Failed`].
    pub fn is_failed(&self) -> bool {
        matches!(self, Outcome::Failed(_))
    }

    /// The error, for [`Outcome::Failed`].
    pub fn error(&self) -> Option<&HcError> {
        match self {
            Outcome::Failed(e) => Some(e),
            _ => None,
        }
    }
}

/// One front-end arrival: a tenant and its serving request.
#[derive(Clone)]
pub struct FrontRequest {
    /// The submitting tenant.
    pub tenant: TenantId,
    /// The (graph, features) request itself.
    pub request: Request,
}

/// A structure mutation arriving on the control plane: an edge-churn
/// delta against a known base graph. Admitted outside the data-plane
/// queue and quotas; see [`Front::run_events`].
#[derive(Clone)]
pub struct Mutation {
    /// The graph the delta applies to (must match a structure the front
    /// has seen for the patch path to engage).
    pub base: Arc<Csr>,
    /// The edge insert/delete batch.
    pub delta: DeltaCsr,
}

/// One front-end trace event: a data-plane serving request or a
/// control-plane structure mutation.
#[derive(Clone)]
pub enum FrontEvent {
    /// Serve a tenant request (admission-controlled).
    Serve(FrontRequest),
    /// Apply a structure mutation (bypasses queue and quotas).
    Mutate(Mutation),
}

/// One trace entry as the engine reads it, borrowed from the caller's
/// trace.
#[derive(Clone, Copy)]
pub(crate) enum ArrivalRef<'t> {
    Serve(&'t FrontRequest),
    Mutate(&'t Mutation),
}

/// A trace entry the engine reads in place, so a request trace and an
/// event trace both reach it without copying a request.
pub(crate) trait Arrival {
    fn arrival(&self) -> ArrivalRef<'_>;
}

impl Arrival for FrontRequest {
    fn arrival(&self) -> ArrivalRef<'_> {
        ArrivalRef::Serve(self)
    }
}

impl Arrival for FrontEvent {
    fn arrival(&self) -> ArrivalRef<'_> {
        match self {
            FrontEvent::Serve(fr) => ArrivalRef::Serve(fr),
            FrontEvent::Mutate(m) => ArrivalRef::Mutate(m),
        }
    }
}

/// What the front did with one [`Mutation`], in trace order. The old
/// plan keeps serving — flagged stale — from the moment the mutation is
/// admitted until the patched plan is swapped in at the epoch barrier.
#[derive(Debug, Clone, PartialEq)]
pub struct MutationOutcome {
    /// Position in the event trace.
    pub trace_index: usize,
    /// Scheduling epoch the mutation fell into.
    pub epoch: usize,
    /// Fingerprint of the base (pre-mutation) structure, or the
    /// [`HcError::BadInput`] a malformed base failed validation with. A
    /// malformed base marks nothing stale, patches nothing and logs
    /// nothing.
    pub old_fp: Result<StructureFingerprint, HcError>,
    /// Fingerprint of the mutated structure, when the delta applied
    /// cleanly.
    pub new_fp: Option<StructureFingerprint>,
    /// Whether a resident plan was found and patched (vs. nothing
    /// resident, or the patch refused — LOA plan, delta/base mismatch).
    pub patched: bool,
    /// What the cache did with the patched plan, when one was built.
    pub swap: Option<SwapOutcome>,
    /// Simulated cost of the incremental re-plan (dirty windows only);
    /// 0 when no patch was built.
    pub patch_sim_ms: f64,
}

/// Front-end tuning knobs. All counts are clamped to ≥ 1 at run time.
#[derive(Debug, Clone, Copy)]
pub struct FrontConfig {
    /// Worker threads executing cohorts (0 ⇒ available parallelism).
    /// Outcomes and simulated metrics do not depend on this.
    pub workers: usize,
    /// Ingestion-queue bound: admitted requests per epoch, all tenants.
    pub queue_depth: usize,
    /// Admission quota per tenant per epoch.
    pub tenant_quota: usize,
    /// Arrivals grouped into one scheduling epoch.
    pub arrivals_per_epoch: usize,
    /// Largest cohort one worker executes in one dispatch.
    pub max_cohort: usize,
    /// Per-request SLO threshold on simulated latency, in ms.
    pub slo_sim_ms: f64,
    /// Retry/fallback/validation policy; its fault schedule is re-seeded
    /// per trace index, so a request's fault draws do not depend on the
    /// epoch or cohort it lands in.
    pub policy: ResiliencePolicy,
}

impl Default for FrontConfig {
    fn default() -> FrontConfig {
        FrontConfig {
            workers: 0,
            queue_depth: 64,
            tenant_quota: 16,
            arrivals_per_epoch: 32,
            max_cohort: 16,
            slo_sim_ms: 50.0,
            policy: ResiliencePolicy::default(),
        }
    }
}

/// One completed (or shed) front-end request, in trace order.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontResponse {
    /// The submitting tenant.
    pub tenant: TenantId,
    /// Position in the input trace.
    pub trace_index: usize,
    /// Scheduling epoch the arrival fell into.
    pub epoch: usize,
    /// How the request ended. Admission rejections surface as
    /// [`Outcome::Failed`]\([`HcError::Overloaded`]\).
    pub outcome: Outcome,
    /// Whether the cohort's plan came from the cache.
    pub hit: bool,
    /// Whether the cohort's plan was stale: a mutation superseded its
    /// structure and the request was served by the old plan while the
    /// patched replacement was still being built (stale-plan tolerance).
    pub stale: bool,
    /// Global cohort id, when the request reached execution.
    pub cohort: Option<u64>,
    /// Members in that cohort (≥ 1 when executed, 0 otherwise).
    pub cohort_size: usize,
    /// Simulated ms of this member's surviving execution. In a clean
    /// cohort billed as one launch of width `Σd`, the member's share
    /// `T·d/Σd` of that launch (module docs: latency model).
    pub exec_sim_ms: f64,
    /// Simulated preparation ms *charged* to this member (full cost to a
    /// miss-cohort's first member, 0 to everyone else).
    pub prepare_sim_ms: f64,
    /// Simulated ms of discarded (faulted/invalid) attempts.
    pub wasted_sim_ms: f64,
    /// Simulated admission-to-completion latency: `prepare + T` for every
    /// member of a clean cohort billed as one launch of time `T`, else
    /// `prepare` plus the exec and wasted time of this member and of those
    /// ahead of it in its cohort (module docs: latency model).
    pub latency_sim_ms: f64,
}

impl FrontResponse {
    /// The result matrix, when the request was served.
    pub fn z(&self) -> Option<&DenseMatrix> {
        self.outcome.z()
    }

    /// True when admission shed this request.
    pub fn is_rejected(&self) -> bool {
        matches!(self.outcome, Outcome::Failed(HcError::Overloaded { .. }))
    }
}

/// Deterministic front-end traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontCounters {
    /// Trace entries ingested.
    pub submitted: u64,
    /// Entries that passed admission.
    pub admitted: u64,
    /// Shed: ingestion queue full.
    pub rejected_queue: u64,
    /// Shed: tenant epoch quota exhausted.
    pub rejected_quota: u64,
    /// Admitted entries that ran to an outcome (== `admitted`; the front
    /// never drops work after admission).
    pub completed: u64,
    /// Clean primary-family successes.
    pub ok: u64,
    /// Served after retry/fallback.
    pub degraded: u64,
    /// Typed failures (hostile inputs, exhausted fallbacks).
    pub failed: u64,
    /// Cohorts dispatched.
    pub cohorts: u64,
    /// Admitted requests that shared a cohort with at least one other.
    pub cohorted_requests: u64,
    /// Scheduling epochs processed.
    pub epochs: u64,
    /// Cohorts whose plan was quarantined after a poisoning fault.
    pub quarantined_cohorts: u64,
    /// Control-plane mutations ingested (not counted in `submitted`).
    pub mutations: u64,
    /// Mutations resolved by patching the resident plan incrementally.
    pub patched_plans: u64,
    /// Requests served by a stale plan (mutation admitted, patched plan
    /// not yet swapped in).
    pub stale_served: u64,
}

impl FrontCounters {
    /// Total shed requests.
    pub fn rejected(&self) -> u64 {
        self.rejected_queue + self.rejected_quota
    }

    /// Fraction of admitted requests that executed in a cohort of ≥ 2 —
    /// the structure-level batching yield.
    pub fn cohort_rate(&self) -> f64 {
        if self.admitted == 0 {
            0.0
        } else {
            self.cohorted_requests as f64 / self.admitted as f64
        }
    }
}

/// Simulated-latency distribution over served requests.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyStats {
    /// Served requests the distribution covers.
    pub served: u64,
    /// Median simulated latency, ms (nearest-rank).
    pub p50_sim_ms: f64,
    /// 99th-percentile simulated latency, ms (nearest-rank).
    pub p99_sim_ms: f64,
    /// Mean simulated latency, ms.
    pub mean_sim_ms: f64,
    /// Worst simulated latency, ms.
    pub max_sim_ms: f64,
}

/// Per-tenant admission and SLO accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantStats {
    /// The tenant.
    pub tenant: TenantId,
    /// Trace entries this tenant submitted.
    pub submitted: u64,
    /// Entries that passed admission.
    pub admitted: u64,
    /// Entries shed at admission (queue or quota).
    pub rejected: u64,
    /// Entries served (ok or degraded).
    pub served: u64,
    /// Entries that failed after admission.
    pub failed: u64,
    /// Served entries whose simulated latency exceeded the SLO.
    pub slo_violations: u64,
    /// 99th-percentile simulated latency over this tenant's served
    /// entries, ms.
    pub p99_sim_ms: f64,
}

/// Everything one [`Front::run_trace`] produced.
#[derive(Debug, Clone)]
pub struct FrontReport {
    /// One response per trace entry, in trace order.
    pub responses: Vec<FrontResponse>,
    /// Deterministic traffic counters.
    pub counters: FrontCounters,
    /// Latency distribution over served requests.
    pub latency: LatencyStats,
    /// Per-tenant accounting, ordered by tenant id.
    pub tenants: Vec<TenantStats>,
    /// One outcome per [`FrontEvent::Mutate`] in the trace, in trace
    /// order (empty for pure serving traces).
    pub mutations: Vec<MutationOutcome>,
    /// Plan-cache counters after the run.
    pub cache: CacheStats,
    /// Host wall-clock ms for the whole trace (the one
    /// non-deterministic field).
    pub wall_ms: f64,
}

impl FrontReport {
    /// Total simulated cost (prepare + exec + wasted) per admitted
    /// request this report holds — the amortization headline the
    /// benchmark gates. The divisor counts the report's own admitted
    /// responses, not `counters.admitted`: a resumed
    /// [`DurableFront::run`](crate::DurableFront::run) reports only the
    /// epochs it ran, while its counters are cumulative. On a complete
    /// report the two counts agree.
    pub fn amortized_sim_ms(&self) -> f64 {
        let admitted = self.responses.iter().filter(|r| !r.is_rejected()).count();
        if admitted == 0 {
            return 0.0;
        }
        let total: f64 = self
            .responses
            .iter()
            .map(|r| r.prepare_sim_ms + r.exec_sim_ms + r.wasted_sim_ms)
            .sum();
        total / admitted as f64
    }
}

/// Nearest-rank percentile over an ascending-sorted slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The per-request half of the screen: the feature matrix must have one
/// row per graph column. The graph itself is validated once per
/// allocation by the cache's structure screen.
fn check_shape(req: &Request) -> Result<(), HcError> {
    if req.features.rows != req.graph.ncols {
        return Err(HcError::ShapeMismatch {
            expected_rows: req.graph.ncols,
            got_rows: req.features.rows,
        });
    }
    Ok(())
}

/// What [`execute_planned`] observed: the outcome plus the simulated-time
/// and poisoning facts the caller needs to finish its accounting.
struct Executed {
    outcome: Outcome,
    /// Simulated ms of the surviving execution (0 on failure / CPU ref).
    exec_sim_ms: f64,
    /// Simulated ms of discarded (faulted or invalid) attempts.
    wasted_sim_ms: f64,
    /// Whether the plan was implicated in a fault and must be
    /// quarantined by the caller.
    poisoned: bool,
}

/// The post-lookup half of serving: run one request through an
/// already-resolved plan under `policy` (whose fault schedule the caller
/// has re-seeded) and classify the result against `primary`. `graph_fp`
/// is `graph`'s fingerprint, already computed by the caller's screen.
/// Pure with respect to the caller's caches — quarantine is the caller's
/// job, via [`Executed::poisoned`].
fn execute_planned(
    plan: &Plan,
    graph: &Csr,
    graph_fp: StructureFingerprint,
    features: &DenseMatrix,
    dev: &DeviceSpec,
    policy: &ResiliencePolicy,
    primary: KernelFamily,
) -> Executed {
    let run = execute_resilient_keyed(plan, graph, graph_fp, features, dev, policy);
    let degraded = run.degraded(primary);
    let (outcome, exec_sim_ms) = match run.result {
        Ok(r) if degraded => (
            Outcome::Degraded {
                z: r.z,
                fallback: run.executed,
                retries: run.retries,
            },
            r.run.time_ms,
        ),
        Ok(r) => (Outcome::Ok(r.z), r.run.time_ms),
        Err(e) => (Outcome::Failed(e), 0.0),
    };
    Executed {
        outcome,
        exec_sim_ms,
        wasted_sim_ms: run.wasted_sim_ms,
        poisoned: run.poisoned,
    }
}

/// A resolved cohort queued for execution: one plan, the member
/// requests in arrival order.
struct CohortJob<'t> {
    id: u64,
    hit: bool,
    stale: bool,
    plan: Arc<hc_core::Plan>,
    fp: StructureFingerprint,
    /// Full preparation cost when this cohort missed, else 0.
    prepare_ms: f64,
    members: Vec<(usize, &'t FrontRequest)>,
}

/// Run one cohort: its members in arrival order through the shared plan,
/// each under its own trace-indexed fault stream, then bill it (module
/// docs: latency model). A clean cohort is re-billed as one launch; any
/// other keeps the per-member bill, where a member waits for the plan and
/// for the members ahead of it on the shared workspace.
fn execute_cohort(
    job: CohortJob<'_>,
    policy: &ResiliencePolicy,
    dev: &DeviceSpec,
    primary: KernelFamily,
) -> CohortDone {
    let mut outs = Vec::with_capacity(job.members.len());
    let mut poisoned = false;
    let mut queued = job.prepare_ms;
    for (k, &(ti, fr)) in job.members.iter().enumerate() {
        let mut member_policy = *policy;
        member_policy.faults = policy.faults.stream(ti as u64);
        let ex = execute_planned(
            &job.plan,
            &fr.request.graph,
            job.fp,
            &fr.request.features,
            dev,
            &member_policy,
            primary,
        );
        poisoned |= ex.poisoned;
        queued += ex.exec_sim_ms + ex.wasted_sim_ms;
        outs.push(MemberOut {
            trace_index: ti,
            tenant: fr.tenant,
            outcome: ex.outcome,
            exec_sim_ms: ex.exec_sim_ms,
            prepare_sim_ms: if k == 0 { job.prepare_ms } else { 0.0 },
            wasted_sim_ms: ex.wasted_sim_ms,
            latency_sim_ms: queued,
        });
    }
    if outs.len() >= 2 && outs.iter().all(|o| matches!(o.outcome, Outcome::Ok(_))) {
        bill_one_launch(&job, &mut outs, dev, primary);
    }
    CohortDone {
        id: job.id,
        hit: job.hit,
        stale: job.stale,
        fp: job.fp,
        size: job.members.len(),
        poisoned,
        outs,
    }
}

/// Re-bill a clean cohort — every member served by `primary` on its first
/// try — as the single SpMM `A·[X1|…|Xk]` of width `Σd`: with `T` that
/// launch's simulated time, member *j* is billed `T·d_j/Σd` of exec and
/// completes at `prepare + T`. A cohort of zero-width members splits `T`
/// evenly. Only the bill changes: outputs were computed per member, and
/// the launch is priced after every member's fault scope has closed, so
/// no fault stream observes it.
fn bill_one_launch(
    job: &CohortJob<'_>,
    outs: &mut [MemberOut],
    dev: &DeviceSpec,
    primary: KernelFamily,
) {
    let widths = || job.members.iter().map(|(_, fr)| fr.request.features.cols);
    let total: usize = widths().sum();
    let graph = &job.members[0].1.request.graph;
    let t = job.plan.execute_run(primary, graph, total, dev).time_ms;
    for (out, d) in outs.iter_mut().zip(widths()) {
        out.exec_sim_ms = if total == 0 {
            t / job.members.len() as f64
        } else {
            t * d as f64 / total as f64
        };
        out.latency_sim_ms = job.prepare_ms + t;
    }
}

/// Closes the cohort channel when a worker unwinds. Without it, once every
/// worker has panicked the scheduler blocks forever in `send` on a full
/// queue that nobody drains; with it, `send` fails, the scheduler stops
/// dispatching, and the scope join reports the panic.
struct CloseOnPanic<'c, T>(&'c Bounded<T>);

impl<T> Drop for CloseOnPanic<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.close();
        }
    }
}

/// One member's execution record, produced on a worker.
struct MemberOut {
    trace_index: usize,
    tenant: TenantId,
    outcome: Outcome,
    exec_sim_ms: f64,
    prepare_sim_ms: f64,
    wasted_sim_ms: f64,
    latency_sim_ms: f64,
}

/// One executed cohort, pushed to the results sink.
struct CohortDone {
    id: u64,
    hit: bool,
    stale: bool,
    fp: StructureFingerprint,
    size: usize,
    poisoned: bool,
    outs: Vec<MemberOut>,
}

/// Everything visible at one epoch barrier, handed to the
/// [`EpochSink`] after the epoch's mutations swapped and before the next
/// epoch starts. The responses and mutation outcomes are moved out of the
/// front: from here on the sink holds the only copy.
pub(crate) struct EpochEnd {
    /// Global epoch index.
    pub epoch: usize,
    /// Cumulative counters at the barrier (pre-aggregation: `ok`,
    /// `degraded` and `failed` are computed from responses at report
    /// time, never here).
    pub counters: FrontCounters,
    /// This epoch's responses, one per serve event, in trace order.
    pub responses: Vec<FrontResponse>,
    /// This epoch's mutation outcomes, in trace order.
    pub mutations: Vec<MutationOutcome>,
}

/// Epoch-boundary hooks the durability layer installs on
/// [`Front::run_events_from`]. The plain sink only collects what each
/// barrier delivers. Returning `Err` unwinds the run to its recovery
/// boundary — this is how injected crashes and WAL I/O errors stop the
/// front without panicking.
pub(crate) trait EpochSink {
    /// Why the run stopped early.
    type Halt;

    /// Called once per epoch after admission, before execution.
    fn mid_epoch(&mut self, epoch: usize) -> Result<(), Self::Halt>;

    /// Called for each structurally effective mutation at the barrier,
    /// *before* its swap commits — the write-ahead point.
    fn log_mutation(
        &mut self,
        epoch: usize,
        trace_index: usize,
        base_fp: StructureFingerprint,
        new_fp: StructureFingerprint,
        delta: &DeltaCsr,
    ) -> Result<(), Self::Halt>;

    /// Called at the epoch barrier after the mutation swaps: the commit
    /// point where the durability layer writes its fsync marker and
    /// takes delivery of the epoch's responses.
    fn epoch_end(&mut self, end: EpochEnd) -> Result<(), Self::Halt>;
}

/// The sink behind plain [`Front::run_events`]: collects every epoch's
/// responses and mutation outcomes, cannot halt.
#[derive(Default)]
struct CollectSink {
    responses: Vec<FrontResponse>,
    mutations: Vec<MutationOutcome>,
}

impl EpochSink for CollectSink {
    type Halt = std::convert::Infallible;

    fn mid_epoch(&mut self, _epoch: usize) -> Result<(), Self::Halt> {
        Ok(())
    }

    fn log_mutation(
        &mut self,
        _epoch: usize,
        _trace_index: usize,
        _base_fp: StructureFingerprint,
        _new_fp: StructureFingerprint,
        _delta: &DeltaCsr,
    ) -> Result<(), Self::Halt> {
        Ok(())
    }

    fn epoch_end(&mut self, end: EpochEnd) -> Result<(), Self::Halt> {
        self.responses.extend(end.responses);
        self.mutations.extend(end.mutations);
        Ok(())
    }
}

/// The concurrent serving front-end. See the module docs for the
/// pipeline and its determinism/lock-order contracts.
pub struct Front {
    cache: Arc<SharedPlanCache>,
    cfg: FrontConfig,
}

impl Front {
    /// Front over a fresh [`SharedPlanCache`] with `cache_bytes` split
    /// across `shards` lanes for plans of `spec`.
    pub fn new(cache_bytes: u64, spec: PlanSpec, shards: usize, cfg: FrontConfig) -> Front {
        Front::with_cache(
            Arc::new(SharedPlanCache::new(cache_bytes, spec, shards)),
            cfg,
        )
    }

    /// Front over an existing (possibly shared) cache.
    pub fn with_cache(cache: Arc<SharedPlanCache>, cfg: FrontConfig) -> Front {
        Front { cache, cfg }
    }

    /// The in-order front: one cache shard, epochs of one arrival and
    /// cohorts of one member. Each request resolves its plan, executes,
    /// and has a poisoned plan quarantined at its own epoch barrier before
    /// the next request is admitted, so the cache sees the lookup sequence
    /// of a sequential `get_or_prepare` loop and every response depends
    /// only on the requests before it. Nothing is shed: a one-arrival
    /// epoch never exceeds a queue or a quota.
    pub fn in_order(cache_bytes: u64, spec: PlanSpec, policy: ResiliencePolicy) -> Front {
        Front::new(
            cache_bytes,
            spec,
            1,
            FrontConfig {
                workers: 1,
                arrivals_per_epoch: 1,
                max_cohort: 1,
                policy,
                ..FrontConfig::default()
            },
        )
    }

    /// The underlying plan cache.
    pub fn cache(&self) -> &SharedPlanCache {
        &self.cache
    }

    /// The configuration this front runs with.
    pub fn config(&self) -> &FrontConfig {
        &self.cfg
    }

    /// Serve a complete request trace: epochs of admission → cohorting →
    /// resolution → parallel execution. Never panics on request content;
    /// every trace entry comes back with a typed outcome, in trace
    /// order. Deterministic at any worker count (module docs).
    /// Equivalent to [`run_events`](Front::run_events) over a trace with
    /// no mutations; the engine reads the requests in place.
    pub fn run_trace(&self, trace: &[FrontRequest], dev: &DeviceSpec) -> FrontReport {
        self.collect(trace, dev)
    }

    /// Serve a mixed trace of data-plane requests and control-plane
    /// structure mutations.
    ///
    /// Mutations bypass the ingestion queue and tenant quotas (they are
    /// operator actions, not tenant traffic). At admission the mutation
    /// marks the base structure's resident plan *stale*; the plan keeps
    /// serving — every such response is flagged
    /// [`stale`](FrontResponse::stale) and counted in
    /// [`stale_served`](FrontCounters::stale_served) — for the rest of
    /// the epoch. At the epoch barrier the scheduler thread patches the
    /// resident plan incrementally ([`hc_core::Plan::patch`], dirty
    /// windows only) and swaps it in first-insert-wins, with quarantine
    /// preserved across the swap; from the next epoch on, requests on the
    /// mutated structure hit the patched plan. Epoch batching means a
    /// mutation affects every request of its own epoch regardless of
    /// relative position within the epoch.
    pub fn run_events(&self, events: &[FrontEvent], dev: &DeviceSpec) -> FrontReport {
        self.collect(events, dev)
    }

    /// One whole serving call: the engine from epoch 0 into a collecting
    /// sink, then the report.
    fn collect<A: Arrival>(&self, trace: &[A], dev: &DeviceSpec) -> FrontReport {
        let t0 = Instant::now();
        let mut sink = CollectSink::default();
        let counters =
            match self.run_events_from(trace, dev, 0, FrontCounters::default(), &mut sink) {
                Ok(counters) => counters,
                Err(halt) => match halt {},
            };
        self.assemble_report(sink.responses, counters, sink.mutations, t0)
    }

    /// [`run_events`](Front::run_events) with a resume point and
    /// durability hooks — the engine both the plain and the crash-safe
    /// fronts run on.
    ///
    /// `events` is always the *full* trace; epochs before `start_epoch`
    /// are skipped (their effects live in `counters_seed` and in the
    /// restored cache), so trace indices, epoch numbers and per-request
    /// fault streams are globally stable across a crash/recover/resume
    /// cycle. Each epoch's responses and mutation outcomes are moved into
    /// `sink` at its barrier, never kept here, so the caller assembles
    /// its report from what its sink holds. Returns the cumulative
    /// pre-aggregation counters after the last epoch.
    ///
    /// Every graph is screened through the cache, which validates and
    /// fingerprints each allocation once for its lifetime.
    pub(crate) fn run_events_from<A: Arrival, S: EpochSink>(
        &self,
        events: &[A],
        dev: &DeviceSpec,
        start_epoch: usize,
        counters_seed: FrontCounters,
        sink: &mut S,
    ) -> Result<FrontCounters, S::Halt> {
        let cfg = self.cfg;
        let queue_depth = cfg.queue_depth.max(1);
        let tenant_quota = cfg.tenant_quota.max(1);
        let epoch_len = cfg.arrivals_per_epoch.max(1);
        let max_cohort = cfg.max_cohort.max(1);

        let mut counters = counters_seed;
        // The current epoch's response slots, by offset in the epoch
        // (`None` for mutation events); emptied into the sink at its
        // barrier.
        let mut slots: Vec<Option<FrontResponse>> = Vec::with_capacity(epoch_len);

        for (epoch, arrivals) in events.chunks(epoch_len).enumerate().skip(start_epoch) {
            counters.epochs += 1;
            let base = epoch * epoch_len;
            slots.resize_with(arrivals.len(), || None);

            // --- Admission: arrival order, pure function of the trace.
            // Mutations are admitted unconditionally (control plane) and
            // immediately flag the superseded plan stale; patching waits
            // for the epoch barrier. A base that fails the screen flags
            // nothing.
            let mut admitted: Vec<(usize, &FrontRequest, StructureFingerprint)> = Vec::new();
            let mut epoch_mutations: Vec<(
                usize,
                &Mutation,
                Result<StructureFingerprint, HcError>,
            )> = Vec::new();
            let mut per_tenant: HashMap<TenantId, usize> = HashMap::new();
            for (off, ev) in arrivals.iter().enumerate() {
                let ti = base + off;
                let fr = match ev.arrival() {
                    ArrivalRef::Serve(fr) => fr,
                    ArrivalRef::Mutate(m) => {
                        counters.mutations += 1;
                        let base_fp = self.cache.screen(&m.base).map_err(HcError::BadInput);
                        if let Ok(fp) = base_fp {
                            self.cache.mark_stale(fp);
                        }
                        epoch_mutations.push((ti, m, base_fp));
                        continue;
                    }
                };
                counters.submitted += 1;
                let reason = if admitted.len() >= queue_depth {
                    Some(OverloadReason::QueueFull)
                } else if per_tenant.get(&fr.tenant).copied().unwrap_or(0) >= tenant_quota {
                    Some(OverloadReason::TenantQuota)
                } else {
                    None
                };
                if let Some(reason) = reason {
                    match reason {
                        OverloadReason::QueueFull => counters.rejected_queue += 1,
                        OverloadReason::TenantQuota => counters.rejected_quota += 1,
                    }
                    slots[off] = Some(FrontResponse {
                        tenant: fr.tenant,
                        trace_index: ti,
                        epoch,
                        outcome: Outcome::Failed(HcError::Overloaded { reason }),
                        hit: false,
                        stale: false,
                        cohort: None,
                        cohort_size: 0,
                        exec_sim_ms: 0.0,
                        prepare_sim_ms: 0.0,
                        wasted_sim_ms: 0.0,
                        latency_sim_ms: 0.0,
                    });
                    continue;
                }
                counters.admitted += 1;
                *per_tenant.entry(fr.tenant).or_insert(0) += 1;
                // Screen hostile inputs now: they complete immediately,
                // with no cohort and no cache traffic. The graph's screen
                // runs once per allocation per cache; the shape check,
                // per request.
                let screened = self
                    .cache
                    .screen(&fr.request.graph)
                    .map_err(HcError::BadInput)
                    .and_then(|fp| check_shape(&fr.request).map(|()| fp));
                match screened {
                    Ok(fp) => admitted.push((ti, fr, fp)),
                    Err(e) => {
                        counters.completed += 1;
                        slots[off] = Some(FrontResponse {
                            tenant: fr.tenant,
                            trace_index: ti,
                            epoch,
                            outcome: Outcome::Failed(e),
                            hit: false,
                            stale: false,
                            cohort: None,
                            cohort_size: 0,
                            exec_sim_ms: 0.0,
                            prepare_sim_ms: 0.0,
                            wasted_sim_ms: 0.0,
                            latency_sim_ms: 0.0,
                        });
                    }
                }
            }
            sink.mid_epoch(epoch)?;

            // --- Cohort formation: by fingerprint, first-arrival order.
            let mut group_of: HashMap<StructureFingerprint, usize> = HashMap::new();
            let mut groups: Vec<(StructureFingerprint, Vec<(usize, &FrontRequest)>)> = Vec::new();
            for (ti, fr, fp) in admitted {
                let gi = *group_of.entry(fp).or_insert_with(|| {
                    groups.push((fp, Vec::new()));
                    groups.len() - 1
                });
                groups[gi].1.push((ti, fr));
            }

            // --- Plan resolution: sequential, scheduler thread only, so
            // cache counters and eviction state are worker-count-independent.
            let mut jobs: Vec<CohortJob<'_>> = Vec::new();
            for (fp, members) in groups {
                for chunk in members.chunks(max_cohort) {
                    let (_, first) = chunk[0];
                    let l = self.cache.lookup_keyed(&first.request.graph, fp, dev);
                    let prepare_ms = if l.hit { 0.0 } else { l.plan.sim_prepare_ms() };
                    let id = counters.cohorts;
                    counters.cohorts += 1;
                    if chunk.len() >= 2 {
                        counters.cohorted_requests += chunk.len() as u64;
                    }
                    jobs.push(CohortJob {
                        id,
                        hit: l.hit,
                        stale: l.stale,
                        plan: l.plan,
                        fp,
                        prepare_ms,
                        members: chunk.to_vec(),
                    });
                }
            }

            // --- Execution: an epoch that needs one worker runs its
            // cohorts on the scheduler thread; otherwise cohorts stream
            // through a bounded channel to the workers and the epoch
            // barrier is the scope join.
            let primary = self.cache.spec().family;
            let n_workers = if cfg.workers == 0 {
                thread::available_parallelism()
            } else {
                cfg.workers
            }
            .min(jobs.len())
            .max(1);
            let mut finished: Vec<CohortDone> = if n_workers == 1 {
                jobs.into_iter()
                    .map(|job| execute_cohort(job, &cfg.policy, dev, primary))
                    .collect()
            } else {
                let done: Mutex<Vec<CohortDone>> = Mutex::named("front-results", Vec::new());
                let chan: Bounded<CohortJob<'_>> = Bounded::new(n_workers, "front-queue");
                thread::scope(|s| {
                    let (chan, done, policy) = (&chan, &done, &cfg.policy);
                    for _ in 0..n_workers {
                        s.spawn(move |_| {
                            let _close = CloseOnPanic(chan);
                            while let Some(job) = chan.recv() {
                                let cohort = execute_cohort(job, policy, dev, primary);
                                // Results lock is taken only after device
                                // execution returned (hazard discipline).
                                done.lock().push(cohort);
                            }
                        });
                    }
                    for job in jobs {
                        // Blocking bounded send = backpressure on the
                        // scheduler; never an unbounded buffer.
                        if chan.send(job).is_err() {
                            break;
                        }
                    }
                    chan.close();
                })
                .expect("front workers must not panic");
                done.into_inner()
            };

            // --- Collection: cohort order, scheduler thread. Quarantine
            // poisoned plans here so registry counters are deterministic.
            finished.sort_by_key(|c| c.id);
            for c in finished {
                if c.poisoned {
                    counters.quarantined_cohorts += 1;
                    self.cache.quarantine(c.fp);
                }
                for out in c.outs {
                    counters.completed += 1;
                    if c.stale {
                        counters.stale_served += 1;
                    }
                    slots[out.trace_index - base] = Some(FrontResponse {
                        tenant: out.tenant,
                        trace_index: out.trace_index,
                        epoch,
                        outcome: out.outcome,
                        hit: c.hit,
                        stale: c.stale,
                        cohort: Some(c.id),
                        cohort_size: c.size,
                        exec_sim_ms: out.exec_sim_ms,
                        prepare_sim_ms: out.prepare_sim_ms,
                        wasted_sim_ms: out.wasted_sim_ms,
                        latency_sim_ms: out.latency_sim_ms,
                    });
                }
            }

            // --- Mutation barrier: patch + swap on the scheduler thread,
            // in arrival order, after the epoch's cohorts drained — the
            // stale plan served this epoch; the patched plan serves the
            // next.
            let mut mutation_outs: Vec<MutationOutcome> = Vec::with_capacity(epoch_mutations.len());
            for (ti, m, base_fp) in epoch_mutations {
                let mut out = MutationOutcome {
                    trace_index: ti,
                    epoch,
                    old_fp: base_fp.clone(),
                    new_fp: None,
                    patched: false,
                    swap: None,
                    patch_sim_ms: 0.0,
                };
                // A malformed base never reaches the cache, the patcher
                // or the log: its outcome carries the typed error.
                let Ok(old_fp) = base_fp else {
                    mutation_outs.push(out);
                    continue;
                };
                let resident = self.cache.peek(old_fp);
                let patched = resident
                    .as_ref()
                    .and_then(|r| r.patch_keyed(&m.base, old_fp, &m.delta, dev).ok());
                out.new_fp = match &patched {
                    Some(p) => Some(p.fingerprint),
                    // Unpatchable (LOA plan, delta disagrees with the
                    // base, or nothing resident): the post-mutation
                    // fingerprint comes from applying the delta directly.
                    None => m
                        .delta
                        .apply(&m.base)
                        .ok()
                        .map(|g| StructureFingerprint::of(&g)),
                };
                // Durability: the delta is on the log *before* the swap
                // publishes it, so recovery never sees a plan with no
                // provenance.
                if let Some(new_fp) = out.new_fp {
                    sink.log_mutation(epoch, ti, old_fp, new_fp, &m.delta)?;
                }
                match (resident.is_some(), patched) {
                    (true, Some(p)) => {
                        out.patched = true;
                        out.patch_sim_ms = p.sim_prepare_ms();
                        counters.patched_plans += 1;
                        out.swap = Some(self.cache.swap_patched(old_fp, Arc::new(p)));
                    }
                    (true, None) => {
                        // Retire the stale entry; the mutated structure
                        // prepares from scratch on its next request.
                        self.cache.remove(old_fp);
                    }
                    // Nothing resident to patch, so nothing stale is
                    // serving either.
                    (false, _) => {}
                }
                mutation_outs.push(out);
            }

            // Delivery is a move: the slots are emptied into the sink.
            let responses = slots
                .drain(..)
                .zip(arrivals)
                .filter_map(|(s, ev)| match ev.arrival() {
                    ArrivalRef::Serve(_) => Some(s.expect("every serve event produces a response")),
                    ArrivalRef::Mutate(_) => None,
                })
                .collect();
            sink.epoch_end(EpochEnd {
                epoch,
                counters,
                responses,
                mutations: mutation_outs,
            })?;
        }
        Ok(counters)
    }

    /// Fold responses into the final [`FrontReport`], with this front's
    /// cache statistics and SLO and the wall time since `started`:
    /// latency percentiles, per-tenant accounting, and the
    /// `ok`/`degraded`/`failed` counter tail that is a pure function of
    /// the responses (epoch markers persist the pre-aggregation counters;
    /// recovery re-derives these from the merged response set).
    pub(crate) fn assemble_report(
        &self,
        responses: Vec<FrontResponse>,
        mut counters: FrontCounters,
        mutations: Vec<MutationOutcome>,
        started: Instant,
    ) -> FrontReport {
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let slo_sim_ms = self.cfg.slo_sim_ms;
        let mut latencies: Vec<f64> = Vec::new();
        let mut tenants: std::collections::BTreeMap<TenantId, (TenantStats, Vec<f64>)> =
            std::collections::BTreeMap::new();
        for r in &responses {
            let (ts, lats) = tenants.entry(r.tenant).or_insert_with(|| {
                (
                    TenantStats {
                        tenant: r.tenant,
                        submitted: 0,
                        admitted: 0,
                        rejected: 0,
                        served: 0,
                        failed: 0,
                        slo_violations: 0,
                        p99_sim_ms: 0.0,
                    },
                    Vec::new(),
                )
            });
            ts.submitted += 1;
            if r.is_rejected() {
                ts.rejected += 1;
                continue;
            }
            ts.admitted += 1;
            match &r.outcome {
                Outcome::Ok(_) => counters.ok += 1,
                Outcome::Degraded { .. } => counters.degraded += 1,
                Outcome::Failed(_) => {
                    counters.failed += 1;
                    ts.failed += 1;
                    continue;
                }
            }
            ts.served += 1;
            if r.latency_sim_ms > slo_sim_ms {
                ts.slo_violations += 1;
            }
            latencies.push(r.latency_sim_ms);
            lats.push(r.latency_sim_ms);
        }
        latencies.sort_by(f64::total_cmp);
        let latency = LatencyStats {
            served: latencies.len() as u64,
            p50_sim_ms: percentile(&latencies, 50.0),
            p99_sim_ms: percentile(&latencies, 99.0),
            mean_sim_ms: if latencies.is_empty() {
                0.0
            } else {
                latencies.iter().sum::<f64>() / latencies.len() as f64
            },
            max_sim_ms: latencies.last().copied().unwrap_or(0.0),
        };
        let tenants: Vec<TenantStats> = tenants
            .into_values()
            .map(|(mut ts, mut lats)| {
                lats.sort_by(f64::total_cmp);
                ts.p99_sim_ms = percentile(&lats, 99.0);
                ts
            })
            .collect();

        FrontReport {
            responses,
            counters,
            latency,
            tenants,
            mutations,
            cache: self.cache.stats(),
            wall_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_sparse::{gen, Csr};
    use hc_core::Plan;
    use std::sync::Arc;

    fn trace_of(mix: &[(u32, &Arc<Csr>)], dim: usize) -> Vec<FrontRequest> {
        mix.iter()
            .enumerate()
            .map(|(i, &(tenant, g))| FrontRequest {
                tenant: TenantId(tenant),
                request: Request {
                    graph: Arc::clone(g),
                    features: DenseMatrix::random_features(g.ncols, dim, i as u64),
                },
            })
            .collect()
    }

    fn small_graphs(n: usize) -> Vec<Arc<Csr>> {
        (0..n)
            .map(|i| Arc::new(gen::erdos_renyi(96, 420, 300 + i as u64)))
            .collect()
    }

    #[test]
    fn cohorts_amortize_one_prepare_across_members() {
        let dev = DeviceSpec::rtx3090();
        let gs = small_graphs(2);
        // A distinct `Arc` with g0's structure and other values: the
        // screen keys on identity, so it is validated on its own, yet it
        // joins g0's cohort, which keys on structure.
        let mut reweighted = (*gs[0]).clone();
        reweighted.vals.iter_mut().for_each(|v| *v *= 0.5);
        let reweighted = Arc::new(reweighted);
        // One epoch: 3 requests on g0, 2 on g1, interleaved, then the
        // reweighted twin of g0.
        let trace = trace_of(
            &[
                (0, &gs[0]),
                (1, &gs[1]),
                (2, &gs[0]),
                (3, &gs[1]),
                (4, &gs[0]),
                (5, &reweighted),
            ],
            8,
        );
        let front = Front::new(
            u64::MAX / 16,
            PlanSpec::hybrid(),
            4,
            FrontConfig {
                workers: 2,
                ..Default::default()
            },
        );
        let rep = front.run_trace(&trace, &dev);
        let c = rep.counters;
        assert_eq!(c.submitted, 6);
        assert_eq!(c.admitted, 6);
        assert_eq!(c.rejected(), 0);
        assert_eq!(c.completed, 6);
        assert_eq!((c.ok, c.degraded, c.failed), (6, 0, 0));
        assert_eq!(c.cohorts, 2, "one cohort per structure");
        assert_eq!(c.cohorted_requests, 6);
        assert!((c.cohort_rate() - 1.0).abs() < 1e-12);
        // One preparation per structure, charged to the first member.
        assert_eq!(rep.cache.misses, 2);
        let charged: Vec<usize> = rep
            .responses
            .iter()
            .filter(|r| r.prepare_sim_ms > 0.0)
            .map(|r| r.trace_index)
            .collect();
        assert_eq!(charged, vec![0, 1]);
        // Members of one cohort share id, size and hit flag; outputs are
        // bit-identical to a cold plan on each request's own graph.
        for (i, r) in rep.responses.iter().enumerate() {
            let g0_cohort = i % 2 == 0 || i == 5;
            assert_eq!(r.cohort_size, if g0_cohort { 4 } else { 2 });
            assert_eq!(
                r.cohort,
                rep.responses[if g0_cohort { 0 } else { 1 }].cohort
            );
            assert!(!r.hit, "cold cache");
            assert!(r.latency_sim_ms > 0.0);
            let req = &trace[i].request;
            let z = r.z().expect("faults off: everything serves");
            let cold = Plan::prepare(&req.graph, PlanSpec::hybrid(), &dev)
                .execute(&req.graph, &req.features, &dev)
                .z;
            assert_eq!(*z, cold, "request {i}");
            assert!(req.graph.spmm_reference(&req.features).max_abs_diff(z) < 0.05);
        }
    }

    #[test]
    fn admission_sheds_with_typed_overload_errors() {
        let dev = DeviceSpec::rtx3090();
        let gs = small_graphs(1);
        // 6 arrivals in one epoch: tenant 7 submits 4 (quota 2), queue
        // holds 3 total.
        let trace = trace_of(
            &[
                (7, &gs[0]),
                (7, &gs[0]),
                (7, &gs[0]),
                (8, &gs[0]),
                (7, &gs[0]),
                (8, &gs[0]),
            ],
            8,
        );
        let front = Front::new(
            u64::MAX / 16,
            PlanSpec::hybrid(),
            2,
            FrontConfig {
                workers: 1,
                queue_depth: 3,
                tenant_quota: 2,
                ..Default::default()
            },
        );
        let rep = front.run_trace(&trace, &dev);
        let kinds: Vec<Option<OverloadReason>> = rep
            .responses
            .iter()
            .map(|r| match &r.outcome {
                Outcome::Failed(HcError::Overloaded { reason }) => Some(*reason),
                _ => None,
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                None,
                None,
                Some(OverloadReason::TenantQuota),
                None,
                Some(OverloadReason::QueueFull),
                Some(OverloadReason::QueueFull),
            ]
        );
        let c = rep.counters;
        assert_eq!(c.submitted, 6);
        assert_eq!(c.admitted, 3);
        assert_eq!((c.rejected_queue, c.rejected_quota), (2, 1));
        assert_eq!(c.admitted + c.rejected(), c.submitted);
        assert_eq!(c.completed, c.admitted);
        // Per-tenant view agrees.
        assert_eq!(rep.tenants.len(), 2);
        let t7 = &rep.tenants[0];
        assert_eq!(
            (t7.tenant, t7.submitted, t7.admitted, t7.rejected),
            (TenantId(7), 4, 2, 2)
        );
        let t8 = &rep.tenants[1];
        assert_eq!(
            (t8.tenant, t8.submitted, t8.admitted, t8.rejected),
            (TenantId(8), 2, 1, 1)
        );
        // Rejections produced typed errors, not panics, and the error
        // formats mention the limit that fired.
        let msg = rep.responses[2]
            .outcome
            .error()
            .expect("rejected")
            .to_string();
        assert!(msg.contains("quota"), "{msg}");
    }

    #[test]
    fn hostile_inputs_fail_without_cache_traffic_or_cohorts() {
        let dev = DeviceSpec::rtx3090();
        let gs = small_graphs(1);
        let mut broken = (*gs[0]).clone();
        broken.col_idx[0] = 10_000;
        let broken = Arc::new(broken);
        // g0's structure with a NaN value, in an `Arc` of its own: a screen
        // keyed on structure would wave it through after g0.
        let mut nan_twin = (*gs[0]).clone();
        nan_twin.vals[0] = f32::NAN;
        let nan_twin = Arc::new(nan_twin);
        // The malformed `Arc` arrives twice: the second request recalls
        // the screen's verdict and must fail the same way.
        let mut trace = trace_of(
            &[
                (0, &gs[0]),
                (1, &broken),
                (0, &gs[0]),
                (3, &broken),
                (2, &nan_twin),
            ],
            8,
        );
        // Shape mismatch on the last entry, on a graph already screened
        // clean: the shape check runs per request.
        trace.push(FrontRequest {
            tenant: TenantId(2),
            request: Request {
                graph: Arc::clone(&gs[0]),
                features: DenseMatrix::random_features(17, 8, 9),
            },
        });
        let front = Front::new(u64::MAX / 16, PlanSpec::hybrid(), 2, FrontConfig::default());
        let rep = front.run_trace(&trace, &dev);
        for i in [1, 3] {
            assert_eq!(
                rep.responses[i].outcome,
                Outcome::Failed(HcError::BadInput(
                    graph_sparse::CsrError::ColumnOutOfRange {
                        entry: 0,
                        col: 10_000
                    }
                )),
                "request {i}"
            );
        }
        assert_eq!(
            rep.responses[4].outcome,
            Outcome::Failed(HcError::BadInput(graph_sparse::CsrError::NonFiniteValue {
                entry: 0
            }))
        );
        assert!(matches!(
            rep.responses[5].outcome,
            Outcome::Failed(HcError::ShapeMismatch { .. })
        ));
        for i in [1, 3, 4, 5] {
            assert_eq!(rep.responses[i].cohort, None);
            assert_eq!(rep.responses[i].cohort_size, 0);
        }
        // Only the two healthy requests touched the cache: one cohort.
        assert_eq!(rep.cache.requests, 1);
        assert_eq!(rep.counters.cohorts, 1);
        assert_eq!(rep.counters.failed, 4);
        assert_eq!(rep.counters.ok, 2);
    }

    #[test]
    fn reports_are_identical_at_1_2_and_8_workers() {
        let dev = DeviceSpec::rtx3090();
        let gs = small_graphs(3);
        let mix: Vec<(u32, &Arc<Csr>)> =
            (0..24u32).map(|i| (i % 4, &gs[(i as usize) % 3])).collect();
        let trace = trace_of(&mix, 8);
        let run = |workers: usize| {
            let front = Front::new(
                1 << 30,
                PlanSpec::hybrid(),
                4,
                FrontConfig {
                    workers,
                    arrivals_per_epoch: 8,
                    max_cohort: 4,
                    ..Default::default()
                },
            );
            front.run_trace(&trace, &dev)
        };
        let base = run(1);
        for workers in [2usize, 8] {
            let rep = run(workers);
            assert_eq!(rep.responses, base.responses, "workers={workers}");
            assert_eq!(rep.counters, base.counters);
            assert_eq!(rep.latency, base.latency);
            assert_eq!(rep.tenants, base.tenants);
            assert_eq!(
                (rep.cache.requests, rep.cache.hits, rep.cache.misses),
                (base.cache.requests, base.cache.hits, base.cache.misses),
            );
        }
        // Sanity on the shape of the shared run: epochs of 8 with cohort
        // cap 4 — per epoch g_i appears ≤3 times, so cohorts form and
        // later epochs hit the warm cache.
        assert_eq!(base.counters.epochs, 3);
        assert!(base.cache.hits > 0);
        assert!(base.latency.p99_sim_ms >= base.latency.p50_sim_ms);
        assert!(base.latency.max_sim_ms >= base.latency.p99_sim_ms);
    }

    #[test]
    fn mutation_serves_stale_then_swaps_the_patched_plan() {
        use graph_sparse::DeltaCsr;
        let dev = DeviceSpec::rtx3090();
        let g0 = Arc::new(gen::erdos_renyi(96, 420, 700));
        let (r, &c) = (0..g0.nrows)
            .find_map(|r| g0.row_cols(r).first().map(|col| (r, col)))
            .expect("graph has edges");
        let delta = DeltaCsr::new(g0.nrows, g0.ncols, vec![], vec![(r as u32, c)]).expect("valid");
        let g1 = Arc::new(delta.apply(&g0).expect("applies"));

        // Epochs of 4: [serve g0 ×4] [serve g0 ×2, mutate, serve g0]
        // [serve g1 ×4]. The mutation epoch serves g0 stale (epoch
        // batching: the whole epoch, not just arrivals after the event);
        // the next epoch hits the swapped patched plan.
        let req = |g: &Arc<Csr>, i: u64| {
            FrontEvent::Serve(FrontRequest {
                tenant: TenantId((i % 3) as u32),
                request: Request {
                    graph: Arc::clone(g),
                    features: DenseMatrix::random_features(g.ncols, 8, i),
                },
            })
        };
        let mut events: Vec<FrontEvent> = (0..6).map(|i| req(&g0, i)).collect();
        events.push(FrontEvent::Mutate(Mutation {
            base: Arc::clone(&g0),
            delta,
        }));
        events.push(req(&g0, 6));
        events.extend((7..11).map(|i| req(&g1, i)));

        let front = Front::new(
            u64::MAX / 16,
            PlanSpec::hybrid(),
            4,
            FrontConfig {
                workers: 2,
                arrivals_per_epoch: 4,
                ..Default::default()
            },
        );
        let rep = front.run_events(&events, &dev);

        let c = rep.counters;
        assert_eq!(c.submitted, 11, "mutations are not submissions");
        assert_eq!(c.admitted, 11);
        assert_eq!(c.completed, 11);
        assert_eq!((c.mutations, c.patched_plans), (1, 1));
        // Epoch 0 fresh, epoch 1 (3 requests, all stale), epoch 2 on g1.
        assert_eq!(c.stale_served, 3);
        let stale_idx: Vec<usize> = rep
            .responses
            .iter()
            .filter(|r| r.stale)
            .map(|r| r.trace_index)
            .collect();
        assert_eq!(stale_idx, vec![4, 5, 7]);

        // The mutation outcome records the incremental re-plan.
        assert_eq!(rep.mutations.len(), 1);
        let m = &rep.mutations[0];
        assert_eq!((m.trace_index, m.epoch), (6, 1));
        assert!(m.patched);
        assert_eq!(m.swap, Some(SwapOutcome::Swapped));
        // The base is the very `Arc` the earlier requests carried: its
        // screened fingerprint is reused, and it is the base's own.
        assert_eq!(m.old_fp, Ok(StructureFingerprint::of(&g0)));
        assert_eq!(m.new_fp, Some(StructureFingerprint::of(&g1)));
        assert!(m.patch_sim_ms > 0.0);

        // Epoch 2: g1 requests hit the swapped plan (no fresh prepare)
        // and are bit-identical to an untouched front serving g1 cold.
        let g1_responses: Vec<&FrontResponse> = rep
            .responses
            .iter()
            .filter(|r| r.trace_index >= 8)
            .collect();
        assert!(g1_responses.iter().all(|r| r.hit && !r.stale));
        assert_eq!(rep.cache.swaps, 1);
        let control = Front::new(u64::MAX / 16, PlanSpec::hybrid(), 4, FrontConfig::default());
        let control_trace: Vec<FrontRequest> = (7..11)
            .map(|i| match req(&g1, i) {
                FrontEvent::Serve(fr) => fr,
                FrontEvent::Mutate(_) => unreachable!(),
            })
            .collect();
        let control_rep = control.run_trace(&control_trace, &dev);
        for (got, want) in g1_responses.iter().zip(&control_rep.responses) {
            assert_eq!(got.z(), want.z(), "patched plan must serve bit-identically");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 99.0), 0.0);
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 99.0), 4.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
    }
}
