//! Batched request driver: a stream of (graph, features) requests served
//! through cached plans with graceful degradation.
//!
//! Requests are processed strictly in order; the parallelism lives
//! *inside* each SpMM (the `hc-parallel` pool), not across requests. That
//! choice is what makes a batch run deterministic: the cache sees the same
//! lookup sequence — hence the same hits, evictions and counters — and
//! every kernel is bit-identical at any worker count, so the full response
//! stream is too.
//!
//! Every request is executed through [`hc_core::execute_resilient`], so a
//! device fault or hostile input degrades *that request* — retry, fallback
//! or a typed [`HcError`] — instead of unwinding the driver. Plans
//! implicated in a fault are quarantined in the [`PlanCache`] and never
//! re-served. Fault schedules are re-seeded per request index (see
//! [`gpu_sim::FaultConfig::stream`]), so one request's launch count cannot
//! shift another's fault draws and outcomes stay independent of batch
//! composition upstream of the failing request.

use std::sync::Arc;
use std::time::Instant;

use gpu_sim::DeviceSpec;
use graph_sparse::{Csr, DenseMatrix, StructureFingerprint};
use hc_core::{
    execute_resilient_keyed, FallbackStep, HcError, KernelFamily, Plan, PlanSpec, ResiliencePolicy,
};

use crate::cache::{CacheStats, PlanCache};

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

/// One serving response.
#[derive(Debug, Clone)]
pub struct Response {
    /// How the request ended (and its result, when served).
    pub outcome: Outcome,
    /// Whether the plan came from the cache.
    pub hit: bool,
    /// Simulated device milliseconds of the surviving SpMM execution
    /// (0 when the request failed or the CPU reference answered).
    pub exec_sim_ms: f64,
    /// Simulated milliseconds of plan preparation charged to this request
    /// (0 on a hit — that is the amortization).
    pub prepare_sim_ms: f64,
    /// Simulated milliseconds of discarded (faulted or invalid) attempts —
    /// the recovery overhead this request paid.
    pub wasted_sim_ms: f64,
    /// Host wall-clock milliseconds spent serving the request.
    pub wall_ms: f64,
}

impl Response {
    /// The result matrix, when the request was served.
    pub fn z(&self) -> Option<&DenseMatrix> {
        self.outcome.z()
    }
}

/// Aggregate degradation accounting over a batch of [`Response`]s.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BatchSummary {
    /// Responses summarized.
    pub requests: u64,
    /// Clean primary-family successes.
    pub ok: u64,
    /// Served after retry and/or fallback.
    pub degraded: u64,
    /// Typed failures.
    pub failed: u64,
    /// Total retries across all requests.
    pub retries: u64,
    /// Requests whose surviving result came from a non-primary step.
    pub fallbacks: u64,
    /// Total simulated milliseconds of discarded attempts.
    pub wasted_sim_ms: f64,
}

impl BatchSummary {
    /// Summarize `responses` served by a driver whose primary family is
    /// `primary` (i.e. its cache spec's family).
    pub fn of(responses: &[Response], primary: hc_core::KernelFamily) -> BatchSummary {
        let mut s = BatchSummary::default();
        for r in responses {
            s.requests += 1;
            s.wasted_sim_ms += r.wasted_sim_ms;
            match &r.outcome {
                Outcome::Ok(_) => s.ok += 1,
                Outcome::Degraded {
                    fallback, retries, ..
                } => {
                    s.degraded += 1;
                    s.retries += u64::from(*retries);
                    if *fallback != FallbackStep::Family(primary) {
                        s.fallbacks += 1;
                    }
                }
                Outcome::Failed(_) => s.failed += 1,
            }
        }
        s
    }

    /// Fraction of requests that were degraded (0 when none served).
    pub fn degraded_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.degraded as f64 / self.requests as f64
        }
    }
}

/// Screen a request before it can reach plan preparation (which indexes
/// the graph's arrays and would panic on a malformed one).
fn screen_request(req: &Request) -> Result<(), HcError> {
    req.graph.validate()?;
    check_shape(req)
}

/// The per-request half of the screen: the feature matrix must have one
/// row per graph column. The concurrent front-end validates each shared
/// graph once per call and runs this check for every request.
pub(crate) fn check_shape(req: &Request) -> Result<(), HcError> {
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
pub(crate) struct Executed {
    pub outcome: Outcome,
    /// Simulated ms of the surviving execution (0 on failure / CPU ref).
    pub exec_sim_ms: f64,
    /// Simulated ms of discarded (faulted or invalid) attempts.
    pub wasted_sim_ms: f64,
    /// Whether the plan was implicated in a fault and must be
    /// quarantined by the caller.
    pub poisoned: bool,
}

/// The post-lookup half of serving: run one request through an
/// already-resolved plan under `policy` (whose fault schedule the caller
/// has re-seeded) and classify the result against `primary`. `graph_fp`
/// is `graph`'s fingerprint, already computed by the caller's screen.
/// Pure with respect to the caller's caches — quarantine is the caller's
/// job, via [`Executed::poisoned`].
pub(crate) fn execute_planned(
    plan: &Plan,
    graph: &Csr,
    graph_fp: StructureFingerprint,
    features: &DenseMatrix,
    dev: &DeviceSpec,
    policy: &ResiliencePolicy,
    primary: KernelFamily,
) -> Executed {
    let run = execute_resilient_keyed(plan, graph, graph_fp, features, dev, policy);
    let poisoned = run.poisoned;
    let wasted_sim_ms = run.wasted_sim_ms;
    let (outcome, exec_sim_ms) = match run.result {
        Ok(r) => {
            let exec = r.run.time_ms;
            if run.retries > 0 || run.executed != FallbackStep::Family(primary) {
                (
                    Outcome::Degraded {
                        z: r.z,
                        fallback: run.executed,
                        retries: run.retries,
                    },
                    exec,
                )
            } else {
                (Outcome::Ok(r.z), exec)
            }
        }
        Err(e) => (Outcome::Failed(e), 0.0),
    };
    Executed {
        outcome,
        exec_sim_ms,
        wasted_sim_ms,
        poisoned,
    }
}

/// Serves request streams through a [`PlanCache`] with per-request
/// graceful degradation.
pub struct BatchDriver {
    /// The plan cache; exposed so callers can inspect counters or pre-warm.
    pub cache: PlanCache,
    /// Retry/fallback/validation policy applied to every request. The
    /// policy's fault schedule is re-seeded per request index.
    pub policy: ResiliencePolicy,
    served: u64,
}

impl BatchDriver {
    /// Driver over a fresh cache with the given byte budget and plan spec,
    /// using the default (production) resilience policy: faults off,
    /// validation on, full fallback chain.
    pub fn new(cache_bytes: u64, spec: PlanSpec) -> BatchDriver {
        BatchDriver::with_policy(cache_bytes, spec, ResiliencePolicy::default())
    }

    /// Driver with an explicit resilience policy (chaos tests and the
    /// fault-recovery benchmark inject faults this way).
    pub fn with_policy(cache_bytes: u64, spec: PlanSpec, policy: ResiliencePolicy) -> BatchDriver {
        BatchDriver {
            cache: PlanCache::new(cache_bytes, spec),
            policy,
            served: 0,
        }
    }

    /// Serve one request. Never panics: hostile inputs and device faults
    /// come back as [`Outcome::Failed`] / [`Outcome::Degraded`].
    pub fn serve(&mut self, req: &Request, dev: &DeviceSpec) -> Response {
        let t0 = Instant::now();
        let index = self.served;
        self.served += 1;

        // Reject hostile inputs before they reach plan preparation.
        if let Err(e) = screen_request(req) {
            return Response {
                outcome: Outcome::Failed(e),
                hit: false,
                exec_sim_ms: 0.0,
                prepare_sim_ms: 0.0,
                wasted_sim_ms: 0.0,
                wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            };
        }

        let (plan, hit) = self.cache.get_or_prepare(&req.graph, dev);
        let mut policy = self.policy;
        policy.faults = self.policy.faults.stream(index);
        let ex = execute_planned(
            &plan,
            &req.graph,
            StructureFingerprint::of(&req.graph),
            &req.features,
            dev,
            &policy,
            self.cache.spec().family,
        );
        if ex.poisoned {
            self.cache.quarantine(plan.fingerprint);
        }
        Response {
            outcome: ex.outcome,
            hit,
            exec_sim_ms: ex.exec_sim_ms,
            prepare_sim_ms: if hit { 0.0 } else { plan.sim_prepare_ms() },
            wasted_sim_ms: ex.wasted_sim_ms,
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        }
    }

    /// Serve a batch in order. Outcomes, hit flags and cache counters are
    /// independent of the worker-thread count; only `wall_ms` varies.
    pub fn run(&mut self, requests: &[Request], dev: &DeviceSpec) -> Vec<Response> {
        requests.iter().map(|r| self.serve(r, dev)).collect()
    }

    /// The cache's traffic counters.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Requests served so far (also the next request's fault-stream index).
    pub fn served(&self) -> u64 {
        self.served
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::FaultConfig;
    use graph_sparse::gen;
    use hc_core::KernelFamily;

    #[test]
    fn batch_serves_in_order_with_expected_hits() {
        let dev = DeviceSpec::rtx3090();
        let gs: Vec<Arc<Csr>> = (0..2)
            .map(|s| Arc::new(gen::erdos_renyi(128, 600, s)))
            .collect();
        // a, b, a, a, b: first sight of each graph misses, the rest hit.
        let reqs: Vec<Request> = [0, 1, 0, 0, 1]
            .iter()
            .enumerate()
            .map(|(i, &g)| Request {
                graph: Arc::clone(&gs[g]),
                features: DenseMatrix::random_features(128, 8, i as u64),
            })
            .collect();
        let mut driver = BatchDriver::new(u64::MAX, PlanSpec::hybrid());
        let responses = driver.run(&reqs, &dev);
        let hits: Vec<bool> = responses.iter().map(|r| r.hit).collect();
        assert_eq!(hits, [false, false, true, true, true]);
        for (req, resp) in reqs.iter().zip(&responses) {
            let z = resp.z().expect("faults are off: every request serves");
            assert!(matches!(resp.outcome, Outcome::Ok(_)));
            assert!(req.graph.spmm_reference(&req.features).max_abs_diff(z) < 0.05);
            if resp.hit {
                assert_eq!(resp.prepare_sim_ms, 0.0);
            } else {
                assert!(resp.prepare_sim_ms > 0.0);
            }
            assert!(resp.exec_sim_ms > 0.0);
            assert_eq!(resp.wasted_sim_ms, 0.0);
        }
        let s = driver.stats();
        assert_eq!((s.requests, s.hits, s.misses), (5, 3, 2));
        let sum = BatchSummary::of(&responses, KernelFamily::Hybrid);
        assert_eq!((sum.ok, sum.degraded, sum.failed), (5, 0, 0));
        assert_eq!(sum.degraded_rate(), 0.0);
    }

    #[test]
    fn workspace_reuse_is_bit_identical_across_eviction() {
        // The same request stream served (a) through a warm cached plan
        // (workspace amortizing every request) and (b) through a
        // zero-budget cache (every request re-prepares a cold plan, so
        // nothing is ever reused) must produce identical responses.
        let dev = DeviceSpec::rtx3090();
        let g = Arc::new(gen::community(256, 1_500, 8, 0.9, 1));
        let reqs: Vec<Request> = (0..6)
            .map(|i| Request {
                graph: Arc::clone(&g),
                features: DenseMatrix::random_features(256, 16, 50 + i),
            })
            .collect();
        let mut warm = BatchDriver::new(u64::MAX, PlanSpec::hybrid());
        let mut cold = BatchDriver::new(0, PlanSpec::hybrid());
        let rw = warm.run(&reqs, &dev);
        let rc = cold.run(&reqs, &dev);
        for (i, (w, c)) in rw.iter().zip(&rc).enumerate() {
            assert_eq!(
                w.z().expect("serves"),
                c.z().expect("serves"),
                "request {i}: warm plan != per-request cold plan"
            );
            assert_eq!(w.exec_sim_ms.to_bits(), c.exec_sim_ms.to_bits());
        }
        // The warm driver really did amortize: one resident plan, reused
        // scratchwork after the first request.
        let ws = warm.cache.workspace_stats();
        assert_eq!(ws.cost_builds, 1);
        assert_eq!(ws.cost_reuses, 5);
        // The cold driver retained nothing, so it reports no counters.
        assert_eq!(cold.cache.workspace_stats(), Default::default());

        // And a cache that evicts between repeats still serves the exact
        // same bytes after re-preparing the plan. Budget for the larger of
        // the two plans so either fits alone but never both (scattered
        // graphs carry bulkier tile metadata than community graphs).
        let other = Arc::new(gen::erdos_renyi(256, 700, 9));
        let bytes = hc_core::Plan::prepare(&g, PlanSpec::hybrid(), &dev)
            .approx_bytes()
            .max(hc_core::Plan::prepare(&other, PlanSpec::hybrid(), &dev).approx_bytes());
        let mut evicting = BatchDriver::new(bytes, PlanSpec::hybrid());
        let before = evicting.serve(&reqs[0], &dev);
        // Inserting a second structure evicts the first (budget of one).
        evicting.serve(
            &Request {
                graph: Arc::clone(&other),
                features: DenseMatrix::random_features(256, 16, 99),
            },
            &dev,
        );
        let after = evicting.serve(&reqs[0], &dev);
        assert!(!after.hit, "the plan must have been evicted");
        assert_eq!(before.z().unwrap(), after.z().unwrap());
        assert!(evicting.stats().evictions >= 1);
    }

    #[test]
    fn malformed_graph_and_bad_shape_fail_without_cache_traffic() {
        let dev = DeviceSpec::rtx3090();
        let good = Arc::new(gen::erdos_renyi(64, 300, 1));
        let mut broken = (*good).clone();
        broken.col_idx[0] = 10_000; // out of range
        let mut driver = BatchDriver::new(u64::MAX, PlanSpec::hybrid());

        let r = driver.serve(
            &Request {
                graph: Arc::new(broken),
                features: DenseMatrix::random_features(64, 8, 2),
            },
            &dev,
        );
        assert!(matches!(r.outcome, Outcome::Failed(HcError::BadInput(_))));

        let r = driver.serve(
            &Request {
                graph: Arc::clone(&good),
                features: DenseMatrix::random_features(63, 8, 3),
            },
            &dev,
        );
        assert!(matches!(
            r.outcome,
            Outcome::Failed(HcError::ShapeMismatch { .. })
        ));

        // Neither hostile request touched the cache.
        assert_eq!(driver.stats().requests, 0);

        // The driver still serves good traffic afterwards.
        let r = driver.serve(
            &Request {
                graph: Arc::clone(&good),
                features: DenseMatrix::random_features(64, 8, 4),
            },
            &dev,
        );
        assert!(matches!(r.outcome, Outcome::Ok(_)));
    }

    #[test]
    fn structural_faults_degrade_and_quarantine() {
        let dev = DeviceSpec::rtx3090();
        let g = Arc::new(gen::erdos_renyi(128, 600, 7));
        let fp = graph_sparse::StructureFingerprint::of(&g);
        let reqs: Vec<Request> = (0..4)
            .map(|i| Request {
                graph: Arc::clone(&g),
                features: DenseMatrix::random_features(128, 8, i),
            })
            .collect();
        let policy = ResiliencePolicy {
            faults: FaultConfig {
                seed: 5,
                bit_flip: 0.0,
                shared_alloc_fail: 1.0,
                timeout: 0.0,
                launch_fail: 0.0,
            },
            ..Default::default()
        };
        let mut driver = BatchDriver::with_policy(u64::MAX, PlanSpec::hybrid(), policy);
        let responses = driver.run(&reqs, &dev);
        for (req, resp) in reqs.iter().zip(&responses) {
            // Every device launch faults, so every request degrades to the
            // CPU reference — and still serves, bit-exactly.
            match &resp.outcome {
                Outcome::Degraded { z, fallback, .. } => {
                    assert_eq!(*fallback, FallbackStep::CpuReference);
                    assert_eq!(*z, req.graph.spmm_reference(&req.features));
                }
                o => panic!("expected degraded, got {o:?}"),
            }
            assert!(resp.wasted_sim_ms > 0.0);
        }
        // The structure was quarantined on the first poisoned run and
        // never re-cached: one plain miss, then quarantine misses.
        assert!(driver.cache.is_quarantined(fp));
        let s = driver.stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.quarantine_misses, 3);
        assert!(s.quarantined >= 1);
        let sum = BatchSummary::of(&responses, KernelFamily::Hybrid);
        assert_eq!(sum.degraded, 4);
        assert_eq!(sum.fallbacks, 4);
        assert!((sum.degraded_rate() - 1.0).abs() < 1e-12);
    }
}
