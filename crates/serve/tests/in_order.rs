//! The in-order front ([`Front::in_order`]): one shard, one-arrival
//! epochs, one-member cohorts. It is the serving path for every caller
//! that wants requests handled strictly in sequence, so it must equal a
//! sequential loop written against the cache directly: screen the
//! request, `PlanCache::get_or_prepare`, execute under the request's own
//! fault stream, and quarantine the plan when the run is poisoned.
//!
//! The differential below compares the two bit for bit — outcomes, hit
//! flags, simulated exec/prepare/wasted times, cache counters, quarantine
//! and residency — over every kernel family, three cache budgets and five
//! fault schedules, on a trace that also carries a malformed graph and
//! bad feature shapes. The remaining tests pin the in-order hit pattern,
//! bit-identity across eviction, and degradation with quarantine.

use std::sync::Arc;

use gpu_sim::{DeviceSpec, FaultConfig};
use graph_sparse::{gen, Csr, DenseMatrix, StructureFingerprint};
use hc_core::{
    execute_resilient_keyed, FallbackStep, HcError, KernelFamily, Plan, PlanSpec, ResiliencePolicy,
};
use hc_serve::{Front, FrontRequest, Outcome, PlanCache, Request, TenantId};

fn trace_of(reqs: &[Request]) -> Vec<FrontRequest> {
    reqs.iter()
        .map(|request| FrontRequest {
            tenant: TenantId(0),
            request: request.clone(),
        })
        .collect()
}

/// What the sequential reference observed for one request.
struct Served {
    outcome: Outcome,
    hit: bool,
    exec_sim_ms: f64,
    prepare_sim_ms: f64,
    wasted_sim_ms: f64,
}

/// The sequential reference: one `PlanCache`, requests in order, each
/// under `policy`'s fault schedule re-seeded by its index.
fn sequential(
    reqs: &[Request],
    budget: u64,
    spec: PlanSpec,
    policy: ResiliencePolicy,
    dev: &DeviceSpec,
) -> (Vec<Served>, PlanCache) {
    let mut cache = PlanCache::new(budget, spec);
    let failed = |e: HcError| Served {
        outcome: Outcome::Failed(e),
        hit: false,
        exec_sim_ms: 0.0,
        prepare_sim_ms: 0.0,
        wasted_sim_ms: 0.0,
    };
    let served = reqs
        .iter()
        .enumerate()
        .map(|(i, req)| {
            if let Err(e) = req.graph.validate() {
                return failed(HcError::BadInput(e));
            }
            if req.features.rows != req.graph.ncols {
                return failed(HcError::ShapeMismatch {
                    expected_rows: req.graph.ncols,
                    got_rows: req.features.rows,
                });
            }
            let (plan, hit) = cache.get_or_prepare(&req.graph, dev);
            let mut p = policy;
            p.faults = policy.faults.stream(i as u64);
            let fp = StructureFingerprint::of(&req.graph);
            let run = execute_resilient_keyed(&plan, &req.graph, fp, &req.features, dev, &p);
            if run.poisoned {
                cache.quarantine(plan.fingerprint);
            }
            let degraded = run.degraded(spec.family);
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
            Served {
                outcome,
                hit,
                exec_sim_ms,
                prepare_sim_ms: if hit { 0.0 } else { plan.sim_prepare_ms() },
                wasted_sim_ms: run.wasted_sim_ms,
            }
        })
        .collect();
    (served, cache)
}

/// 26 requests over three graphs and one malformed graph, in an uneven
/// order; every fifth request carries one feature row too few.
fn differential_trace() -> (Vec<Arc<Csr>>, Vec<Request>) {
    let graphs: Vec<Arc<Csr>> = vec![
        Arc::new(gen::erdos_renyi(96, 450, 1)),
        Arc::new(gen::community(128, 700, 8, 0.9, 2)),
        Arc::new(gen::molecules(80, 200, 3)),
    ];
    let mut broken = (*graphs[0]).clone();
    broken.col_idx[0] = 10_000;
    let broken = Arc::new(broken);
    let order = [
        0, 1, 0, 2, 2, 1, 3, 0, 1, 2, 0, 0, 3, 1, 2, 1, 0, 2, 2, 1, 0, 3, 1, 0, 2, 1,
    ];
    let reqs = order
        .iter()
        .enumerate()
        .map(|(i, &g)| {
            let graph = Arc::clone(if g == 3 { &broken } else { &graphs[g] });
            let rows = if i % 5 == 4 {
                graph.ncols - 1
            } else {
                graph.ncols
            };
            Request {
                features: DenseMatrix::random_features(rows, 8, 500 + i as u64),
                graph,
            }
        })
        .collect();
    (graphs, reqs)
}

#[test]
fn in_order_front_equals_the_sequential_reference() {
    let dev = DeviceSpec::rtx3090();
    let (graphs, reqs) = differential_trace();
    let trace = trace_of(&reqs);
    let schedules = [
        FaultConfig::off(),
        FaultConfig::uniform(11, 0.1),
        FaultConfig::uniform(12, 0.3),
        FaultConfig::uniform(13, 0.6),
        FaultConfig::uniform(14, 1.0),
    ];
    // What the cases exercised, summed: the differential only bites if
    // hits, evictions, degraded outcomes and quarantines all occur.
    let (mut hits, mut evictions, mut degraded, mut quarantined) = (0, 0, 0, 0);
    for family in KernelFamily::ALL {
        let spec = PlanSpec {
            family,
            use_loa: false,
        };
        let largest = graphs
            .iter()
            .map(|g| Plan::prepare(g, spec, &dev).approx_bytes())
            .max()
            .expect("three graphs");
        for budget in [u64::MAX, largest + largest / 3, 0] {
            for faults in schedules {
                let case = format!("{} budget {budget} faults {faults:?}", family.name());
                let policy = ResiliencePolicy {
                    faults,
                    ..Default::default()
                };
                let (want, cache) = sequential(&reqs, budget, spec, policy, &dev);
                let front = Front::in_order(budget, spec, policy);
                let rep = front.run_trace(&trace, &dev);
                assert_eq!(rep.responses.len(), want.len(), "{case}");
                for (i, (got, want)) in rep.responses.iter().zip(&want).enumerate() {
                    assert_eq!(got.outcome, want.outcome, "{case}: request {i}");
                    assert_eq!(got.hit, want.hit, "{case}: request {i}");
                    assert_eq!(
                        got.exec_sim_ms.to_bits(),
                        want.exec_sim_ms.to_bits(),
                        "{case}: request {i}"
                    );
                    assert_eq!(
                        got.prepare_sim_ms.to_bits(),
                        want.prepare_sim_ms.to_bits(),
                        "{case}: request {i}"
                    );
                    assert_eq!(
                        got.wasted_sim_ms.to_bits(),
                        want.wasted_sim_ms.to_bits(),
                        "{case}: request {i}"
                    );
                }
                assert_eq!(rep.cache, cache.stats(), "{case}");
                hits += rep.cache.hits;
                evictions += rep.cache.evictions;
                quarantined += rep.cache.quarantined;
                degraded += rep.counters.degraded;
                for g in &graphs {
                    let fp = StructureFingerprint::of(g);
                    assert_eq!(
                        front.cache().is_quarantined(fp),
                        cache.is_quarantined(fp),
                        "{case}"
                    );
                    assert_eq!(
                        front.cache().peek(fp).is_some(),
                        cache.contains(fp),
                        "{case}"
                    );
                }
            }
        }
    }
    assert!(
        hits > 0 && evictions > 0 && degraded > 0 && quarantined > 0,
        "hits {hits}, evictions {evictions}, degraded {degraded}, quarantined {quarantined}"
    );
}

#[test]
fn in_order_hit_pattern() {
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
    let front = Front::in_order(u64::MAX, PlanSpec::hybrid(), ResiliencePolicy::default());
    let rep = front.run_trace(&trace_of(&reqs), &dev);
    let hits: Vec<bool> = rep.responses.iter().map(|r| r.hit).collect();
    assert_eq!(hits, [false, false, true, true, true]);
    for (req, resp) in reqs.iter().zip(&rep.responses) {
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
        assert_eq!(resp.cohort_size, 1);
    }
    let s = rep.cache;
    assert_eq!((s.requests, s.hits, s.misses), (5, 3, 2));
    let c = rep.counters;
    assert_eq!((c.ok, c.degraded, c.failed), (5, 0, 0));
    assert_eq!((c.epochs, c.cohorts, c.cohorted_requests), (5, 5, 0));
}

#[test]
fn workspace_reuse_is_bit_identical_across_eviction() {
    // The same request stream served (a) through a warm cached plan
    // (workspace amortizing every request) and (b) through a zero-budget
    // cache (every request re-prepares a cold plan, so nothing is ever
    // reused) must produce identical responses.
    let dev = DeviceSpec::rtx3090();
    let g = Arc::new(gen::community(256, 1_500, 8, 0.9, 1));
    let reqs: Vec<Request> = (0..6)
        .map(|i| Request {
            graph: Arc::clone(&g),
            features: DenseMatrix::random_features(256, 16, 50 + i),
        })
        .collect();
    let trace = trace_of(&reqs);
    let policy = ResiliencePolicy::default();
    let warm = Front::in_order(u64::MAX, PlanSpec::hybrid(), policy);
    let cold = Front::in_order(0, PlanSpec::hybrid(), policy);
    let rw = warm.run_trace(&trace, &dev).responses;
    let rc = cold.run_trace(&trace, &dev).responses;
    for (i, (w, c)) in rw.iter().zip(&rc).enumerate() {
        assert_eq!(
            w.z().expect("serves"),
            c.z().expect("serves"),
            "request {i}: warm plan != per-request cold plan"
        );
        assert_eq!(w.exec_sim_ms.to_bits(), c.exec_sim_ms.to_bits());
    }
    // The warm front really did amortize: one resident plan, reused
    // scratchwork after the first request.
    let plan = warm
        .cache()
        .peek(StructureFingerprint::of(&g))
        .expect("the warm plan stays resident");
    let ws = plan.workspace_stats();
    assert_eq!(ws.cost_builds, 1);
    assert_eq!(ws.cost_reuses, 5);
    assert_eq!(warm.cache().len(), 1);
    // The cold front retained nothing, so no plan carries counters.
    assert!(cold.cache().is_empty());

    // And a cache that evicts between repeats still serves the exact
    // same bytes after re-preparing the plan. Budget for the larger of
    // the two plans so either fits alone but never both (scattered
    // graphs carry bulkier tile metadata than community graphs).
    let other = Arc::new(gen::erdos_renyi(256, 700, 9));
    let bytes = Plan::prepare(&g, PlanSpec::hybrid(), &dev)
        .approx_bytes()
        .max(Plan::prepare(&other, PlanSpec::hybrid(), &dev).approx_bytes());
    let evicting = Front::in_order(bytes, PlanSpec::hybrid(), policy);
    // Inserting the second structure evicts the first (budget of one).
    let between = Request {
        graph: Arc::clone(&other),
        features: DenseMatrix::random_features(256, 16, 99),
    };
    let rep = evicting.run_trace(
        &trace_of(&[reqs[0].clone(), between, reqs[0].clone()]),
        &dev,
    );
    let (before, after) = (&rep.responses[0], &rep.responses[2]);
    assert!(!after.hit, "the plan must have been evicted");
    assert_eq!(before.z().unwrap(), after.z().unwrap());
    assert!(rep.cache.evictions >= 1);
}

#[test]
fn structural_faults_degrade_and_quarantine() {
    let dev = DeviceSpec::rtx3090();
    let g = Arc::new(gen::erdos_renyi(128, 600, 7));
    let fp = StructureFingerprint::of(&g);
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
    let front = Front::in_order(u64::MAX, PlanSpec::hybrid(), policy);
    let rep = front.run_trace(&trace_of(&reqs), &dev);
    for (req, resp) in reqs.iter().zip(&rep.responses) {
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
    // The structure was quarantined on the first poisoned run and never
    // re-cached: one plain miss, then quarantine misses.
    assert!(front.cache().is_quarantined(fp));
    let s = rep.cache;
    assert_eq!(s.hits, 0);
    assert_eq!(s.quarantine_misses, 3);
    assert!(s.quarantined >= 1);
    let c = rep.counters;
    assert_eq!((c.ok, c.degraded, c.failed), (0, 4, 0));
    assert_eq!(c.quarantined_cohorts, 4);
    let fallbacks = rep
        .responses
        .iter()
        .filter(|r| {
            matches!(&r.outcome, Outcome::Degraded { fallback, .. }
                if *fallback != FallbackStep::Family(KernelFamily::Hybrid))
        })
        .count();
    assert_eq!(fallbacks, 4);
}
