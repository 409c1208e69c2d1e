//! Chaos suite: randomized fault schedules against the serving front.
//!
//! Every property draws the front's shape as well as its faults: the
//! in-order front ([`Front::in_order`]: one shard, one-arrival epochs) or
//! a cohorted one (several arrivals per epoch, cohorts of up to two
//! members, two workers, two shards). The serving contract under test:
//!
//! * with faults **disabled**, the resilient path is bit-identical to the
//!   plain one (resilience is free when nothing fails);
//! * with faults **enabled**, every request either returns a result
//!   bit-identical to a fault-free execution of the step that produced it
//!   (`Ok`/`Degraded`) or a typed error (`Failed`) — the process never
//!   panics;
//! * once a structure is quarantined, no request for it ever hits the
//!   cache again: a structure quarantined before epoch e never hits in
//!   epoch e or later.

use std::collections::HashSet;
use std::sync::Arc;

use gpu_sim::{DeviceSpec, FaultConfig};
use graph_sparse::{gen, Csr, DenseMatrix, StructureFingerprint};
use hc_core::{FallbackStep, KernelFamily, PlanSpec, ResiliencePolicy};
use hc_serve::{Front, FrontConfig, FrontRequest, Outcome, Request, TenantId};
use proptest::prelude::*;

fn graphs() -> Vec<Arc<Csr>> {
    vec![
        Arc::new(gen::erdos_renyi(96, 450, 1)),
        Arc::new(gen::community(128, 700, 8, 0.9, 2)),
        Arc::new(gen::molecules(80, 200, 3)),
    ]
}

fn requests(n: usize) -> Vec<FrontRequest> {
    let gs = graphs();
    (0..n)
        .map(|i| {
            let g = Arc::clone(&gs[i % gs.len()]);
            FrontRequest {
                tenant: TenantId((i % 3) as u32),
                request: Request {
                    features: DenseMatrix::random_features(g.ncols, 8, 100 + i as u64),
                    graph: g,
                },
            }
        })
        .collect()
}

/// The front in shape 0 (in order) or 1 (cohorted: epochs of seven
/// arrivals, so a structure arriving three times in one epoch splits
/// into a cohort of two and one of one).
fn front(shape: usize, budget: u64, spec: PlanSpec, policy: ResiliencePolicy) -> Front {
    if shape == 0 {
        return Front::in_order(budget, spec, policy);
    }
    let cfg = FrontConfig {
        workers: 2,
        arrivals_per_epoch: 7,
        max_cohort: 2,
        policy,
        ..FrontConfig::default()
    };
    Front::new(budget, spec, 2, cfg)
}

fn quarantined(front: &Front) -> HashSet<StructureFingerprint> {
    graphs()
        .iter()
        .map(|g| StructureFingerprint::of(g))
        .filter(|&fp| front.cache().is_quarantined(fp))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The headline invariant: under any fault schedule, every served
    /// result is bit-identical to a fault-free run of the step that
    /// produced it, failures are typed, and quarantine is permanent.
    #[test]
    fn every_outcome_is_exact_or_typed_under_faults(
        seed in 0u64..1_000_000,
        rate in 0.05f64..0.6,
        family_ix in 0usize..4,
        retries in 0u32..3,
        budget_ix in 0usize..2,
        shape in 0usize..2,
    ) {
        let dev = DeviceSpec::rtx3090();
        let family = KernelFamily::ALL[family_ix];
        let spec = PlanSpec { family, use_loa: false };
        let budget = [60_000, u64::MAX][budget_ix];
        let policy = ResiliencePolicy {
            max_retries: retries,
            faults: FaultConfig::uniform(seed, rate),
            ..Default::default()
        };
        let trace = requests(9);
        let reqs: Vec<&Request> = trace.iter().map(|fr| &fr.request).collect();

        let served = front(shape, budget, spec, policy);
        let rep = served.run_trace(&trace, &dev);
        let (responses, poisoned_cohorts) = (rep.responses, rep.counters.quarantined_cohorts);
        let largest_cohort = responses.iter().map(|r| r.cohort_size).max();
        prop_assert_eq!(largest_cohort, Some(if shape == 0 { 1 } else { 2 }));
        // What was quarantined before each epoch, and so before any later
        // one: the front is deterministic, so the state before epoch e is
        // that of a fresh front after the trace's first e epochs.
        let epoch_len = served.config().arrivals_per_epoch;
        let mut quarantined_before_epoch: Vec<HashSet<StructureFingerprint>> = Vec::new();
        for e in 0..trace.len().div_ceil(epoch_len) {
            let prefix = front(shape, budget, spec, policy);
            prefix.run_trace(&trace[..e * epoch_len], &dev);
            let mut q = quarantined(&prefix);
            if let Some(earlier) = quarantined_before_epoch.last() {
                q.extend(earlier);
            }
            quarantined_before_epoch.push(q);
        }

        // Fault-free references per (structure, step) — plans prepared
        // outside any fault scope.
        let mut clean = std::collections::HashMap::new();
        for req in &reqs {
            let fp = StructureFingerprint::of(&req.graph);
            clean.entry(fp).or_insert_with(|| {
                hc_core::Plan::prepare(&req.graph, spec, &dev)
            });
        }

        let mut seen_quarantine = HashSet::new();
        for (i, (req, resp)) in reqs.iter().zip(&responses).enumerate() {
            let fp = StructureFingerprint::of(&req.graph);
            let plan = &clean[&fp];
            match &resp.outcome {
                Outcome::Ok(z) => {
                    prop_assert_eq!(
                        z, &plan.execute_as(family, &req.graph, &req.features, &dev).z,
                        "request {}: Ok result must be bit-clean", i
                    );
                }
                Outcome::Degraded { z, fallback, .. } => {
                    let want = match fallback {
                        FallbackStep::Family(f) =>
                            plan.execute_as(*f, &req.graph, &req.features, &dev).z,
                        FallbackStep::CpuReference =>
                            req.graph.spmm_reference(&req.features),
                    };
                    prop_assert_eq!(
                        z, &want,
                        "request {}: degraded result must match fault-free {}", i, fallback
                    );
                }
                Outcome::Failed(e) => {
                    // Typed, displayable, and chain-shaped: only
                    // exhaustion can end a well-formed request.
                    prop_assert!(
                        matches!(e, hc_core::HcError::FallbacksExhausted { .. }),
                        "request {}: unexpected failure {}", i, e
                    );
                }
            }
            // Quarantine is forever: a structure quarantined before this
            // request's epoch must not have produced a cache hit.
            if quarantined_before_epoch[resp.epoch].contains(&fp) {
                prop_assert!(!resp.hit, "request {}: served a quarantined structure from cache", i);
            }
            if served.cache().is_quarantined(fp) {
                seen_quarantine.insert(fp);
            }
        }
        // And the cache agrees nothing quarantined is resident.
        for fp in seen_quarantine {
            prop_assert!(served.cache().peek(fp).is_none());
        }
        let s = served.cache().stats();
        prop_assert_eq!(s.hits + s.misses, s.requests);
        prop_assert_eq!(s.quarantined as usize, quarantined(&served).len());
        // A poisoned run quarantines its structure: some structure is
        // quarantined exactly when some cohort was poisoned.
        prop_assert_eq!(poisoned_cohorts > 0, s.quarantined > 0);
    }

    /// Resilience must be invisible when faults are off: the resilient
    /// front's stream equals the default front's, bit for bit, outcome
    /// for outcome.
    #[test]
    fn disabled_faults_are_bit_identical_to_plain_serving(
        family_ix in 0usize..4,
        n in 4usize..10,
        shape in 0usize..2,
    ) {
        let dev = DeviceSpec::rtx3090();
        let spec = PlanSpec { family: KernelFamily::ALL[family_ix], use_loa: false };
        let trace = requests(n);

        let plain = front(shape, u64::MAX, spec, ResiliencePolicy::default()).run_trace(&trace, &dev);
        let resilient = front(
            shape,
            u64::MAX,
            spec,
            ResiliencePolicy { faults: FaultConfig::off(), ..Default::default() },
        )
        .run_trace(&trace, &dev);
        let (a, b) = (&plain.responses, &resilient.responses);
        prop_assert_eq!(a.len(), b.len());
        for (ra, rb) in a.iter().zip(b) {
            prop_assert_eq!(&ra.outcome, &rb.outcome);
            prop_assert!(matches!(ra.outcome, Outcome::Ok(_)));
            prop_assert_eq!(ra.hit, rb.hit);
            prop_assert_eq!(ra.wasted_sim_ms, 0.0);
        }
        prop_assert_eq!(plain.cache, resilient.cache);
        prop_assert_eq!(plain.cache.quarantined, 0);
    }

    /// Same seed, same schedule, same everything: a chaos batch re-run is
    /// reproducible end to end.
    #[test]
    fn chaos_batches_are_reproducible(
        seed in 0u64..1_000_000,
        rate in 0.1f64..0.7,
        shape in 0usize..2,
    ) {
        let dev = DeviceSpec::rtx3090();
        let spec = PlanSpec::hybrid();
        let policy = ResiliencePolicy {
            faults: FaultConfig::uniform(seed, rate),
            ..Default::default()
        };
        let trace = requests(8);
        let run = || {
            let rep = front(shape, u64::MAX, spec, policy).run_trace(&trace, &dev);
            (rep.responses, rep.cache)
        };
        let (ra, sa) = run();
        let (rb, sb) = run();
        prop_assert_eq!(sa, sb);
        for (x, y) in ra.iter().zip(&rb) {
            prop_assert_eq!(&x.outcome, &y.outcome);
            prop_assert_eq!(x.hit, y.hit);
            prop_assert_eq!(x.wasted_sim_ms, y.wasted_sim_ms);
        }
    }
}
