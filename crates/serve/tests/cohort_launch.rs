//! One launch per clean cohort. A cohort of at least two members that all
//! came back [`Outcome::Ok`] is billed as the single SpMM `A·[X1|…|Xk]` of
//! width `Σd`: with `T` that launch's simulated time, member *j*'s exec is
//! `T·d_j/Σd` and every member completes at `prepare + T`. Any other
//! cohort keeps the per-member bill,
//! `latency_j = prepare + Σ_{i≤j}(exec_i + wasted_i)`.
//!
//! The differential below checks a clean cohort's bill against the plan's
//! own pricing ([`Plan::execute_run`]) and every output against a cold
//! solo execute, over the four kernel families, LOA on and off, three
//! graph classes and cohorts of 2–8 members with equal and mixed widths.
//! The remaining tests pin the even split of a zero-width cohort, and the
//! per-member bill of a cohort with a faulted member and of a cohort of
//! one.

use std::sync::Arc;

use gpu_sim::{DeviceSpec, FaultConfig};
use graph_sparse::{gen, Csr, DenseMatrix, StructureFingerprint};
use hc_core::{execute_resilient_keyed, KernelFamily, Plan, PlanSpec, ResiliencePolicy};
use hc_serve::{Front, FrontConfig, FrontReport, FrontRequest, Outcome, Request, TenantId};

/// Member widths of the cohorts under test: equal, mixed, 2 to 8
/// members.
const MIXES: [&[usize]; 6] = [
    &[16, 16, 16, 16],
    &[8, 8, 8],
    &[47, 16, 5],
    &[32, 32],
    &[5, 5, 5, 5, 5, 5, 5, 5],
    &[1, 64, 3, 12, 7],
];

/// A community graph (the hybrid selector sends some windows to the
/// Tensor cores), scattered molecules (what LOA relayouts), and a sparse
/// random graph whose last row window is short.
fn graphs() -> Vec<Arc<Csr>> {
    vec![
        Arc::new(gen::community(256, 1_500, 8, 0.9, 1)),
        Arc::new(gen::scatter_relabel(&gen::molecules(256, 700, 5), 2)),
        Arc::new(gen::erdos_renyi(200, 900, 3)),
    ]
}

/// One request on `g` per entry of `widths`, request *i* `widths[i]`
/// columns wide, from distinct tenants.
fn cohort_trace(g: &Arc<Csr>, widths: &[usize], seed: u64) -> Vec<FrontRequest> {
    widths
        .iter()
        .enumerate()
        .map(|(i, &d)| FrontRequest {
            tenant: TenantId(i as u32),
            request: Request {
                graph: Arc::clone(g),
                features: DenseMatrix::random_features(g.ncols, d, seed + i as u64),
            },
        })
        .collect()
}

/// Serve `trace` as one epoch on a cold front whose cohorts hold at most
/// `max_cohort` members.
fn serve(
    trace: &[FrontRequest],
    spec: PlanSpec,
    max_cohort: usize,
    policy: ResiliencePolicy,
    dev: &DeviceSpec,
) -> (Front, FrontReport) {
    let front = Front::new(
        1 << 30,
        spec,
        1,
        FrontConfig {
            workers: 1,
            arrivals_per_epoch: trace.len(),
            max_cohort,
            policy,
            ..FrontConfig::default()
        },
    );
    let rep = front.run_trace(trace, dev);
    (front, rep)
}

fn specs() -> impl Iterator<Item = PlanSpec> {
    KernelFamily::ALL
        .into_iter()
        .flat_map(|family| [false, true].map(|use_loa| PlanSpec { family, use_loa }))
}

#[test]
fn clean_cohorts_bill_one_launch_of_the_summed_width() {
    let dev = DeviceSpec::rtx3090();
    let mut worst_ratio = 0.0f64;
    for (gi, g) in graphs().iter().enumerate() {
        for spec in specs() {
            let family = spec.family;
            let cold = Plan::prepare(g, spec, &dev);
            for (mi, widths) in MIXES.iter().enumerate() {
                let ctx = format!("graph {gi}, {spec:?}, widths {widths:?}");
                let trace = cohort_trace(g, widths, 100 * mi as u64);
                let (front, rep) = serve(&trace, spec, 8, ResiliencePolicy::default(), &dev);
                assert_eq!(rep.counters.cohorts, 1, "{ctx}");
                assert_eq!(rep.counters.ok, widths.len() as u64, "{ctx}");

                let total: usize = widths.iter().sum();
                let t = cold.execute_run(family, g, total, &dev).time_ms;
                let prepare = rep.responses[0].prepare_sim_ms;
                assert_eq!(prepare.to_bits(), cold.sim_prepare_ms().to_bits(), "{ctx}");
                let mut solo_sum = 0.0;
                let mut exec_sum = 0.0;
                for (r, fr) in rep.responses.iter().zip(&trace) {
                    let x = &fr.request.features;
                    let solo = cold.execute_as(family, g, x, &dev);
                    assert_eq!(r.cohort_size, widths.len(), "{ctx}");
                    assert_eq!(r.outcome, Outcome::Ok(solo.z), "{ctx}: output");
                    assert_eq!(
                        r.latency_sim_ms.to_bits(),
                        (prepare + t).to_bits(),
                        "{ctx}: every member completes with the one launch"
                    );
                    let share = x.cols as f64 / total as f64;
                    assert!(
                        (r.exec_sim_ms / t - share).abs() <= 1e-12,
                        "{ctx}: exec {} is not {share} of {t}",
                        r.exec_sim_ms
                    );
                    solo_sum += solo.run.time_ms;
                    exec_sum += r.exec_sim_ms;
                }
                assert!(
                    (exec_sum - t).abs() <= 1e-12 * t,
                    "{ctx}: shares sum to {exec_sum}, the launch took {t}"
                );
                assert!(
                    t < solo_sum,
                    "{ctx}: one launch {t} ms is no cheaper than {solo_sum} ms of solo launches"
                );
                worst_ratio = worst_ratio.max(t / solo_sum);

                // Pricing the batched width cached nothing: each request
                // width was built once, and every member looked its own
                // width up once.
                let plan = front
                    .cache()
                    .peek(StructureFingerprint::of(g))
                    .expect("the cohort's plan stays resident");
                let ws = plan.workspace_stats();
                let mut distinct = widths.to_vec();
                distinct.sort_unstable();
                distinct.dedup();
                assert_eq!(ws.cost_builds, distinct.len() as u64, "{ctx}");
                assert_eq!(
                    ws.cost_builds + ws.cost_reuses,
                    widths.len() as u64,
                    "{ctx}"
                );
            }
        }
    }
    assert!(
        worst_ratio < 1.0,
        "worst one-launch/solo ratio {worst_ratio}"
    );
}

#[test]
fn a_zero_width_cohort_splits_its_launch_evenly() {
    let dev = DeviceSpec::rtx3090();
    let g = &graphs()[0];
    for spec in specs() {
        let trace = cohort_trace(g, &[0, 0, 0], 7);
        let (_, rep) = serve(&trace, spec, 8, ResiliencePolicy::default(), &dev);
        let cold = Plan::prepare(g, spec, &dev);
        let t = cold.execute_run(spec.family, g, 0, &dev).time_ms;
        assert!(t.is_finite() && t > 0.0, "{spec:?}");
        for r in &rep.responses {
            assert!(matches!(r.outcome, Outcome::Ok(_)), "{spec:?}");
            assert_eq!(r.exec_sim_ms.to_bits(), (t / 3.0).to_bits(), "{spec:?}");
            assert_eq!(
                r.latency_sim_ms.to_bits(),
                (cold.sim_prepare_ms() + t).to_bits(),
                "{spec:?}"
            );
        }
    }
}

#[test]
fn a_cohort_with_a_faulted_member_keeps_the_per_member_bill() {
    let dev = DeviceSpec::rtx3090();
    let g = &graphs()[0];
    let fp = StructureFingerprint::of(g);
    let widths = [16, 8, 16, 5];
    for spec in specs() {
        let cold = Plan::prepare(g, spec, &dev);
        // The first fault schedule under which the cohort comes back mixed:
        // some member clean, some not.
        let (policy, trace, rep) = (0..200u64)
            .find_map(|seed| {
                let policy = ResiliencePolicy {
                    faults: FaultConfig::uniform(seed, 0.4),
                    ..ResiliencePolicy::default()
                };
                let trace = cohort_trace(g, &widths, 900 + seed);
                let (_, rep) = serve(&trace, spec, 8, policy, &dev);
                let ok = rep.counters.ok;
                (ok > 0 && ok < widths.len() as u64).then_some((policy, trace, rep))
            })
            .unwrap_or_else(|| panic!("{spec:?}: no schedule mixes clean and faulted members"));
        assert_eq!(rep.counters.cohorts, 1, "{spec:?}");

        // The reference bill: each member alone, under its own stream, one
        // after another on the cohort's plan.
        let mut queued = cold.sim_prepare_ms();
        for (i, (r, fr)) in rep.responses.iter().zip(&trace).enumerate() {
            let mut p = policy;
            p.faults = policy.faults.stream(i as u64);
            let run = execute_resilient_keyed(&cold, g, fp, &fr.request.features, &dev, &p);
            let degraded = run.degraded(spec.family);
            let ok = run.result.expect("the CPU reference serves every request");
            assert_eq!(r.outcome.is_degraded(), degraded, "{spec:?}, member {i}");
            assert_eq!(r.outcome.z(), Some(&ok.z), "{spec:?}, member {i}");
            assert_eq!(
                r.exec_sim_ms.to_bits(),
                ok.run.time_ms.to_bits(),
                "{spec:?}, member {i}: exec"
            );
            assert_eq!(
                r.wasted_sim_ms.to_bits(),
                run.wasted_sim_ms.to_bits(),
                "{spec:?}, member {i}: wasted"
            );
            queued += ok.run.time_ms + run.wasted_sim_ms;
            assert_eq!(
                r.latency_sim_ms.to_bits(),
                queued.to_bits(),
                "{spec:?}, member {i}: latency"
            );
        }
    }
}

#[test]
fn a_cohort_of_one_bills_like_a_solo_execute() {
    let dev = DeviceSpec::rtx3090();
    for (gi, g) in graphs().iter().enumerate() {
        for spec in specs() {
            let cold = Plan::prepare(g, spec, &dev);
            // Three requests in one epoch, each its own cohort: the first
            // misses and is charged the preparation, the others hit.
            let trace = cohort_trace(g, &[5, 16, 47], 40);
            let (_, rep) = serve(&trace, spec, 1, ResiliencePolicy::default(), &dev);
            assert_eq!(rep.counters.cohorts, 3, "graph {gi}, {spec:?}");
            for (i, (r, fr)) in rep.responses.iter().zip(&trace).enumerate() {
                let ctx = format!("graph {gi}, {spec:?}, request {i}");
                let solo = cold.execute_as(spec.family, g, &fr.request.features, &dev);
                assert_eq!(r.cohort_size, 1, "{ctx}");
                assert_eq!(r.outcome, Outcome::Ok(solo.z), "{ctx}");
                assert_eq!(r.exec_sim_ms.to_bits(), solo.run.time_ms.to_bits(), "{ctx}");
                let prepare = if i == 0 { cold.sim_prepare_ms() } else { 0.0 };
                assert_eq!(r.prepare_sim_ms.to_bits(), prepare.to_bits(), "{ctx}");
                assert_eq!(
                    r.latency_sim_ms.to_bits(),
                    (prepare + solo.run.time_ms).to_bits(),
                    "{ctx}"
                );
            }
        }
    }
}
