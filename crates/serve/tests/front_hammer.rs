//! Multithreaded hammer for the serving front-end: a multi-tenant
//! request mix pushed through [`Front::run_trace`] at 1, 2 and 8
//! workers, asserting
//!
//! * the counter invariants hold exactly — `submitted == admitted +
//!   rejected`, `completed == admitted`, `completed == ok + degraded +
//!   failed`, every executed request sits in a cohort of size ≥ 1, and
//!   no tenant ever exceeds its per-epoch admission quota;
//! * every served output is bit-exact against a cold single-stream
//!   execution (fresh plan per request, no cache, no cohorts);
//! * the full deterministic report is identical at every worker count.

use std::collections::HashMap;
use std::sync::Arc;

use gpu_sim::DeviceSpec;
use graph_sparse::{gen, Csr, DenseMatrix};
use hc_core::{Plan, PlanSpec};
use hc_serve::{
    Front, FrontConfig, FrontEvent, FrontReport, FrontRequest, Outcome, Request, TenantId,
};

const EPOCH: usize = 12;
const QUOTA: usize = 4;
const QUEUE: usize = 10;

fn mix() -> Vec<FrontRequest> {
    let gs: Vec<Arc<Csr>> = (0..4)
        .map(|i| Arc::new(gen::erdos_renyi(144, 640, 500 + i as u64)))
        .collect();
    // 48 arrivals: 5 tenants with skewed submission rates over 4
    // structures, arranged so tenant 0 overruns its quota and the tail
    // of each epoch overruns the queue.
    (0..48usize)
        .map(|i| {
            let tenant = TenantId([0, 0, 1, 0, 2, 3, 0, 4][i % 8]);
            let g = &gs[(i * 7) % 4];
            FrontRequest {
                tenant,
                request: Request {
                    graph: Arc::clone(g),
                    features: DenseMatrix::random_features(g.ncols, 16, i as u64),
                },
            }
        })
        .collect()
}

fn run(workers: usize, trace: &[FrontRequest], dev: &DeviceSpec) -> FrontReport {
    let front = Front::new(
        1 << 30,
        PlanSpec::hybrid(),
        4,
        FrontConfig {
            workers,
            queue_depth: QUEUE,
            tenant_quota: QUOTA,
            arrivals_per_epoch: EPOCH,
            max_cohort: 3,
            ..Default::default()
        },
    );
    front.run_trace(trace, dev)
}

#[test]
fn counters_quota_and_bit_exactness_at_1_2_and_8_workers() {
    let dev = DeviceSpec::rtx3090();
    let trace = mix();

    // Cold single-stream control: a fresh plan per request, no sharing
    // of any kind. Every served front output must match it bit-for-bit.
    let cold: Vec<DenseMatrix> = trace
        .iter()
        .map(|fr| {
            Plan::prepare(&fr.request.graph, PlanSpec::hybrid(), &dev)
                .execute(&fr.request.graph, &fr.request.features, &dev)
                .z
        })
        .collect();

    let base = run(1, &trace, &dev);
    for workers in [1usize, 2, 8] {
        let rep = run(workers, &trace, &dev);
        let c = rep.counters;

        // Counter invariants, exact.
        assert_eq!(c.submitted, trace.len() as u64, "workers={workers}");
        assert_eq!(c.submitted, c.admitted + c.rejected());
        assert_eq!(c.completed, c.admitted, "nothing dropped after admission");
        assert_eq!(c.completed, c.ok + c.degraded + c.failed);
        assert_eq!(c.failed, 0, "clean mix: no failures");
        assert!(c.rejected_quota > 0, "tenant 0 must overrun its quota");
        assert!(c.rejected_queue > 0, "epoch tails must overrun the queue");
        assert!(c.cohorts >= 4, "at least one cohort per structure");
        assert!(
            c.cohort_rate() >= 0.5,
            "structure-heavy mix must cohort: {}",
            c.cohort_rate()
        );

        // Per-epoch, per-tenant quota is never exceeded; executed
        // requests always carry a cohort of size >= 1.
        let mut admitted_per: HashMap<(usize, TenantId), usize> = HashMap::new();
        for r in &rep.responses {
            if r.is_rejected() {
                assert_eq!(r.cohort, None);
                continue;
            }
            *admitted_per.entry((r.epoch, r.tenant)).or_insert(0) += 1;
            if !matches!(r.outcome, Outcome::Failed(_)) {
                assert!(r.cohort.is_some(), "served requests belong to a cohort");
                assert!(r.cohort_size >= 1);
                assert!(r.cohort_size <= 3, "cohort cap respected");
            }
        }
        for ((epoch, tenant), n) in &admitted_per {
            assert!(
                *n <= QUOTA,
                "tenant {tenant} admitted {n} > quota {QUOTA} in epoch {epoch}"
            );
        }
        let per_epoch_total: HashMap<usize, usize> =
            admitted_per
                .iter()
                .fold(HashMap::new(), |mut acc, ((e, _), n)| {
                    *acc.entry(*e).or_insert(0) += n;
                    acc
                });
        for (epoch, n) in per_epoch_total {
            assert!(n <= QUEUE, "epoch {epoch} admitted {n} > queue {QUEUE}");
        }

        // Bit-exactness of every served output vs. the cold control.
        let mut served = 0usize;
        for (r, control) in rep.responses.iter().zip(&cold) {
            if let Some(z) = r.z() {
                assert_eq!(
                    z, control,
                    "trace index {}: cohorted output != cold single-stream",
                    r.trace_index
                );
                served += 1;
            }
        }
        assert_eq!(served as u64, c.ok + c.degraded);

        // The whole deterministic report matches the 1-worker baseline.
        assert_eq!(rep.responses, base.responses, "workers={workers}");
        assert_eq!(rep.counters, base.counters);
        assert_eq!(rep.latency, base.latency);
        assert_eq!(rep.tenants, base.tenants);
        assert_eq!(
            (rep.cache.requests, rep.cache.hits, rep.cache.misses),
            (base.cache.requests, base.cache.hits, base.cache.misses)
        );
    }
}

#[test]
fn faulty_mix_degrades_only_implicated_members_and_stays_deterministic() {
    use gpu_sim::FaultConfig;
    let dev = DeviceSpec::rtx3090();
    let trace = mix();
    let run_faulty = |workers: usize| {
        let front = Front::new(
            1 << 30,
            PlanSpec::hybrid(),
            4,
            FrontConfig {
                workers,
                queue_depth: QUEUE,
                tenant_quota: QUOTA,
                arrivals_per_epoch: EPOCH,
                max_cohort: 3,
                policy: hc_core::ResiliencePolicy {
                    faults: FaultConfig::uniform(11, 0.35),
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        front.run_trace(&trace, &dev)
    };
    let base = run_faulty(1);
    assert!(
        base.counters.degraded > 0,
        "fault rate 0.35 must degrade something"
    );
    // Faults hit individual members, not whole cohorts: some cohort with
    // a degraded member also served a clean `Ok` member.
    let mixed_cohort = base.responses.iter().any(|r| {
        r.outcome.is_degraded()
            && base.responses.iter().any(|o| {
                o.cohort == r.cohort
                    && o.trace_index != r.trace_index
                    && matches!(o.outcome, Outcome::Ok(_))
            })
    });
    assert!(
        mixed_cohort,
        "a fault mid-cohort must degrade only the implicated members"
    );
    // Every served member (clean or degraded) still returns a result,
    // and rejected counters are unchanged by faults.
    assert_eq!(
        base.counters.admitted + base.counters.rejected(),
        base.counters.submitted
    );
    for workers in [2usize, 8] {
        let rep = run_faulty(workers);
        assert_eq!(rep.responses, base.responses, "workers={workers}");
        assert_eq!(rep.counters, base.counters);
    }
}

/// One edge deleted, one absent edge inserted — a minimal valid churn
/// delta against `g`.
fn one_edge_churn(g: &Csr) -> graph_sparse::DeltaCsr {
    let (dr, dc) = (0..g.nrows)
        .find_map(|r| g.row_cols(r).first().map(|&c| (r as u32, c)))
        .expect("generated graph has edges");
    let insert = (0..g.nrows as u32)
        .flat_map(|r| (0..g.ncols as u32).map(move |c| (r, c)))
        .find(|&(r, c)| (r, c) != (dr, dc) && !g.row_cols(r as usize).contains(&c))
        .expect("graph is sparse: an absent cell exists");
    graph_sparse::DeltaCsr::new(
        g.nrows,
        g.ncols,
        vec![(insert.0, insert.1, 1.5)],
        vec![(dr, dc)],
    )
    .expect("one insert, one delete: valid")
}

fn serve(g: &Arc<Csr>, i: usize) -> FrontEvent {
    FrontEvent::Serve(FrontRequest {
        tenant: TenantId([0, 1, 2, 3][i % 4]),
        request: Request {
            graph: Arc::clone(g),
            features: DenseMatrix::random_features(g.ncols, 16, i as u64),
        },
    })
}

/// Churn workload: two structures mutated mid-trace. Pins down the exact
/// stale-serve accounting — every same-epoch request on a mutated
/// structure is served stale by the old plan, the patched plan swaps in
/// at the epoch barrier and serves everything after — and that the whole
/// report is bit-identical at 1, 2 and 8 workers.
#[test]
fn churn_mix_counts_stale_serves_exactly_and_stays_deterministic() {
    let dev = DeviceSpec::rtx3090();
    let g0 = Arc::new(gen::erdos_renyi(144, 640, 700));
    let g1 = Arc::new(gen::erdos_renyi(144, 640, 701));
    let (d0, d1) = (one_edge_churn(&g0), one_edge_churn(&g1));
    let g0p = Arc::new(d0.apply(&g0).expect("valid delta"));
    let g1p = Arc::new(d1.apply(&g1).expect("valid delta"));

    // 6 arrivals per epoch; mutation epochs interleave serves on the
    // mutated structure (stale) and the untouched one (fresh).
    let graphs_by_index: Vec<&Arc<Csr>> = vec![
        &g0, &g1, &g0, &g1, &g0, &g1, // epoch 0: warm both plans
        &g0, /* mutate g0 */ &g0, &g1, &g0, &g1, // epoch 1
        &g0p, &g0p, &g1, /* mutate g1 */ &g1, &g0p, // epoch 2
        &g0p, &g1p, &g0p, &g1p, &g0p, &g1p, // epoch 3: all patched
    ];
    let mut events = Vec::new();
    for (i, g) in graphs_by_index.iter().enumerate() {
        if i == 7 {
            events.push(FrontEvent::Mutate(hc_serve::Mutation {
                base: Arc::clone(&g0),
                delta: d0.clone(),
            }));
        }
        if i == 14 {
            events.push(FrontEvent::Mutate(hc_serve::Mutation {
                base: Arc::clone(&g1),
                delta: d1.clone(),
            }));
        }
        events.push(serve(g, i));
    }
    assert_eq!(events.len(), 24);

    // Cold single-stream control for bit-exactness of served outputs.
    let cold: Vec<Option<DenseMatrix>> = events
        .iter()
        .map(|ev| match ev {
            FrontEvent::Serve(fr) => Some(
                Plan::prepare(&fr.request.graph, PlanSpec::hybrid(), &dev)
                    .execute(&fr.request.graph, &fr.request.features, &dev)
                    .z,
            ),
            FrontEvent::Mutate(_) => None,
        })
        .collect();

    let run_churn = |workers: usize| {
        let front = Front::new(
            1 << 30,
            PlanSpec::hybrid(),
            4,
            FrontConfig {
                workers,
                queue_depth: 12,
                tenant_quota: 6,
                arrivals_per_epoch: 6,
                max_cohort: 3,
                ..Default::default()
            },
        );
        front.run_events(&events, &dev)
    };

    let base = run_churn(1);
    let c = base.counters;
    assert_eq!(c.submitted, 22, "mutations are control-plane, not requests");
    assert_eq!(c.admitted, 22, "generous quota/queue: nothing shed");
    assert_eq!((c.mutations, c.patched_plans), (2, 2));
    // Epoch 1 serves three g0 requests (indices 6, 8, 10 — including the
    // one admitted *before* the mutation: admission batches the epoch),
    // epoch 2 serves two g1 requests (14, 16, straddling the second
    // mutation event at 15). All five ride the old plan, flagged stale.
    assert_eq!(c.stale_served, 5);
    let stale_idx: Vec<usize> = base
        .responses
        .iter()
        .filter(|r| r.stale)
        .map(|r| r.trace_index)
        .collect();
    assert_eq!(stale_idx, vec![6, 8, 10, 14, 16]);
    assert_eq!(base.cache.swaps, 2, "both patched plans swapped in");
    assert!(base.cache.stale_hits >= 2, "stale cohorts hit the old plan");

    // Both mutations patched the resident plan and swapped cleanly.
    assert_eq!(base.mutations.len(), 2);
    for (m, (g, gp)) in base.mutations.iter().zip([(&g0, &g0p), (&g1, &g1p)]) {
        assert!(m.patched, "resident plan must be patched, not re-prepared");
        assert_eq!(m.swap, Some(hc_serve::SwapOutcome::Swapped));
        assert_eq!(m.old_fp, Ok(graph_sparse::StructureFingerprint::of(g)));
        assert_eq!(m.new_fp, Some(graph_sparse::StructureFingerprint::of(gp)));
        assert!(m.patch_sim_ms > 0.0, "dirty-window re-plan bills sim time");
    }
    assert_eq!(
        (base.mutations[0].trace_index, base.mutations[0].epoch),
        (7, 1)
    );
    assert_eq!(
        (base.mutations[1].trace_index, base.mutations[1].epoch),
        (15, 2)
    );

    // Post-swap serves on the mutated structures are cache hits on the
    // patched plan, never stale.
    for r in &base.responses {
        if r.trace_index >= 18 {
            assert!(
                r.hit,
                "index {}: patched plan must be resident",
                r.trace_index
            );
            assert!(
                !r.stale,
                "index {}: swap retired the stale plan",
                r.trace_index
            );
        }
    }

    // Every served output — stale-served and patched-served alike — is
    // bit-exact against the cold control.
    for r in &base.responses {
        let z = r.z().expect("clean mix: every request serves");
        let control = cold[r.trace_index].as_ref().expect("serve index");
        assert_eq!(z, control, "trace index {} diverged", r.trace_index);
    }

    // Bit-identical reports at 2 and 8 workers.
    for workers in [2usize, 8] {
        let rep = run_churn(workers);
        assert_eq!(rep.responses, base.responses, "workers={workers}");
        assert_eq!(rep.counters, base.counters);
        assert_eq!(rep.mutations, base.mutations);
        assert_eq!(rep.latency, base.latency);
        assert_eq!(rep.tenants, base.tenants);
        assert_eq!(rep.cache, base.cache);
    }
}

/// A quarantined fingerprint stays quarantined across a patch swap: the
/// patched plan inherits the bar, is never admitted to the cache, and
/// every subsequent request on the mutated structure is served by a
/// fresh uncached prepare (correct outputs, `hit == false`).
#[test]
fn quarantine_survives_the_swap_and_is_never_re_served() {
    let dev = DeviceSpec::rtx3090();
    let g0 = Arc::new(gen::erdos_renyi(144, 640, 702));
    let delta = one_edge_churn(&g0);
    let g0p = Arc::new(delta.apply(&g0).expect("valid delta"));
    let old_fp = graph_sparse::StructureFingerprint::of(&g0);
    let new_fp = graph_sparse::StructureFingerprint::of(&g0p);

    let graphs_by_index: Vec<&Arc<Csr>> = vec![
        &g0, &g0, &g0, // epoch 0: warm the resident plan
        &g0, /* mutate */ &g0, // epoch 1: stale serves
        &g0p, &g0p, &g0p, // epoch 2: quarantined structure
    ];
    let mut events = Vec::new();
    for (i, g) in graphs_by_index.iter().enumerate() {
        if i == 4 {
            events.push(FrontEvent::Mutate(hc_serve::Mutation {
                base: Arc::clone(&g0),
                delta: delta.clone(),
            }));
        }
        events.push(serve(g, i));
    }
    assert_eq!(events.len(), 9);

    let cold: Vec<Option<DenseMatrix>> = events
        .iter()
        .map(|ev| match ev {
            FrontEvent::Serve(fr) => Some(
                Plan::prepare(&fr.request.graph, PlanSpec::hybrid(), &dev)
                    .execute(&fr.request.graph, &fr.request.features, &dev)
                    .z,
            ),
            FrontEvent::Mutate(_) => None,
        })
        .collect();

    let run_quarantined = |workers: usize| {
        let front = Front::new(
            1 << 30,
            PlanSpec::hybrid(),
            4,
            FrontConfig {
                workers,
                queue_depth: 8,
                tenant_quota: 4,
                arrivals_per_epoch: 3,
                max_cohort: 2,
                ..Default::default()
            },
        );
        // The mutated structure was implicated before the churn arrived
        // (say, by a poisoning fault in an earlier batch).
        front.cache().quarantine(new_fp);
        let rep = front.run_events(&events, &dev);
        let resident_after = front.cache().peek(new_fp).is_some();
        let still_quarantined = front.cache().is_quarantined(new_fp);
        (rep, resident_after, still_quarantined)
    };

    let (base, resident_after, still_quarantined) = run_quarantined(1);
    assert!(!resident_after, "quarantined fp must never become resident");
    assert!(still_quarantined, "quarantine is permanent across the swap");

    // The mutation still patched the resident old plan, but the cache
    // refused the swap and kept the lineage barred.
    assert_eq!(base.mutations.len(), 1);
    let m = &base.mutations[0];
    assert!(m.patched);
    assert_eq!(m.old_fp, Ok(old_fp));
    assert_eq!(m.new_fp, Some(new_fp));
    assert_eq!(m.swap, Some(hc_serve::SwapOutcome::Quarantined));
    assert_eq!(base.cache.swaps, 0, "a quarantined swap is not a swap");
    assert!(
        base.cache.quarantine_misses > 0,
        "serves on the barred structure re-prepare outside the cache"
    );

    // Requests on the quarantined structure are still served correctly —
    // just never from the cache.
    for r in &base.responses {
        if r.trace_index >= 6 {
            assert!(
                !r.hit,
                "index {}: barred structure must miss",
                r.trace_index
            );
            assert!(!r.stale);
        }
        let z = r.z().expect("clean mix: every request serves");
        let control = cold[r.trace_index].as_ref().expect("serve index");
        assert_eq!(z, control, "trace index {} diverged", r.trace_index);
    }
    assert_eq!(
        base.counters.stale_served, 2,
        "epoch-1 serves ride the old plan"
    );

    for workers in [2usize, 8] {
        let (rep, resident, quarantined) = run_quarantined(workers);
        assert!(!resident && quarantined, "workers={workers}");
        assert_eq!(rep.responses, base.responses, "workers={workers}");
        assert_eq!(rep.counters, base.counters);
        assert_eq!(rep.mutations, base.mutations);
        assert_eq!(rep.cache, base.cache);
    }
}

/// Crash-restart-resume at 1, 2 and 8 workers: the churn mix (with a
/// pre-barred lineage, as in the quarantine test) is run through the
/// durable front with an injected crash, recovered from (snapshot, WAL)
/// and resumed — and the merged report is bit-exact against the
/// uncrashed control at every worker count, with the same report across
/// worker counts. The quarantine bar demonstrably survives the restart
/// via the WAL marker alone: the recovered front starts from a fresh,
/// unbarred cache.
#[test]
fn crash_restart_resume_is_bit_exact_at_any_worker_count() {
    use gpu_sim::{CrashConfig, CrashScope};
    use hc_serve::{run_to_completion, DurabilityConfig, DurableFront};
    use std::path::PathBuf;

    let dev = DeviceSpec::rtx3090();
    let g0 = Arc::new(gen::erdos_renyi(144, 640, 700));
    let g1 = Arc::new(gen::erdos_renyi(144, 640, 701));
    let (d0, d1) = (one_edge_churn(&g0), one_edge_churn(&g1));
    let g0p = Arc::new(d0.apply(&g0).expect("valid delta"));
    let g1p = Arc::new(d1.apply(&g1).expect("valid delta"));
    let barred_fp = graph_sparse::StructureFingerprint::of(&g1p);

    let graphs_by_index: Vec<&Arc<Csr>> = vec![
        &g0, &g1, &g0, &g1, &g0, &g1, // epoch 0
        &g0, /* mutate g0 */ &g0, &g1, &g0, &g1, // epoch 1
        &g0p, &g0p, &g1, /* mutate g1 */ &g1, &g0p, // epoch 2
        &g0p, &g1p, &g0p, &g1p, &g0p, &g1p, // epoch 3
    ];
    let mut events = Vec::new();
    for (i, g) in graphs_by_index.iter().enumerate() {
        if i == 7 {
            events.push(FrontEvent::Mutate(hc_serve::Mutation {
                base: Arc::clone(&g0),
                delta: d0.clone(),
            }));
        }
        if i == 14 {
            events.push(FrontEvent::Mutate(hc_serve::Mutation {
                base: Arc::clone(&g1),
                delta: d1.clone(),
            }));
        }
        events.push(serve(g, i));
    }

    let scratch = |name: &str| {
        let dir = std::env::temp_dir();
        let mut wal_path = dir.clone();
        wal_path.push(format!("hc-hammer-{}-{}.wal", std::process::id(), name));
        let mut snapshot_path = dir;
        snapshot_path.push(format!("hc-hammer-{}-{}.snap", std::process::id(), name));
        let _ = std::fs::remove_file(&wal_path);
        let _ = std::fs::remove_file(&snapshot_path);
        DurabilityConfig {
            wal_path,
            snapshot_path,
            snapshot_every: 2,
        }
    };
    let cleanup = |cfg: &DurabilityConfig| {
        let _ = std::fs::remove_file(&cfg.wal_path);
        let _ = std::fs::remove_file(&cfg.snapshot_path);
        let mut tmp = cfg.snapshot_path.as_os_str().to_owned();
        tmp.push(".tmp");
        let _ = std::fs::remove_file(PathBuf::from(tmp));
    };
    let mk_front = |workers: usize, barred: bool| {
        move || {
            let front = Front::new(
                1 << 30,
                PlanSpec::hybrid(),
                4,
                FrontConfig {
                    workers,
                    queue_depth: 12,
                    tenant_quota: 6,
                    arrivals_per_epoch: 6,
                    max_cohort: 3,
                    ..Default::default()
                },
            );
            if barred {
                front.cache().quarantine(barred_fp);
            }
            front
        }
    };

    // Uncrashed control, identical across worker counts (pinned by the
    // plain hammer tests; re-checked here because the durable merge path
    // must reproduce it too). The sweep runs unbarred: a factory-time
    // quarantine would be re-executed by the recovery factory *and*
    // restored from the marker, double-counting the stat — the barred
    // lineage is exercised explicitly below with an unbarred recovery
    // factory instead.
    let control = mk_front(1, false)().run_events(&events, &dev);

    // Horizon probe through the durable wrapper.
    let cfg = scratch("probe");
    let probe = run_to_completion(&mk_front(1, false), &cfg, &events, &dev, CrashConfig::off())
        .expect("uncrashed durable run");
    cleanup(&cfg);
    assert_eq!(probe.report.responses, control.responses);
    assert_eq!(probe.report.counters, control.counters);
    let horizon = probe.crash_points;
    assert!(horizon >= 6, "churn trace must expose crash points");

    // Crash early, mid and late, at every worker count: merged recovered
    // reports are bit-exact vs the control and vs each other.
    for k in [0, horizon / 2, horizon - 1] {
        let mut per_worker = Vec::new();
        for workers in [1usize, 2, 8] {
            let cfg = scratch(&format!("w{workers}k{k}"));
            let out = run_to_completion(
                &mk_front(workers, false),
                &cfg,
                &events,
                &dev,
                CrashConfig::at(k),
            )
            .unwrap_or_else(|e| panic!("workers={workers} k={k}: {e}"));
            cleanup(&cfg);
            assert_eq!(out.attempts, 2, "workers={workers} k={k}: one crash");
            for r in &out.recoveries {
                assert_eq!(r.double_applied, 0, "workers={workers} k={k}");
            }
            assert_eq!(out.report.responses, control.responses, "w={workers} k={k}");
            assert_eq!(out.report.counters, control.counters, "w={workers} k={k}");
            assert_eq!(out.report.mutations, control.mutations, "w={workers} k={k}");
            assert_eq!(out.report.latency, control.latency, "w={workers} k={k}");
            assert_eq!(out.report.tenants, control.tenants, "w={workers} k={k}");
            assert_eq!(out.report.cache, control.cache, "w={workers} k={k}");
            per_worker.push(out.report);
        }
        for rep in &per_worker[1..] {
            assert_eq!(rep.responses, per_worker[0].responses, "k={k}");
            assert_eq!(rep.counters, per_worker[0].counters, "k={k}");
        }
    }

    // Quarantine lineage survives the restart through the WAL alone:
    // crash late (the bar is long since durable in every marker), then
    // recover into a fresh *unbarred* front — the bar must come back
    // from the log, not from the factory.
    let cfg = scratch("lineage");
    let mut df =
        DurableFront::create(mk_front(1, true)(), cfg.clone()).expect("create durable front");
    let scope = CrashScope::install(CrashConfig::at(horizon - 1));
    let attempt = df.run(&events, &dev).expect("run to the injected crash");
    drop(scope);
    drop(df);
    assert!(attempt.crash.is_some(), "late crash point must fire");
    let (recovered, stats) =
        DurableFront::recover(mk_front(1, false)(), cfg.clone(), &events, &dev)
            .expect("recover from disk");
    cleanup(&cfg);
    assert!(
        recovered.front().cache().is_quarantined(barred_fp),
        "quarantine lineage must survive the restart via the marker"
    );
    assert!(stats.restored_plans > 0, "warm recovery rebuilds plans");
}
