//! Restart-equivalence chaos suite: for *every* point in a crash
//! schedule — mid-epoch, mid-WAL-append (torn record), between a WAL
//! append and its plan swap (intact unmarked record), mid-snapshot —
//! crashing there, recovering from (snapshot, WAL) and finishing the
//! trace yields a report bit-identical to the uncrashed run: responses,
//! counters, mutation outcomes, latency percentiles, tenant accounting
//! and cache statistics. Deltas are never double-applied; torn tails
//! roll back to the last fsync marker. The sweep runs twice: under a
//! budget that never evicts, and under one shard below the trace's
//! working set, where recovery must also reproduce every eviction.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;

use gpu_sim::{CrashConfig, CrashScope, CrashSite, DeviceSpec, FaultConfig};
use graph_sparse::{gen, Csr, DeltaCsr, DenseMatrix, StructureFingerprint};
use hc_core::{Plan, PlanSpec, ResiliencePolicy};
use hc_serve::{
    run_to_completion, DurabilityConfig, DurableFront, Front, FrontConfig, FrontEvent, FrontReport,
    FrontRequest, Mutation, Request, TenantId, Wal,
};

const EPOCH: usize = 6;

fn scratch(name: &str) -> DurabilityConfig {
    let dir = std::env::temp_dir();
    let mut wal_path = dir.clone();
    wal_path.push(format!("hc-req-{}-{}.wal", std::process::id(), name));
    let mut snapshot_path = dir;
    snapshot_path.push(format!("hc-req-{}-{}.snap", std::process::id(), name));
    let _ = std::fs::remove_file(&wal_path);
    let _ = std::fs::remove_file(&snapshot_path);
    DurabilityConfig {
        wal_path,
        snapshot_path,
        snapshot_every: 3,
    }
}

fn cleanup(cfg: &DurabilityConfig) {
    let _ = std::fs::remove_file(&cfg.wal_path);
    let _ = std::fs::remove_file(&cfg.snapshot_path);
    let mut tmp = cfg.snapshot_path.as_os_str().to_owned();
    tmp.push(".tmp");
    let _ = std::fs::remove_file(PathBuf::from(tmp));
}

/// One absent edge inserted, one present edge deleted — the smallest
/// structurally effective delta against `a`.
fn churn_delta(a: &Csr) -> DeltaCsr {
    let (dr, dc) = (0..a.nrows)
        .find_map(|r| a.row_cols(r).first().map(|&c| (r as u32, c)))
        .expect("graph has edges");
    let (ir, ic) = (0..a.nrows as u32)
        .flat_map(|r| (0..a.ncols as u32).map(move |c| (r, c)))
        .find(|&(r, c)| (r, c) != (dr, dc) && !a.row_cols(r as usize).contains(&c))
        .expect("graph has a free cell");
    DeltaCsr::new(a.nrows, a.ncols, vec![(ir, ic, 1.0)], vec![(dr, dc)]).expect("valid delta")
}

fn serve(tenant: u32, g: &Arc<Csr>, seed: u64) -> FrontEvent {
    FrontEvent::Serve(FrontRequest {
        tenant: TenantId(tenant),
        request: Request {
            graph: Arc::clone(g),
            features: DenseMatrix::random_features(g.ncols, 12, seed),
        },
    })
}

/// A mixed trace exercising every recovery path: repeated serves on
/// three structures (plans resident, cohorts form), a two-deep mutation
/// chain on one lineage (recovery must replay `prepare` + two patches),
/// serves on the mutated graphs (patched plans get hits), and a fault
/// stream hot enough to quarantine at least one structure.
fn trace() -> Vec<FrontEvent> {
    let g0 = Arc::new(gen::erdos_renyi(96, 420, 901));
    let g1 = Arc::new(gen::erdos_renyi(112, 500, 902));
    let g2 = Arc::new(gen::erdos_renyi(80, 360, 903));
    let d1 = churn_delta(&g0);
    let g0b = Arc::new(d1.apply(&g0).expect("delta applies"));
    let d2 = churn_delta(&g0b);
    let g0c = Arc::new(d2.apply(&g0b).expect("delta applies"));
    let d3 = churn_delta(&g1);
    let g1b = Arc::new(d3.apply(&g1).expect("delta applies"));

    let mut ev: Vec<FrontEvent> = Vec::new();
    // Epoch 0-1: warm the cache on the three bases.
    for i in 0..12u64 {
        let g = [&g0, &g1, &g2][(i % 3) as usize];
        ev.push(serve((i % 4) as u32, g, i));
    }
    // Epoch 2: first mutation on g0's lineage, g0 keeps serving stale.
    ev.push(FrontEvent::Mutate(Mutation {
        base: Arc::clone(&g0),
        delta: d1,
    }));
    for i in 12..17u64 {
        ev.push(serve((i % 4) as u32, [&g0, &g1][(i % 2) as usize], i));
    }
    // Epoch 3: serves hit the patched plan for g0b; mutate g1 too.
    ev.push(FrontEvent::Mutate(Mutation {
        base: Arc::clone(&g1),
        delta: d3,
    }));
    for i in 17..22u64 {
        ev.push(serve((i % 4) as u32, [&g0b, &g2][(i % 2) as usize], i));
    }
    // Epoch 4: second hop of the g0 chain.
    ev.push(FrontEvent::Mutate(Mutation {
        base: Arc::clone(&g0b),
        delta: d2,
    }));
    for i in 22..27u64 {
        ev.push(serve((i % 4) as u32, [&g1b, &g0b][(i % 2) as usize], i));
    }
    // Epochs 5-7: tip-of-chain traffic across every structure.
    for i in 27..45u64 {
        let g = [&g0c, &g1b, &g2, &g0b][(i % 4) as usize];
        ev.push(serve((i % 4) as u32, g, i));
    }
    ev
}

fn mk_front() -> Front {
    Front::new(
        1 << 30,
        PlanSpec::hybrid(),
        4,
        FrontConfig {
            workers: 2,
            queue_depth: 8,
            tenant_quota: 4,
            arrivals_per_epoch: EPOCH,
            max_cohort: 3,
            slo_sim_ms: 40.0,
            policy: ResiliencePolicy {
                faults: FaultConfig::uniform(0, 0.15),
                ..Default::default()
            },
        },
    )
}

/// Everything deterministic in a report — all of it except `wall_ms`.
fn assert_reports_equal(got: &FrontReport, want: &FrontReport, ctx: &str) {
    assert_eq!(got.responses, want.responses, "{ctx}: responses");
    assert_eq!(got.counters, want.counters, "{ctx}: counters");
    assert_eq!(got.mutations, want.mutations, "{ctx}: mutation outcomes");
    assert_eq!(got.latency, want.latency, "{ctx}: latency stats");
    assert_eq!(got.tenants, want.tenants, "{ctx}: tenant stats");
    assert_eq!(got.cache, want.cache, "{ctx}: cache stats");
}

#[test]
fn every_crash_point_recovers_to_the_uncrashed_run() {
    let dev = DeviceSpec::rtx3090();
    let events = trace();
    let control = mk_front().run_events(&events, &dev);
    assert!(
        control.counters.patched_plans >= 3,
        "trace must exercise the patch path"
    );
    assert!(
        control.counters.quarantined_cohorts > 0,
        "trace must exercise quarantine"
    );

    // Uncrashed probe through the durable wrapper: bit-identical to the
    // plain front, and it measures the schedule horizon.
    let cfg = scratch("probe");
    let probe = run_to_completion(&mk_front, &cfg, &events, &dev, CrashConfig::off())
        .expect("uncrashed durable run");
    cleanup(&cfg);
    assert_eq!(probe.attempts, 1);
    assert!(probe.crashes.is_empty());
    assert_reports_equal(&probe.report, &control, "uncrashed durable run");
    let horizon = probe.crash_points;
    assert!(
        horizon >= 12,
        "schedule too small to mean anything: {horizon}"
    );

    let mut sites_hit: HashSet<CrashSite> = HashSet::new();
    for k in 0..horizon {
        let cfg = scratch(&format!("k{k}"));
        let out = run_to_completion(&mk_front, &cfg, &events, &dev, CrashConfig::at(k))
            .unwrap_or_else(|e| panic!("crash point {k}: recovery failed: {e}"));
        cleanup(&cfg);
        assert_eq!(
            out.crashes.len(),
            1,
            "crash point {k} must fire exactly once"
        );
        assert_eq!(out.attempts, 2, "one crash, one recovery");
        sites_hit.insert(out.crashes[0]);
        for (i, r) in out.recoveries.iter().enumerate() {
            assert_eq!(
                r.double_applied, 0,
                "crash point {k}, recovery {i}: delta double-applied"
            );
            if out.crashes[i] == CrashSite::MidWalAppend {
                assert!(
                    r.torn_bytes > 0,
                    "crash point {k}: a mid-append crash must leave a torn tail"
                );
            }
            if out.crashes[i] == CrashSite::BetweenAppendAndSwap {
                assert_eq!(
                    r.torn_bytes, 0,
                    "crash point {k}: record was fully appended, nothing torn"
                );
                assert!(
                    r.rolled_back_records > 0,
                    "crash point {k}: the unmarked record must roll back"
                );
            }
        }
        assert_reports_equal(&out.report, &control, &format!("crash point {k}"));
    }
    for site in CrashSite::ALL {
        assert!(
            sites_hit.contains(&site),
            "schedule never crashed at {site}: {sites_hit:?}"
        );
    }
}

#[test]
fn seeded_crash_schedules_are_deterministic() {
    let dev = DeviceSpec::rtx3090();
    let events = trace();
    for seed in [7u64, 8, 9] {
        let run = |name: &str| {
            let cfg = scratch(name);
            let out = run_to_completion(
                &mk_front,
                &cfg,
                &events,
                &dev,
                CrashConfig::seeded(seed, 18),
            )
            .expect("seeded run completes");
            cleanup(&cfg);
            out
        };
        let a = run(&format!("seed{seed}a"));
        let b = run(&format!("seed{seed}b"));
        assert_eq!(a.crashes, b.crashes, "seed {seed}: crash sites differ");
        assert_eq!(a.attempts, b.attempts, "seed {seed}");
        assert_reports_equal(&a.report, &b.report, &format!("seed {seed}"));
    }
}

/// Each distinct structure the trace serves, in first-serve order.
fn served_structures(events: &[FrontEvent]) -> Vec<Arc<Csr>> {
    let mut seen = HashSet::new();
    events
        .iter()
        .filter_map(|ev| match ev {
            FrontEvent::Serve(fr) => Some(Arc::clone(&fr.request.graph)),
            FrontEvent::Mutate(_) => None,
        })
        .filter(|g| seen.insert(StructureFingerprint::of(g)))
        .collect()
}

/// [`trace`] plus two epochs that revisit every structure it serves,
/// including the retired pre-mutation bases: under a tight budget the
/// cache keeps evicting after the last patch, so a restart at any later
/// crash point must reproduce those decisions.
fn trace_with_revisits() -> Vec<FrontEvent> {
    let mut ev = trace();
    let graphs = served_structures(&ev);
    for i in 0..2 * EPOCH {
        ev.push(serve(
            (i % 4) as u32,
            &graphs[i % graphs.len()],
            100 + i as u64,
        ));
    }
    ev
}

/// One shard's budget at about two thirds of the trace's working set:
/// the resumed run's evictions depend on the restored hits, costs,
/// priorities and inflation clock.
fn tight_budget(events: &[FrontEvent], dev: &DeviceSpec) -> u64 {
    let working_set: u64 = served_structures(events)
        .iter()
        .map(|g| Plan::prepare(g, PlanSpec::hybrid(), dev).approx_bytes())
        .sum();
    working_set * 65 / 100
}

#[test]
fn every_crash_point_recovers_under_eviction_pressure() {
    let dev = DeviceSpec::rtx3090();
    let events = trace_with_revisits();
    let budget = tight_budget(&events, &dev);
    let mk_tight = || Front::new(budget, PlanSpec::hybrid(), 1, *mk_front().config());
    let control = mk_tight().run_events(&events, &dev);
    assert!(
        control.counters.patched_plans >= 3,
        "trace must exercise the patch path: {} patches",
        control.counters.patched_plans
    );
    assert!(control.cache.evictions > 0, "the budget must evict");

    let cfg = scratch("tight-probe");
    let probe = run_to_completion(&mk_tight, &cfg, &events, &dev, CrashConfig::off())
        .expect("uncrashed durable run");
    cleanup(&cfg);
    assert_reports_equal(&probe.report, &control, "uncrashed durable run");
    let horizon = probe.crash_points;
    assert!(horizon >= 12, "schedule too small: {horizon}");

    let mut sites_hit: HashSet<CrashSite> = HashSet::new();
    for k in 0..horizon {
        let cfg = scratch(&format!("tight-k{k}"));
        let out = run_to_completion(&mk_tight, &cfg, &events, &dev, CrashConfig::at(k))
            .unwrap_or_else(|e| panic!("crash point {k}: recovery failed: {e}"));
        cleanup(&cfg);
        assert_eq!(out.crashes.len(), 1, "crash point {k} must fire once");
        sites_hit.insert(out.crashes[0]);
        for r in &out.recoveries {
            assert_eq!(r.double_applied, 0, "crash point {k}: double apply");
        }
        assert_reports_equal(&out.report, &control, &format!("crash point {k}"));
    }
    for site in CrashSite::ALL {
        assert!(sites_hit.contains(&site), "never crashed at {site}");
    }
}

#[test]
fn recovery_restores_the_logged_eviction_state() {
    let dev = DeviceSpec::rtx3090();
    let events = trace_with_revisits();
    let budget = tight_budget(&events, &dev);
    let mk_tight = || Front::new(budget, PlanSpec::hybrid(), 1, *mk_front().config());
    let mut inflated = 0;
    for k in 0.. {
        let cfg = scratch(&format!("state-k{k}"));
        let mut df = DurableFront::create(mk_tight(), cfg.clone()).expect("create the WAL");
        let scope = CrashScope::install(CrashConfig::at(k));
        let attempt = df.run(&events, &dev).expect("run to the injected crash");
        drop(scope);
        if attempt.crash.is_none() {
            cleanup(&cfg);
            assert!(k >= 12, "schedule too small: {k}");
            break;
        }
        let replay = Wal::replay(&cfg.wal_path).expect("the log replays");
        let (recovered, _) =
            DurableFront::recover(mk_tight(), cfg.clone(), &events, &dev).expect("recover");
        cleanup(&cfg);
        let (state, quarantine) = recovered.front().cache().collect_recoverable_state();
        match replay.last_marker() {
            Some(m) => {
                assert_eq!(state, m.shard_residency, "crash point {k}");
                assert_eq!(quarantine, m.quarantine, "crash point {k}");
                inflated += usize::from(m.shard_residency[0].inflation > 0.0);
            }
            None => assert!(
                state.iter().all(|s| s.resident.is_empty()),
                "crash point {k}"
            ),
        }
    }
    assert!(
        inflated > 0,
        "no crash point restores a raised inflation clock"
    );
}
