//! The structure screen of `SharedPlanCache`: every front on one cache
//! validates and fingerprints each graph allocation once for as long as
//! the cache lives, and recalls the verdict on every later call.
//!
//! The suite counts screens through `SharedPlanCache::screen_stats` and
//! pins what the memo must not change: reports equal those of calls that
//! screen afresh, a graph moved by `Arc::make_mut` is screened again and
//! served under its new structure, a malformed graph fails typed on every
//! call, and the memo drops dead allocations so it stays within its
//! documented bound (`2·P + 64` entries, `P` the most screened
//! allocations alive at once).

use std::path::PathBuf;
use std::sync::Arc;

use gpu_sim::DeviceSpec;
use graph_sparse::{gen, Csr, CsrError, DeltaCsr, DenseMatrix, StructureFingerprint};
use hc_core::{HcError, Plan, PlanSpec};
use hc_serve::{
    DurabilityConfig, DurableFront, Front, FrontConfig, FrontEvent, FrontReport, FrontRequest,
    Outcome, Request, SharedPlanCache, TenantId,
};

const GRAPHS: usize = 8;
const CALLS: usize = 32;
const PER_CALL: usize = 16;

/// Eight structures: community graphs (some Tensor-core windows) and
/// sparse random graphs.
fn graphs() -> Vec<Arc<Csr>> {
    (0..GRAPHS as u64)
        .map(|i| {
            Arc::new(if i % 2 == 0 {
                gen::community(128, 700, 4, 0.9, 10 + i)
            } else {
                gen::erdos_renyi(128, 500, 10 + i)
            })
        })
        .collect()
}

/// Call `call`'s requests: `PER_CALL` requests over all eight graphs
/// (the stride 3 is coprime to 8), four tenants, 8-wide features.
fn call_trace(gs: &[Arc<Csr>], call: usize) -> Vec<FrontRequest> {
    (0..PER_CALL)
        .map(|i| {
            let g = &gs[(call * 5 + i * 3) % GRAPHS];
            FrontRequest {
                tenant: TenantId((i % 4) as u32),
                request: Request {
                    graph: Arc::clone(g),
                    features: DenseMatrix::random_features(g.ncols, 8, (call * 100 + i) as u64),
                },
            }
        })
        .collect()
}

fn config() -> FrontConfig {
    FrontConfig {
        workers: 2,
        max_cohort: 4,
        ..FrontConfig::default()
    }
}

/// A two-shard cache holding about half of `graphs()`' plans, so calls
/// evict and re-prepare.
fn cache() -> Arc<SharedPlanCache> {
    let dev = DeviceSpec::rtx3090();
    let working_set: u64 = graphs()
        .iter()
        .map(|g| Plan::prepare(g, PlanSpec::hybrid(), &dev).approx_bytes())
        .sum();
    Arc::new(SharedPlanCache::new(working_set / 2, PlanSpec::hybrid(), 2))
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

fn bits(z: &DenseMatrix) -> Vec<u32> {
    z.data.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn thirty_two_fronts_on_one_cache_screen_each_allocation_once() {
    let dev = DeviceSpec::rtx3090();
    let gs = graphs();
    let calls: Vec<Vec<FrontRequest>> = (0..CALLS).map(|c| call_trace(&gs, c)).collect();

    let shared = cache();
    let reports: Vec<FrontReport> = calls
        .iter()
        .map(|trace| Front::with_cache(Arc::clone(&shared), config()).run_trace(trace, &dev))
        .collect();
    let s = shared.screen_stats();
    assert_eq!(s.screens, GRAPHS as u64, "one screen per allocation");
    assert_eq!(s.recalls, (CALLS * PER_CALL - GRAPHS) as u64);
    assert_eq!(s.entries, GRAPHS);
    assert!(
        shared.stats().evictions > 0,
        "the budget must force evictions"
    );

    // Control: the same calls on one cache, each carrying fresh copies of
    // the graphs, so nothing is recalled across calls. Only the screen
    // count may differ.
    let control = cache();
    for (c, (trace, got)) in calls.iter().zip(&reports).enumerate() {
        let copies: Vec<Arc<Csr>> = gs.iter().map(|g| Arc::new((**g).clone())).collect();
        let fresh = call_trace(&copies, c);
        let want = Front::with_cache(Arc::clone(&control), config()).run_trace(&fresh, &dev);
        assert_reports_equal(got, &want, &format!("call {c}"));
        assert_eq!(trace.len(), fresh.len());
    }
    assert_eq!(control.screen_stats().screens, (CALLS * GRAPHS) as u64);

    // Each call on a cache of its own: the same outcomes, bit for bit.
    for (c, (trace, got)) in calls.iter().zip(&reports).enumerate() {
        let cold = Front::with_cache(cache(), config()).run_trace(trace, &dev);
        for (g, w) in got.responses.iter().zip(&cold.responses) {
            let at = format!("call {c}, request {}", g.trace_index);
            assert_eq!(g.trace_index, w.trace_index, "{at}");
            assert_eq!(g.cohort, w.cohort, "{at}");
            assert_eq!(g.exec_sim_ms.to_bits(), w.exec_sim_ms.to_bits(), "{at}");
            let (gz, wz) = (g.outcome.z(), w.outcome.z());
            assert_eq!(gz.map(bits), wz.map(bits), "{at}: output");
            assert!(matches!(g.outcome, Outcome::Ok(_)), "{at}: {:?}", g.outcome);
        }
    }
}

/// One edge of `g` moved within its row: the row's last entry goes to
/// the first column after it that the row does not hold.
fn move_one_edge(g: &Csr) -> Csr {
    let r = (0..g.nrows)
        .find(|&r| !g.row_cols(r).is_empty())
        .expect("some row holds an edge");
    let cols = g.row_cols(r);
    let from = *cols.last().expect("non-empty row");
    let to = (from + 1..g.ncols as u32)
        .chain(0..from)
        .find(|c| !cols.contains(c))
        .expect("the row has a free cell");
    DeltaCsr::new(
        g.nrows,
        g.ncols,
        vec![(r as u32, to, 1.0)],
        vec![(r as u32, from)],
    )
    .expect("valid delta")
    .apply(g)
    .expect("applies")
}

#[test]
fn make_mut_moves_a_screened_graph_and_it_is_screened_again() {
    let dev = DeviceSpec::rtx3090();
    let shared = cache();
    let mut g = Arc::new(gen::community(128, 700, 4, 0.9, 77));
    let old_fp = StructureFingerprint::of(&g);
    let serve = |g: &Arc<Csr>, seed: u64| {
        let trace = vec![FrontRequest {
            tenant: TenantId(0),
            request: Request {
                graph: Arc::clone(g),
                features: DenseMatrix::random_features(g.ncols, 8, seed),
            },
        }];
        Front::with_cache(Arc::clone(&shared), config()).run_trace(&trace, &dev)
    };
    let first = serve(&g, 1);
    assert!(!first.responses[0].hit);
    assert!(shared.peek(old_fp).is_some(), "the old plan is resident");

    // The memo's weak handle makes the graph shared: no in-place access.
    assert!(Arc::get_mut(&mut g).is_none());
    let old_ptr = Arc::as_ptr(&g);
    let moved = move_one_edge(&g);
    let new_fp = StructureFingerprint::of(&moved);
    assert_ne!(new_fp, old_fp);
    *Arc::make_mut(&mut g) = moved.clone();
    assert_ne!(
        Arc::as_ptr(&g),
        old_ptr,
        "make_mut left the screened allocation"
    );

    let second = serve(&g, 2);
    let r = &second.responses[0];
    assert_eq!(
        shared.screen_stats().screens,
        2,
        "the new allocation is screened"
    );
    assert!(!r.hit, "served under the new fingerprint, not the old plan");
    assert!(
        shared.peek(new_fp).is_some(),
        "the new structure's plan is resident"
    );
    let x = DenseMatrix::random_features(moved.ncols, 8, 2);
    let want = Plan::prepare(&moved, PlanSpec::hybrid(), &dev).execute(&moved, &x, &dev);
    assert_eq!(r.outcome.z().map(bits), Some(bits(&want.z)));

    // Served again, the moved graph is recalled and hits its own plan.
    let third = serve(&g, 3);
    assert!(third.responses[0].hit);
    assert_eq!(shared.screen_stats().screens, 2);
}

#[test]
fn a_malformed_graph_fails_the_same_typed_way_on_every_call() {
    let dev = DeviceSpec::rtx3090();
    let shared = cache();
    let g = Arc::new(gen::erdos_renyi(96, 420, 5));
    let mut broken = (*g).clone();
    broken.col_idx[0] = 10_000;
    let broken = Arc::new(broken);
    let want = Outcome::Failed(HcError::BadInput(CsrError::ColumnOutOfRange {
        entry: 0,
        col: 10_000,
    }));
    for call in 0..4u64 {
        let trace: Vec<FrontRequest> = [&g, &broken, &broken, &g]
            .into_iter()
            .enumerate()
            .map(|(i, graph)| FrontRequest {
                tenant: TenantId(i as u32),
                request: Request {
                    graph: Arc::clone(graph),
                    features: DenseMatrix::random_features(graph.ncols, 4, call * 10 + i as u64),
                },
            })
            .collect();
        let rep = Front::with_cache(Arc::clone(&shared), config()).run_trace(&trace, &dev);
        for i in [1, 2] {
            assert_eq!(rep.responses[i].outcome, want, "call {call}, request {i}");
        }
        for i in [0, 3] {
            assert!(rep.responses[i].outcome.z().is_some(), "call {call}");
        }
    }
    let s = shared.screen_stats();
    assert_eq!((s.screens, s.recalls), (2, 14));
    assert_eq!(
        shared.stats().misses,
        1,
        "the malformed graph never reaches the cache"
    );
}

#[test]
fn the_memo_stays_within_its_bound_once_the_arcs_are_dropped() {
    let dev = DeviceSpec::rtx3090();
    let shared = cache();
    {
        let gs = graphs();
        for c in 0..CALLS {
            let trace = call_trace(&gs, c);
            Front::with_cache(Arc::clone(&shared), config()).run_trace(&trace, &dev);
        }
    }
    // Eight allocations were alive at once at most; all are dead now.
    let bound = 2 * GRAPHS + 64;
    assert!(shared.screen_stats().entries <= bound);

    // Fresh allocations of one structure, one per call, each dropped after
    // its call: every one is screened, and dead entries are pruned.
    let template = gen::erdos_renyi(64, 200, 9);
    for k in 0..300u64 {
        let g = Arc::new(template.clone());
        let trace = vec![FrontRequest {
            tenant: TenantId(0),
            request: Request {
                graph: Arc::clone(&g),
                features: DenseMatrix::random_features(g.ncols, 4, k),
            },
        }];
        let rep = Front::with_cache(Arc::clone(&shared), config()).run_trace(&trace, &dev);
        assert!(rep.responses[0].outcome.z().is_some());
        drop((trace, g));
        let entries = shared.screen_stats().entries;
        assert!(entries <= bound, "{entries} entries after fresh graph {k}");
    }
    let s = shared.screen_stats();
    assert_eq!(s.screens, (GRAPHS + 300) as u64);
    assert!(
        s.entries <= 64,
        "dead entries were pruned: {} left",
        s.entries
    );
}

fn scratch(name: &str) -> DurabilityConfig {
    let dir = std::env::temp_dir();
    let path = |ext: &str| dir.join(format!("hc-screen-{}-{name}.{ext}", std::process::id()));
    let cfg = DurabilityConfig {
        wal_path: path("wal"),
        snapshot_path: path("snap"),
        snapshot_every: 2,
    };
    cleanup(&cfg);
    cfg
}

fn cleanup(cfg: &DurabilityConfig) {
    let _ = std::fs::remove_file(&cfg.wal_path);
    let _ = std::fs::remove_file(&cfg.snapshot_path);
    let mut tmp = cfg.snapshot_path.as_os_str().to_owned();
    tmp.push(".tmp");
    let _ = std::fs::remove_file(PathBuf::from(tmp));
}

#[test]
fn a_durable_front_screens_each_allocation_once_across_runs_and_recovery() {
    let dev = DeviceSpec::rtx3090();
    let gs = graphs();
    let events: Vec<FrontEvent> = call_trace(&gs, 0)
        .into_iter()
        .map(FrontEvent::Serve)
        .collect();
    let cfg = scratch("durable");
    let mk_front = || Front::new(1 << 30, PlanSpec::hybrid(), 2, config());

    // Collecting the recovery roots and serving share one screen.
    let mut df = DurableFront::create(mk_front(), cfg.clone()).expect("create");
    let rep = df
        .run(&events, &dev)
        .expect("run")
        .report
        .expect("no crash");
    assert!(rep.responses.iter().all(|r| r.outcome.z().is_some()));
    let s = df.front().cache().screen_stats();
    assert_eq!(s.screens, GRAPHS as u64);
    assert_eq!(s.recalls, (events.len() * 2 - GRAPHS) as u64);

    // Recovery scans the trace for roots through the fresh front's cache,
    // and the resumed run recalls those verdicts.
    let (mut recovered, _) =
        DurableFront::recover(mk_front(), cfg.clone(), &events, &dev).expect("recover");
    assert_eq!(
        recovered.front().cache().screen_stats().screens,
        GRAPHS as u64
    );
    recovered.run(&events, &dev).expect("resume");
    assert_eq!(
        recovered.front().cache().screen_stats().screens,
        GRAPHS as u64
    );
    cleanup(&cfg);
}
