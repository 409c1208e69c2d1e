//! Parallel determinism: every kernel family must produce bit-identical
//! output at any worker-thread count.
//!
//! The engine parallelizes over *indexed slots* (rows or row-windows):
//! each slot is computed by exactly one worker with the same per-slot
//! arithmetic order as the serial code, and reductions fold in index
//! order on the calling thread. Threads race only for WHICH slot they
//! compute next, never over shared accumulators — so the result is the
//! same bit pattern at 1, 2, or 8 threads, and this test pins that down
//! for all four kernel families on structurally different graphs.
//!
//! Single `#[test]` on purpose: the thread override is process-global, so
//! concurrent tests in one binary would trample each other's setting.

use std::sync::Arc;

use gpu_sim::{DeviceSpec, FaultConfig};
use graph_sparse::{gen, Csr, DenseMatrix};
use hc_core::{
    CudaSpmm, HcSpmm, PlanSpec, ResiliencePolicy, SpmmKernel, StraightforwardHybrid, TensorSpmm,
};
use hc_serve::{CacheStats, Front, FrontRequest, Outcome, Request, TenantId};

#[test]
fn kernel_outputs_bit_identical_across_thread_counts() {
    let dev = DeviceSpec::rtx3090();
    let graphs = [
        ("community", gen::community(1024, 8_000, 32, 0.9, 1)),
        ("molecules", gen::molecules(2_048, 5_000, 2)),
        ("erdos_renyi", gen::erdos_renyi(2_048, 12_000, 3)),
    ];
    let kernels: Vec<(&str, Box<dyn SpmmKernel>)> = vec![
        (
            "straightforward",
            Box::new(StraightforwardHybrid::default()),
        ),
        ("cuda", Box::new(CudaSpmm::optimized())),
        ("tensor", Box::new(TensorSpmm::optimized())),
        ("hybrid", Box::new(HcSpmm::default())),
    ];

    let saved = hc_parallel::thread_override();
    for (graph_name, a) in &graphs {
        let x = DenseMatrix::random_features(a.nrows, 32, 7);
        for (family, kernel) in &kernels {
            hc_parallel::set_threads(1);
            let serial = kernel.spmm(a, &x, &dev).z;
            for threads in [2, 8] {
                hc_parallel::set_threads(threads);
                let parallel = kernel.spmm(a, &x, &dev).z;
                assert_eq!(
                    serial, parallel,
                    "{family} on {graph_name}: output at {threads} threads \
                     differs from single-thread output"
                );
            }
        }
    }

    // The in-order serving front inherits the same guarantee: a request
    // stream served through the plan cache yields bit-identical outputs,
    // hit flags and cache counters at any worker count. Eviction pressure
    // included — a tight budget exercises eviction victim selection, which
    // must also be thread-count-independent.
    let serve_graphs: Vec<Arc<Csr>> = vec![
        Arc::new(gen::erdos_renyi(512, 3_000, 21)),
        Arc::new(gen::community(512, 4_000, 16, 0.9, 22)),
        Arc::new(gen::molecules(600, 1_400, 23)),
    ];
    // a, b, a, c, c, b, a, …: repeats so the cache sees hits.
    let requests: Vec<FrontRequest> = [0usize, 1, 0, 2, 2, 1, 0, 1, 2, 0]
        .iter()
        .enumerate()
        .map(|(i, &g)| FrontRequest {
            tenant: TenantId(0),
            request: Request {
                graph: Arc::clone(&serve_graphs[g]),
                features: DenseMatrix::random_features(serve_graphs[g].ncols, 16, i as u64),
            },
        })
        .collect();
    let serve_batch = |threads: usize, budget: u64| -> (Vec<DenseMatrix>, Vec<bool>, CacheStats) {
        hc_parallel::set_threads(threads);
        let front = Front::in_order(budget, PlanSpec::hybrid(), ResiliencePolicy::default());
        let rep = front.run_trace(&requests, &dev);
        (
            rep.responses
                .iter()
                .map(|r| r.z().expect("faults off: every request serves").clone())
                .collect(),
            rep.responses.iter().map(|r| r.hit).collect(),
            rep.cache,
        )
    };
    // Second budget fits roughly one plan, forcing evictions mid-stream.
    let one_plan =
        hc_core::Plan::prepare(&serve_graphs[0], PlanSpec::hybrid(), &dev).approx_bytes();
    for budget in [u64::MAX, one_plan + one_plan / 2] {
        let (z1, hits1, stats1) = serve_batch(1, budget);
        assert!(hits1.iter().any(|&h| h), "request mix must produce hits");
        for threads in [2, 8] {
            let (z, hits, stats) = serve_batch(threads, budget);
            assert_eq!(
                z1, z,
                "in-order front outputs at {threads} threads differ from single-thread \
                 (budget {budget})"
            );
            assert_eq!(hits1, hits, "hit pattern changed with thread count");
            assert_eq!(stats1, stats, "cache counters changed with thread count");
        }
    }
    // Fault schedules must be thread-count-deterministic too: decisions
    // are a pure function of (seed, launch index) and a request's
    // launches all happen on the one front worker that serves it, so the
    // same chaos batch produces identical outcomes, retry counts,
    // fallback choices, wasted time and cache counters (quarantines
    // included) at 1, 2 and 8 threads.
    let chaos_batch = |threads: usize, seed: u64, rate: f64| {
        hc_parallel::set_threads(threads);
        let policy = ResiliencePolicy {
            faults: FaultConfig::uniform(seed, rate),
            ..Default::default()
        };
        let rep = Front::in_order(u64::MAX, PlanSpec::hybrid(), policy).run_trace(&requests, &dev);
        let outcomes: Vec<Outcome> = rep.responses.iter().map(|r| r.outcome.clone()).collect();
        let wasted: Vec<f64> = rep.responses.iter().map(|r| r.wasted_sim_ms).collect();
        let hits: Vec<bool> = rep.responses.iter().map(|r| r.hit).collect();
        (outcomes, wasted, hits, rep.cache)
    };
    // Churn: the incremental re-plan path is thread-count-deterministic
    // too. Patching a plan and executing it must produce the same bit
    // pattern — outputs, fingerprints and simulated times — at 1, 2 and
    // 8 threads, and always match a from-scratch prepare on the mutated
    // graph.
    let churn_base = &serve_graphs[0];
    let (dr, dc) = (0..churn_base.nrows)
        .find_map(|r| churn_base.row_cols(r).first().map(|&c| (r as u32, c)))
        .expect("generated graph has edges");
    let delta = graph_sparse::DeltaCsr::new(
        churn_base.nrows,
        churn_base.ncols,
        vec![((dr + 1) % churn_base.nrows as u32, dc, 1.25)],
        vec![(dr, dc)],
    )
    .expect("one insert, one delete: valid churn delta");
    let mutated = match delta.apply(churn_base) {
        Ok(m) => m,
        Err(e) => panic!("delta applies to its base: {e}"),
    };
    let xm = DenseMatrix::random_features(mutated.ncols, 16, 77);
    let churn_at = |threads: usize| {
        hc_parallel::set_threads(threads);
        let base = hc_core::Plan::prepare(churn_base, PlanSpec::hybrid(), &dev);
        let patched = match base.patch(churn_base, &delta, &dev) {
            Ok(p) => p,
            Err(e) => panic!("valid delta patches: {e}"),
        };
        let out = patched.execute(&mutated, &xm, &dev);
        (
            patched.fingerprint,
            out.z,
            out.run.time_ms.to_bits(),
            patched.sim_prepare_ms().to_bits(),
        )
    };
    let serial_churn = churn_at(1);
    assert_eq!(
        serial_churn.0,
        graph_sparse::StructureFingerprint::of(&mutated),
        "patched fingerprint must key the mutated structure"
    );
    for threads in [2, 8] {
        assert_eq!(
            serial_churn,
            churn_at(threads),
            "patched plan at {threads} threads differs from single-thread"
        );
    }

    for (seed, rate) in [(17u64, 0.3f64), (99, 0.8)] {
        let (o1, w1, h1, s1) = chaos_batch(1, seed, rate);
        assert!(
            o1.iter().any(|o| !matches!(o, Outcome::Ok(_))),
            "rate {rate} must degrade or fail something for the test to bite"
        );
        for threads in [2, 8] {
            let (o, w, h, s) = chaos_batch(threads, seed, rate);
            assert_eq!(
                o1, o,
                "chaos outcomes at {threads} threads differ from single-thread (seed {seed})"
            );
            assert_eq!(w1, w, "wasted-time accounting changed with thread count");
            assert_eq!(h1, h, "hit pattern changed with thread count under faults");
            assert_eq!(
                s1, s,
                "cache counters changed with thread count under faults"
            );
        }
    }
    hc_parallel::set_threads(saved);
}
